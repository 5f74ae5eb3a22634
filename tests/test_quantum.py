"""Teleportation, the POVM swap protocol, and the structure checks."""

import dataclasses
import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from repcheck.characters import char_table, conj_character
from repcheck.cyclo import CycloNum, I, INV_SQRT2, ONE, SQRT2, ZERO, inner
from repcheck.groups import GroupError, builtin_group, verify_hom
from repcheck import quantum
from repcheck.matrices import ExactMatrix, hs_inner, ray_key
from repcheck.quantum import (
    IncompleteInstrument,
    Instrument,
    NotDichotomic,
    NotProjectiveRep,
    PAULI_LABELS,
    PureState,
    TSIRELSON,
    ZeroState,
    bell_state,
    chsh_value,
    conj_rep_character_from_matrices,
    correction_group_check,
    entanglement_swap,
    iterate_swap_detailed,
    lifted_correction_rep_on_d8,
    matrix_group_mod_phases,
    pauli,
    pauli_rep_on_k4,
    phase_gate,
    povm_construction,
    pvm_counting_check,
    standard_corrections,
    teleport,
    tsirelson_settings,
    verify_cocycle,
)

RNG = random.Random(5)


def rand_qubit():
    while True:
        amps = [
            CycloNum(Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)),
                     0, Fraction(RNG.randint(-6, 6), RNG.randint(1, 5)), 0)
            for _ in range(2)
        ]
        if any(not a.is_zero() for a in amps):
            return PureState(tuple(amps))


# ----------------------------------------------------------------------
# Pauli algebra and Bell states

def test_pauli_squares_and_hermiticity():
    for k in range(4):
        s = pauli(k)
        assert (s @ s).is_identity()
        assert s.is_hermitian() and s.is_unitary()


def test_pauli_trace_orthogonality():
    for j in range(4):
        for k in range(4):
            expected = CycloNum(2 if j == k else 0)
            assert (pauli(j) @ pauli(k)).trace() == expected


def test_pauli_multiplication_rule():
    assert pauli(1) @ pauli(2) == pauli(3).scale(I)
    assert pauli(2) @ pauli(3) == pauli(1).scale(I)
    assert pauli(3) @ pauli(1) == pauli(2).scale(I)
    assert pauli(2) @ pauli(1) == pauli(3).scale(-I)


def test_pauli_matrices_agree_with_group_table():
    """The hard-coded Pauli1 multiplication table is the matrix algebra."""
    p1 = builtin_group("Pauli1")
    phases = (ONE, I, -ONE, -I)
    mats = {4 * j + k: pauli(j).scale(phases[k]) for j in range(4) for k in range(4)}
    for a in p1.elements():
        for b in p1.elements():
            assert mats[a] @ mats[b] == mats[p1.mul(a, b)]


def test_bell_basis_explicit_vectors():
    b = quantum._BELL_BASIS
    half = INV_SQRT2
    assert b[0].vector == (half, ZERO, ZERO, half)
    assert b[1].vector == (ZERO, half, half, ZERO)
    assert b[2].vector == (ZERO, -I * half, I * half, ZERO)
    assert b[3].vector == (half, ZERO, ZERO, -half)


def test_bell_basis_gram_matrix_is_identity():
    b = quantum._BELL_BASIS
    for j in range(4):
        for k in range(4):
            expected = ONE if j == k else ZERO
            assert inner(b[j].vector, b[k].vector) == expected


@pytest.mark.parametrize("k", [4, -1, -4, 5])
def test_pauli_index_out_of_range_is_refused(k):
    # a shared tuple indexed by k would quietly return sigma_z for -1
    with pytest.raises(ValueError, match="out of range"):
        pauli(k)


def test_editing_standard_corrections_leaves_the_shared_table_alone():
    _, inst = povm_construction()
    edited = standard_corrections()
    for label in edited:
        edited[label] = ("I", pauli(0))
    edited["b9"] = ("X", pauli(1))
    fresh = standard_corrections()
    assert sorted(fresh) == ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"]
    assert fresh["a1"] == ("SX", phase_gate() @ pauli(1))
    trace = entanglement_swap(inst)
    assert [rec.probability for rec in trace.outcomes] == [Fraction(1, 8)] * 8
    assert [rec.chsh for rec in trace.outcomes] == [TSIRELSON] * 8
    assert [rec.correction_label for rec in trace.outcomes] == [
        "I", "X", "Y", "Z", "S", "SX", "SY", "SZ"
    ]


# ----------------------------------------------------------------------
# CHSH

def test_tsirelson_value_exact():
    value = chsh_value(bell_state(), tsirelson_settings())
    assert value == TSIRELSON
    assert value.coeffs == (0, 2, 0, -2)


def test_zz_correlation_on_bell_state():
    phi = bell_state()
    zz = pauli(3).tensor(pauli(3))
    assert inner(phi.vector, zz.apply(phi.vector)) == ONE


def test_chsh_of_product_state():
    # oracle: B = sqrt2 (sz x sz + sx x sx), and <00|...|00> picks the
    # (0,0) entries: (sz x sz)[0,0] = 1, (sx x sx)[0,0] = 0
    sz = [[1, 0], [0, -1]]
    sx = [[0, 1], [1, 0]]
    m00 = sz[0][0] * sz[0][0] + sx[0][0] * sx[0][0]
    assert m00 == 1
    state = PureState((ONE, ZERO, ZERO, ZERO))
    assert chsh_value(state, tsirelson_settings()) == SQRT2


def test_chsh_rejects_non_dichotomic_settings():
    sz, sx = pauli(3), pauli(1)
    bad = sz + sx  # squares to 2, not 1
    with pytest.raises(NotDichotomic):
        chsh_value(bell_state(), (sz, sx, bad, sx))


def test_chsh_rejects_zero_state():
    with pytest.raises(ZeroState):
        chsh_value(PureState((ZERO,) * 4), tsirelson_settings())


# ----------------------------------------------------------------------
# teleportation

def test_teleport_of_basis_state():
    state = PureState((ONE, ZERO))
    trace = teleport(state)
    quarter = Fraction(1, 4)
    # oracle: conditional for outcome k is sigma_k |psi> / 2 (literal 2x2s)
    sigmas = (
        ((ONE, ZERO), (ZERO, ONE)),
        ((ZERO, ONE), (ONE, ZERO)),
        ((ZERO, -I), (I, ZERO)),
        ((ONE, ZERO), (ZERO, -ONE)),
    )
    for k, rec in enumerate(trace.outcomes):
        assert rec.probability == quarter
        expected_cond = tuple(
            (sigmas[k][r][0] * state.vector[0] + sigmas[k][r][1] * state.vector[1])
            * CycloNum(Fraction(1, 2))
            for r in range(2)
        )
        assert rec.conditional.vector == expected_cond
        assert rec.post.proportional_to(state) == CycloNum(Fraction(1, 2))
    assert trace.outcomes[0].correction_label == "I"


def test_teleport_restores_random_states():
    for _ in range(25):
        state = rand_qubit()
        trace = teleport(state)
        assert trace.total_probability() == 1
        for rec in trace.outcomes:
            scalar = rec.post.proportional_to(state)
            assert scalar is not None and not scalar.is_zero()


def test_teleport_rejects_zero_state():
    with pytest.raises(ZeroState):
        teleport(PureState((ZERO, ZERO)))


def general_qubit() -> PureState:
    """(1 + z)|0> + |1>: its squared norm 3 + sqrt2 is irrational."""
    return PureState((ONE + CycloNum(0, 1, 0, 0), ONE))


def test_teleport_of_a_state_with_irrational_norm():
    state = general_qubit()
    trace = teleport(state)
    assert [rec.probability for rec in trace.outcomes] == [Fraction(1, 4)] * 4
    for rec in trace.outcomes:
        scalar = rec.post.proportional_to(state)
        assert scalar is not None and not scalar.is_zero()


def test_teleporting_half_of_an_entangled_pair():
    """Teleporting one leg of a Bell pair is a swap with the Bell-basis
    instrument: the output pair must return to the Bell state."""
    projectors = [outer_state(b) for b in quantum._BELL_BASIS]
    inst = Instrument(
        labels=tuple(f"b{k}" for k in range(4)),
        kraus=tuple(projectors),
    )
    corrections = {f"b{k}": (PAULI_LABELS[k], pauli(k)) for k in range(4)}
    trace = entanglement_swap(inst, corrections=corrections)
    phi = bell_state()
    for rec in trace.outcomes:
        assert rec.probability == Fraction(1, 4)
        scalar = rec.post.proportional_to(phi)
        assert scalar is not None and scalar.abs_sq() == ONE
        assert rec.chsh == TSIRELSON


def outer_state(s: PureState) -> ExactMatrix:
    from repcheck.matrices import outer

    return outer(s.vector, s.vector)


# ----------------------------------------------------------------------
# POVM construction and entanglement swapping

def test_povm_effects_resolve_identity():
    effects, inst = povm_construction()
    assert len(effects) == 8
    total = ExactMatrix.zeros(4, 4)
    for e in effects:
        total = total + e.matrix
    assert total.is_identity()
    assert inst.is_complete()


def test_each_half_of_the_povm_must_resolve_the_identity():
    """The one completeness guard of the construction: each half must sum
    to I/2, and then the Kraus operators are complete."""
    basis = quantum._BELL_BASIS
    _, inst = quantum._povm_built(basis, phase_gate())
    assert inst.is_complete()
    doubled = (PureState(tuple(a + a for a in basis[0].vector)),) + basis[1:]
    with pytest.raises(IncompleteInstrument, match="^b-family does not resolve the identity$"):
        quantum._povm_built(doubled, phase_gate())
    with pytest.raises(IncompleteInstrument, match="^a-family does not resolve the identity$"):
        quantum._povm_built(basis, ExactMatrix.diag([1, 2]))


def test_an_effect_matrix_is_derived_from_its_scale_and_vector():
    v = bell_state()
    e = quantum.Effect(label="x", scale=Fraction(1, 3), vector=v)
    assert e.matrix == outer_state(v).scale(Fraction(1, 3))
    with pytest.raises(TypeError):
        quantum.Effect(label="x", scale=Fraction(1, 3), vector=v, matrix=e.matrix)


def test_povm_construction_shares_one_instrument():
    effects, inst = povm_construction()
    again, inst_again = povm_construction()
    assert inst_again is inst
    assert again is not effects
    assert all(x is y for x, y in zip(again, effects))
    assert [e.label for e in effects] == list(inst.labels)


def test_editing_the_effects_list_leaves_the_next_call_whole():
    effects, _ = povm_construction()
    labels = [e.label for e in effects]
    effects.pop()
    effects[0] = None
    effects.append("junk")
    fresh, _ = povm_construction()
    assert [e.label for e in fresh] == labels == [
        "b0", "b1", "b2", "b3", "a0", "a1", "a2", "a3"
    ]
    total = ExactMatrix.zeros(4, 4)
    for e in fresh:
        total = total + e.matrix
    assert total.is_identity()


def test_a_replaced_bell_basis_is_built_and_checked_again(capsys, monkeypatch):
    import repcheck.quantum as quantum
    from repcheck import cli

    assert cli.main(["verify-all"]) == 0
    capsys.readouterr()
    b0, _, b2, b3 = quantum._BELL_BASIS
    monkeypatch.setattr(quantum, "_BELL_BASIS", (b0, b0, b2, b3))
    with pytest.raises(IncompleteInstrument):
        povm_construction()
    assert cli.main(["verify-all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if " povm: " in line][0].startswith("FAIL povm: ")
    monkeypatch.undo()
    assert cli.main(["verify-all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "18/18 checks passed"


def test_phase_twisted_family_is_orthonormal():
    s = phase_gate()
    for j in range(4):
        for k in range(4):
            expected = CycloNum(2 if j == k else 0)
            assert ((s @ pauli(j)).dagger() @ (s @ pauli(k))).trace() == expected


def test_swap_outcome_structure():
    _, inst = povm_construction()
    trace = entanglement_swap(inst)
    phi = bell_state()
    eye = ExactMatrix.identity(2)
    corrections = standard_corrections()
    assert [rec.label for rec in trace.outcomes] == [
        "b0", "b1", "b2", "b3", "a0", "a1", "a2", "a3"
    ]
    for rec in trace.outcomes:
        assert rec.probability == Fraction(1, 8)
        _, v = corrections[rec.label]
        expected = PureState(eye.tensor(v.dagger()).apply(phi.vector))
        assert rec.conditional.proportional_to(expected) is not None
        scalar = rec.post.proportional_to(phi)
        assert scalar is not None and scalar.abs_sq() == ONE
        assert rec.chsh == TSIRELSON
    assert trace.total_probability() == 1


@pytest.mark.parametrize("probabilities", [
    (Fraction(1, 6), Fraction(1, 3), Fraction(3, 4), Fraction(5, 12)),
    (Fraction(2, 9), Fraction(-1, 10), Fraction(7), Fraction(0)),
    (),
], ids=["reduces", "signed", "empty"])
def test_total_probability_is_the_plain_sum(probabilities):
    rec = teleport(PureState((ONE, ZERO))).outcomes[0]
    trace = quantum.ProtocolTrace(tuple(dataclasses.replace(rec, probability=p)
                                        for p in probabilities))
    total = trace.total_probability()
    assert type(total) is Fraction
    assert total == sum(probabilities, Fraction(0))


def test_swap_of_a_left_pair_with_irrational_norm():
    a, b = general_qubit().vector
    left = PureState((a, ZERO, ZERO, b))
    _, inst = povm_construction()
    trace = entanglement_swap(inst, left=left)
    chsh_left = chsh_value(left, tsirelson_settings())
    assert not chsh_left.is_rational()
    assert [rec.probability for rec in trace.outcomes] == [Fraction(1, 8)] * 8
    for rec in trace.outcomes:
        scalar = rec.post.proportional_to(left)
        assert scalar is not None and not scalar.is_zero()
        assert rec.chsh == chsh_left


def test_swap_correction_labels():
    _, inst = povm_construction()
    trace = entanglement_swap(inst)
    labels = {rec.label: rec.correction_label for rec in trace.outcomes}
    assert labels["b0"] == "I" and labels["b2"] == "Y"
    assert labels["a0"] == "S" and labels["a3"] == "SZ"


def test_swap_rejects_incomplete_instrument():
    _, inst = povm_construction()
    broken = Instrument(labels=inst.labels[:7], kraus=inst.kraus[:7])
    with pytest.raises(IncompleteInstrument):
        entanglement_swap(broken)


_LABELS, _KRAUS = povm_construction()[1].labels, povm_construction()[1].kraus


@pytest.mark.parametrize("labels,kraus,error,message", [
    (_LABELS, "x", TypeError, "Instrument kraus must be a non-empty tuple of ExactMatrix, got str"),
    (_LABELS, (1, 2), TypeError,
     "Instrument kraus must be a non-empty tuple of ExactMatrix, got a tuple holding int"),
    (_LABELS, (), TypeError, "Instrument kraus must be a non-empty tuple of ExactMatrix, got an empty tuple"),
    (_LABELS, list(_KRAUS), TypeError, "Instrument kraus must be a non-empty tuple of ExactMatrix, got list"),
    ("b0", _KRAUS, TypeError, "Instrument labels must be a non-empty tuple of str, got str"),
    ((0,) * 8, _KRAUS, TypeError,
     "Instrument labels must be a non-empty tuple of str, got a tuple holding int"),
    (_LABELS[:7], _KRAUS, ValueError, "Instrument has 7 labels and 8 Kraus operators"),
    (_LABELS, _KRAUS + _KRAUS[:1], ValueError, "Instrument has 8 labels and 9 Kraus operators"),
], ids=["str-kraus", "int-kraus", "no-kraus", "list-kraus", "str-labels", "int-labels",
        "fewer-labels", "more-kraus"])
def test_an_instrument_refuses_wrong_fields_by_name(labels, kraus, error, message):
    """Refused when built, so no swap meets a field it cannot read."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Instrument(labels, kraus)


def test_zero_kraus_operator_gives_a_zero_probability_record():
    _, inst = povm_construction()
    padded = Instrument(labels=inst.labels + ("z",),
                        kraus=inst.kraus + (ExactMatrix.zeros(4, 4),))
    corrections = dict(standard_corrections(), z=("I", pauli(0)))
    trace = entanglement_swap(padded, corrections=corrections)
    zero = trace.by_label("z")
    assert zero.probability == 0 and zero.chsh is None
    assert trace.outcomes[:8] == entanglement_swap(inst).outcomes


def test_swap_rejects_a_kraus_operator_that_is_not_4x4():
    inst = Instrument(labels=("id",), kraus=(ExactMatrix.identity(2),))
    with pytest.raises(ValueError, match="not 4x4"):
        entanglement_swap(inst, corrections={"id": ("I", pauli(0))})


def test_swap_names_the_outcome_labels_its_corrections_lack():
    _, inst = povm_construction()
    labels = list(inst.labels)
    message = f"corrections lack outcome labels {labels[1:]}; the instrument's labels are {labels}"
    with pytest.raises(ValueError, match=re.escape(message)):
        entanglement_swap(inst, corrections={"b0": ("I", pauli(0))})
    # refused before any work: this instrument is incomplete as well
    broken = Instrument(labels=inst.labels[:7], kraus=inst.kraus[:7])
    with pytest.raises(ValueError, match="lack outcome labels"):
        entanglement_swap(broken, corrections={"b0": ("I", pauli(0))})
    # the standard table, used when no corrections are given, is checked too
    renamed = Instrument(labels=("x",) + inst.labels[1:], kraus=inst.kraus)
    message = f"corrections lack outcome labels ['x']; the instrument's labels are {list(renamed.labels)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        entanglement_swap(renamed)


def test_the_standard_corrections_swap_as_the_same_table_passed_in():
    _, inst = povm_construction()
    rng = random.Random(5)
    lefts = [bell_state()] + [
        PureState(tuple(CycloNum(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0,
                                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0)
                        for _ in range(4)))
        for _ in range(20)
    ]
    for left in lefts:
        quantum._swap_cached.cache_clear()
        by_default = entanglement_swap(inst, left=left)
        quantum._swap_cached.cache_clear()
        assert entanglement_swap(inst, standard_corrections(), left=left) == by_default


@pytest.mark.parametrize("call", [
    entanglement_swap,
    lambda inst: iterate_swap_detailed(1, inst=inst),
    lambda inst: iterate_swap_detailed(1, outcome_path=["b0"], inst=inst),
], ids=["entanglement_swap", "iterate_swap_detailed", "iterate_swap_detailed-path"])
def test_the_swap_refuses_an_instrument_that_is_not_one(call):
    with pytest.raises(TypeError, match="needs an Instrument, got tuple$"):
        call((1, 2))


@pytest.mark.parametrize("label,corr,error,shape", [
    ("a2", [[1, 0], [0, 1]], TypeError, "must be an ExactMatrix, got list"),
    ("b1", ExactMatrix.identity(4), ValueError, "is 4x4, not 2x2"),
    ("b3", ExactMatrix([[1, 0]]), ValueError, "is 1x2, not 2x2"),
], ids=["list", "4x4", "1x2"])
def test_the_swap_refuses_a_correction_that_is_not_a_2x2_matrix(label, corr, error, shape):
    corrections = standard_corrections()
    corrections[label] = ("bad", corr)
    message = re.escape(f"the correction of outcome {label} {shape}")
    _, inst = povm_construction()
    with pytest.raises(error, match=message):
        entanglement_swap(inst, corrections)
    # the chain follows b0 only, and is refused all the same
    with pytest.raises(error, match=message):
        iterate_swap_detailed(1, outcome_path=["b0"], corrections=corrections)


def test_the_correction_of_a_zero_probability_outcome_is_checked_too():
    _, inst = povm_construction()
    padded = Instrument(labels=inst.labels + ("z",),
                        kraus=inst.kraus + (ExactMatrix.zeros(4, 4),))
    corrections = dict(standard_corrections(), z=("I", ExactMatrix.identity(3)))
    with pytest.raises(ValueError, match="the correction of outcome z is 3x3, not 2x2"):
        entanglement_swap(padded, corrections=corrections)


@pytest.mark.parametrize("rounds,path,unknown", [
    (1, ["zz"], "['zz']"),
    (2, ["b0", "zz"], "['zz']"),
    (2, "b0b1", "['b', '0']"),  # a string is read one character per round
])
def test_iterate_swap_names_an_unknown_outcome_label(rounds, path, unknown):
    message = f"unknown labels {unknown}; the instrument's labels are ['b0', 'b1',"
    with pytest.raises(ValueError, match=re.escape(message)):
        iterate_swap_detailed(rounds, outcome_path=path)


@pytest.mark.parametrize("amps,name", [
    ((1, 0), "int"),
    ((Fraction(1, 2), ONE), "Fraction"),
    ((ONE, 0.5), "float"),
    ((1, 0, 0, 1), "int"),
])
def test_a_state_needs_cyclonum_amplitudes(amps, name):
    with pytest.raises(TypeError, match=f"must be CycloNum, got {name}"):
        PureState(amps)


@pytest.mark.parametrize("call", [
    teleport,
    lambda v: entanglement_swap(povm_construction()[1], left=v),
    lambda v: chsh_value(v, tsirelson_settings()),
], ids=["teleport", "entanglement_swap", "chsh_value"])
def test_a_bare_amplitude_tuple_is_a_type_error(call):
    with pytest.raises(TypeError, match="needs a PureState, got tuple$"):
        call((ONE, ZERO, ZERO, ONE))


def _chain_into_a_zero_outcome():
    """A one-round chain that selects a zero Kraus operator's outcome."""
    _, inst = povm_construction()
    padded = Instrument(labels=inst.labels + ("z",),
                        kraus=inst.kraus + (ExactMatrix.zeros(4, 4),))
    corrections = dict(standard_corrections(), z=("I", pauli(0)))
    return iterate_swap_detailed(1, outcome_path=["z"], inst=padded, corrections=corrections)


@pytest.mark.parametrize("call,error,message", [
    (lambda: chsh_value(PureState((ONE, ZERO)), tsirelson_settings()),
     ValueError, "CHSH needs a two-qubit state"),
    (lambda: teleport(bell_state()), ValueError, "teleportation input must be a single qubit"),
    (lambda: entanglement_swap(povm_construction()[1], left=PureState((ONE, ZERO, ONE))),
     ValueError, "left leg must be a two-qubit state"),
    (lambda: quantum.Effect("x", Fraction(0), PureState((ONE, ZERO))),
     ValueError, "effect scale must be positive"),
    (lambda: quantum.Effect("x", Fraction(-1, 2), PureState((ONE, ZERO))),
     ValueError, "effect scale must be positive"),
    (lambda: iterate_swap_detailed(0), ValueError, "rounds must be >= 1"),
    (lambda: iterate_swap_detailed("3"), TypeError, "iterate_swap_detailed needs an int rounds, got str"),
    (lambda: iterate_swap_detailed(2.0), TypeError, "iterate_swap_detailed needs an int rounds, got float"),
    (lambda: quantum.Effect("x", Fraction(1, 2), (ONE, ZERO)),
     TypeError, "Effect needs a PureState, got tuple"),
    (lambda: iterate_swap_detailed(3, outcome_path=["b0", "b1"]),
     ValueError, "outcome_path supplies 2 outcomes for 3 rounds"),
    (_chain_into_a_zero_outcome, ZeroState, "selected outcome z has zero probability"),
    (lambda: conj_rep_character_from_matrices(builtin_group("K4"), pauli_rep_on_k4()[:3]),
     ValueError, "need one matrix per group element"),
], ids=["chsh_value", "teleport", "entanglement_swap", "Effect-zero", "Effect-negative",
        "rounds", "rounds-str", "rounds-float", "Effect-vector", "outcome_path-length",
        "zero-probability", "conj_rep_character"])
def test_a_wrong_shape_is_refused_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# sha256 over the repr of every OutcomeRecord field that
# test_protocol_records_are_pinned produces
PROTOCOL_RECORDS_SHA256 = "7ff1fc4ff2ca5bf634389cab3b11ec358db28fad730b1084bf935c854f4d7929"


def test_protocol_records_are_pinned():
    """A change of scale or phase in a conditional or corrected state moves
    this digest even where the CLI output, which prints only probabilities,
    labels and CHSH values, stays the same."""
    rng = random.Random(2026)

    def amp(general):
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        return CycloNum(*c) if general else CycloNum(c[0], 0, c[2], 0)

    _, inst = povm_construction()
    traces = [entanglement_swap(inst)]
    for general in (False, False, False, True, True, True):
        left = PureState(tuple(amp(general) for _ in range(4)))
        traces.append(entanglement_swap(inst, left=left))
    for general in (False, False, True, True):
        traces.append(teleport(PureState((amp(general), amp(general)))))
    records = [rec for trace in traces for rec in trace.outcomes]
    records += iterate_swap_detailed(50, seed=11)
    digest = hashlib.sha256()
    for rec in records:
        for field in dataclasses.fields(rec):
            digest.update(repr(getattr(rec, field.name)).encode() + b"\n")
    assert digest.hexdigest() == PROTOCOL_RECORDS_SHA256


def test_iterate_swap_single_and_deep():
    assert [r.chsh for r in iterate_swap_detailed(1, outcome_path=["b0"])] == [TSIRELSON]
    values = [r.chsh for r in iterate_swap_detailed(5, seed=123)]
    assert values == [TSIRELSON] * 5


def test_iterate_swap_all_depth2_paths():
    _, inst = povm_construction()
    for path in itertools.product(inst.labels, repeat=2):
        records = iterate_swap_detailed(2, outcome_path=path, inst=inst)
        assert [r.chsh for r in records] == [TSIRELSON] * 2


def shifted_corrections():
    """The negative control: b_k and a_k corrected as b_{k+1} and a_{k+1}."""
    good = standard_corrections()
    return {f"{f}{k}": good[f"{f}{(k + 1) % 4}"] for f in "ab" for k in range(4)}


def test_wrong_correction_table_breaks_the_protocol():
    _, inst = povm_construction()
    shifted = shifted_corrections()
    values = [r.chsh for r in iterate_swap_detailed(1, outcome_path=["b1"], corrections=shifted)]
    assert values[0] != TSIRELSON
    trace = entanglement_swap(inst, corrections=shifted)
    phi = bell_state()
    assert any(
        rec.chsh != TSIRELSON or rec.post.proportional_to(phi) is None
        for rec in trace.outcomes
    )


def gaussian_left_state(rng):
    """A non-zero two-qubit state with amplitudes in Q(i)."""
    while True:
        amps = tuple(
            CycloNum(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0,
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0)
            for _ in range(4)
        )
        if any(not a.is_zero() for a in amps):
            return PureState(amps)


def test_every_swap_record_has_the_chsh_of_its_own_post_state():
    """The swap evaluates CHSH once per post-state ray; every record must
    still carry exactly the value computed from its own post state."""
    _, inst = povm_construction()
    settings = tsirelson_settings()
    rng = random.Random(1313)
    doubled = standard_corrections()
    doubled["b1"] = ("2X", pauli(1).scale(2))  # not unitary, same ray as X
    cases = [(standard_corrections(), bell_state())]
    cases += [(standard_corrections(), gaussian_left_state(rng)) for _ in range(24)]
    cases += [(shifted_corrections(), bell_state()), (doubled, bell_state())]
    cases += [(shifted_corrections(), gaussian_left_state(rng)) for _ in range(4)]
    for corrections, left in cases:
        trace = entanglement_swap(inst, corrections, left=left)
        assert len(trace.outcomes) == 8
        for rec in trace.outcomes:
            assert rec.chsh == chsh_value(rec.post, settings)


@pytest.mark.parametrize("corrections,calls", [
    (standard_corrections(), 1),
    (shifted_corrections(), 3),
])
def test_one_swap_miss_evaluates_chsh_once_per_post_ray(monkeypatch, corrections, calls):
    seen = []

    def counting(state, settings):
        seen.append(state)
        return chsh_value(state, settings)

    monkeypatch.setattr(quantum, "chsh_value", counting)
    quantum._swap_cached.cache_clear()
    _, inst = povm_construction()
    left = gaussian_left_state(random.Random(1314))
    trace = entanglement_swap(inst, corrections, left=left)
    assert len(seen) == calls
    assert len({rec.chsh for rec in trace.outcomes}) <= calls
    entanglement_swap(inst, corrections, left=left)  # a cache hit evaluates nothing
    assert len(seen) == calls


def test_the_swap_cache_stays_bounded_on_fresh_states_and_hits_on_a_chain():
    quantum._swap_cached.cache_clear()
    _, inst = povm_construction()
    rng = random.Random(2718)
    for _ in range(40):  # fresh states never repeat, so every call misses
        entanglement_swap(inst, left=gaussian_left_state(rng))
    info = quantum._swap_cached.cache_info()
    assert info.hits == 0 and info.currsize == info.maxsize < 40
    iterate_swap_detailed(50, seed=3)
    assert quantum._swap_cached.cache_info().hits > info.hits


def general_state(rng, dim):
    """A non-zero state whose amplitudes use all four zeta powers."""
    while True:
        amps = tuple(
            CycloNum(*(Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(4)))
            for _ in range(dim)
        )
        if any(not a.is_zero() for a in amps):
            return PureState(amps)


def dense_pair_measurement(v, w):
    """The reference: <w| contracted with v x Phi built densely, on the last
    qubit of v and the first of Phi; entry 2x + t pairs full[8x + 2j + t]
    with w[j]."""
    full = tuple(a * b for a in v for b in bell_state().vector)
    return tuple(
        sum((w[j].conjugate() * full[8 * x + 2 * j + t] for j in range(4)), ZERO)
        for x in range(len(full) // 8) for t in range(2)
    )


def test_pair_operators_match_the_dense_pair_measurement():
    _, inst = povm_construction()
    corr_key = tuple(sorted(
        ((lbl, cl, m) for lbl, (cl, m) in standard_corrections().items()),
        key=lambda item: item[0]))
    plan = quantum._swap_plan(inst, corr_key)
    bras = []
    for m, (label, pair_op, *_) in zip(inst.kraus, plan):
        row = next(r for r in m.entries if any(not x.is_zero() for x in r))
        bras.append((tuple(x.conjugate() for x in row), pair_op))  # M = |u><w|
    bras += [(bk.vector, op) for bk, op in zip(quantum._BELL_BASIS, quantum._BELL_PAIR_OPERATORS)]
    assert len(bras) == 12
    rng = random.Random(4242)
    qubits = [general_state(rng, 2) for _ in range(6)] + [general_qubit()]
    pairs = [general_state(rng, 4) for _ in range(6)]
    assert any(not inner(s.vector, s.vector).is_rational() for s in qubits + pairs)
    for w, pair_op in bras:
        for q in qubits:
            assert pair_op.apply(q.vector) == dense_pair_measurement(q.vector, w)
        for left in pairs:
            v = left.vector
            assert pair_op.apply(v[:2]) + pair_op.apply(v[2:]) == dense_pair_measurement(v, w)


def test_the_swap_plan_is_built_once_for_fresh_states():
    quantum._swap_plan.cache_clear()
    quantum._swap_cached.cache_clear()
    _, inst = povm_construction()
    rng = random.Random(4243)
    for _ in range(40):
        entanglement_swap(inst, left=general_state(rng, 4))
    assert quantum._swap_plan.cache_info().misses == 1
    assert quantum._swap_cached.cache_info().misses == 40


@pytest.mark.parametrize("label", ["b0", "a2", "a3"])
def test_a_zero_correction_still_raises_zero_state(label):
    _, inst = povm_construction()
    corrections = standard_corrections()
    corrections[label] = ("Z0", ExactMatrix.zeros(2, 2))
    with pytest.raises(ZeroState):
        entanglement_swap(inst, corrections)


def test_a_state_built_from_a_list_or_a_generator_is_a_tuple():
    amps = [ONE, ZERO, ZERO, ONE]
    expected = PureState(tuple(amps))
    for state in (PureState(amps), PureState(a for a in amps)):
        assert state == expected and hash(state) == hash(expected)
        assert type(state.vector) is tuple
    _, inst = povm_construction()
    assert entanglement_swap(inst, left=PureState(amps)) == entanglement_swap(inst, left=expected)


# ----------------------------------------------------------------------
# cocycle and group structure

def test_cocycle_defect_is_i():
    verify_cocycle()
    s = phase_gate()
    assert (s @ s) == pauli(3)
    assert (s @ s @ s @ s).is_identity()
    sx = pauli(1)
    assert sx @ s @ sx @ s == ExactMatrix.identity(2).scale(I)


_HALF_I = CycloNum(0, 0, Fraction(1, 2), 0)


@pytest.mark.parametrize("gate,message", [
    # the inverse phase gate: the defect flips to -i
    ((ONE, -I), "sigma_x S sigma_x S != i * identity"),
    # the defect is still 2 * i/2 = i, but S^3 is off the mark
    ((CycloNum(2), _HALF_I), "sigma_x S sigma_x != i * S^3"),
    # both cocycle laws hold, but S^2 = -sigma_z
    ((I, ONE), "S^2 != sigma_z"),
], ids=["inverse", "unbalanced", "sign"])
def test_cocycle_mismatch_is_detected(monkeypatch, gate, message):
    from repcheck.quantum import CocycleMismatch

    monkeypatch.setattr(quantum, "phase_gate", lambda: ExactMatrix.diag(gate))
    with pytest.raises(CocycleMismatch, match=f"^{re.escape(message)}$"):
        quantum.verify_cocycle()


def test_swap_rejects_entangling_instrument():
    # a single identity Kraus is complete but leaves the middle pair
    # entangled with the outer one; only rank-one instruments are supported
    inst = Instrument(labels=("id",), kraus=(ExactMatrix.identity(4),))
    corrections = {"id": ("I", pauli(0))}
    with pytest.raises(IncompleteInstrument):
        entanglement_swap(inst, corrections=corrections)
    # complete, but each projector has rank two: P = |00><00| + |01><01|
    p = ExactMatrix.diag([1, 1, 0, 0])
    inst = Instrument(labels=("P", "Q"), kraus=(p, ExactMatrix.identity(4) - p))
    corrections = {"P": ("I", pauli(0)), "Q": ("I", pauli(0))}
    with pytest.raises(IncompleteInstrument):
        entanglement_swap(inst, corrections=corrections)


def test_correction_group_is_d4_mod_phases():
    iso = correction_group_check()
    assert verify_hom(iso)
    assert iso.target == builtin_group("D4")
    src = iso.source
    assert src.order == 8
    assert src.element_order(src.element_words.index("S")) == 4
    assert src.element_order(src.element_words.index("X")) == 2


def test_a_sign_flipped_sigma_y_fails_the_correction_group(monkeypatch):
    """-sigma_y lies on sigma_y's ray, so both quotients are unchanged; only
    the 16 matrices i^k sigma_j against Pauli1's table see the sign.  After
    a warm battery the flip is new matrix content: derived again, and
    refused on every call."""
    assert _failures() == {}
    flipped = tuple(
        (lbl, (cl, m.scale(-ONE) if lbl == "b2" else m))
        for lbl, (cl, m) in quantum._STANDARD_CORRECTIONS
    )
    monkeypatch.setattr(quantum, "_STANDARD_CORRECTIONS", flipped)
    for _ in range(2):
        with pytest.raises(ValueError, match="do not multiply by Pauli1's table"):
            correction_group_check()
        assert _failures() == {
            "correction-group": "ValueError: the Pauli matrices do not multiply by Pauli1's table"}


@pytest.mark.parametrize("a,b,message", [
    ("S", "SX", "projective orders of [S], [X] are not (4, 2)"),
    ("X", "Z", "[X][S][X]^-1 != [S]^-1 in the correction quotient"),
], ids=["S-SX", "X-Z"])
def test_swapped_correction_labels_fail_the_correction_group(monkeypatch, a, b, message):
    """[SX] has order 2, and [Z] commutes with [S]: each label swap breaks
    the presentation the check reads by word."""
    swapped = {a: b, b: a}
    relabelled = tuple((lbl, (swapped.get(cl, cl), m)) for lbl, (cl, m) in quantum._STANDARD_CORRECTIONS)
    monkeypatch.setattr(quantum, "_STANDARD_CORRECTIONS", relabelled)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        correction_group_check()


def _failures():
    """check name -> FAIL detail of each failing verify-all check."""
    from repcheck import verify

    return {r.name: r.detail for r in verify.run_all() if not r.ok}


def _warm_twice():
    """Two warm batteries: every memo, slot and cached answer is filled."""
    assert _failures() == {}
    assert _failures() == {}


def _not_scalar(what, weight, bound):
    return f"{what}: the corrected map is not lambda * 1 with |lambda|^2 * {weight} = {bound}"


def test_every_corrected_map_is_a_scalar_of_the_stated_modulus():
    half, quarter = CycloNum(Fraction(1, 2)), CycloNum(Fraction(1, 4))
    assert quantum.teleport_scalars() == {str(k): half for k in range(4)}
    _, inst = povm_construction()
    assert quantum.swap_scalars() == {
        lbl: -I * quarter if lbl[1] == "2" else quarter for lbl in inst.labels
    }


def test_rotated_pair_operators_fail_the_teleport_proof_and_check(monkeypatch):
    """sigma_0 B_1 = B_1 is sigma_1 / 2, no scalar.  The proof reads the
    operators on every call, so after warm batteries the rotated tuple is
    refused on every call."""
    _warm_twice()
    ops = quantum._BELL_PAIR_OPERATORS
    monkeypatch.setattr(quantum, "_BELL_PAIR_OPERATORS", ops[1:] + ops[:1])
    message = _not_scalar("teleport outcome 0", 1, "1/4")
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quantum.teleport_scalars()
        assert _failures() == {"teleport": f"ValueError: {message}"}


def test_a_correction_scaled_by_two_fails_the_swap_proof_and_check(monkeypatch):
    """|2 lambda|^2 <u|u> is 1/2: the post state is off the input's norm, so
    the proof fails, although CHSH, blind to a scalar, still holds.  The
    proof reads the key on every call, so after warm batteries the scaled
    key is refused on every call."""
    _warm_twice()
    key = tuple((lbl, cl, m.scale(2) if lbl == "a0" else m) for lbl, cl, m in quantum._STANDARD_KEY)
    monkeypatch.setattr(quantum, "_STANDARD_KEY", key)
    message = _not_scalar("swap outcome a0", 2, "1/8")
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quantum.swap_scalars()
        assert _failures() == {"entanglement-swap": f"ValueError: {message}"}


def test_a_phase_on_a_correction_keeps_the_swap_proof(monkeypatch):
    """-sigma_y corrects b2 as well as sigma_y does: only its lambda turns."""
    key = tuple((lbl, cl, m.scale(-ONE) if lbl == "b2" else m) for lbl, cl, m in quantum._STANDARD_KEY)
    monkeypatch.setattr(quantum, "_STANDARD_KEY", key)
    assert quantum.swap_scalars()["b2"] == I * CycloNum(Fraction(1, 4))


def test_a_non_unitary_correction_fails_hs_unitarity(monkeypatch):
    """A matrix keeps its is_unitary answer, so after warm batteries the
    doubled matrix is new content, refused on every battery."""
    _warm_twice()
    doubled = tuple(
        (lbl, (cl, m.scale(2) if lbl == "a1" else m)) for lbl, (cl, m) in quantum._STANDARD_CORRECTIONS
    )
    monkeypatch.setattr(quantum, "_STANDARD_CORRECTIONS", doubled)
    for _ in range(2):
        assert _failures() == {
            "hs-unitarity": "CheckFailed: the correction of outcome a1 is not unitary",
            "correction-group": "ValueError: seed SX is not unitary",
        }


def test_a_third_warm_battery_derives_no_protocol_fact_again(monkeypatch):
    """is_unitary and is_complete each multiply matrices only the first time
    they see their matrix or instrument."""
    _warm_twice()
    inside, seen, products = [], set(), []

    def tracking(name, fn):
        def wrapper(*args, **kwargs):
            seen.add(name)
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    matmul = ExactMatrix.__matmul__

    def counting(self, other):
        if inside:
            products.append(inside[-1])
        return matmul(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting)
    monkeypatch.setattr(ExactMatrix, "is_unitary", tracking("is_unitary", ExactMatrix.is_unitary))
    monkeypatch.setattr(Instrument, "is_complete", tracking("is_complete", Instrument.is_complete))
    assert _failures() == {}
    assert seen == {"is_unitary", "is_complete"}
    assert products == []


@pytest.mark.parametrize("inst,corrections,error,message", [
    ((1, 2), None, TypeError, "iterate_swap_detailed needs an Instrument, got tuple"),
    (None, {"b0": ("I", pauli(0))}, ValueError,
     "corrections lack outcome labels ['b1', 'b2', 'b3', 'a0', 'a1', 'a2', 'a3']; "
     "the instrument's labels are ['b0', 'b1', 'b2', 'b3', 'a0', 'a1', 'a2', 'a3']"),
    (None, dict(standard_corrections(), b1=("X", ExactMatrix.identity(3))), ValueError,
     "the correction of outcome b1 is 3x3, not 2x2"),
    (None, {lbl: (cl, ExactMatrix.identity(3)) for lbl, (cl, _) in standard_corrections().items()
            if lbl != "a3"}, ValueError,
     "corrections lack outcome labels ['a3']; "
     "the instrument's labels are ['b0', 'b1', 'b2', 'b3', 'a0', 'a1', 'a2', 'a3']"),
], ids=["not-an-instrument", "lacks-labels", "3x3", "lacks-a-label-before-3x3"])
def test_iterate_swap_checks_its_arguments_before_any_round(monkeypatch, inst, corrections, error, message):
    """The chain checks its instrument and corrections once, with the swap's
    own messages in the swap's order, and runs no round when they fail."""
    rounds = []
    monkeypatch.setattr(quantum, "_swap_cached", lambda *args: rounds.append(args))
    for _ in range(2):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            iterate_swap_detailed(3, outcome_path=["b0"] * 3, inst=inst, corrections=corrections)
        if inst is None:  # the single swap gives the same message
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                entanglement_swap(povm_construction()[1], corrections)
    assert rounds == []


@pytest.mark.parametrize("fault,message", [
    (lambda r: {"post": r.conditional}, "outcome 1's output is not lambda times its input"),
    (lambda r: {"probability": r.probability / 2}, "outcome 0's probability is not 1/4"),
    (lambda r: {"label": f"b{r.label}"}, "outcomes differ from the proof's"),
], ids=["uncorrected", "halved-probability", "relabelled"])
def test_a_fault_in_teleports_own_code_fails_the_teleport_check(monkeypatch, fault, message):
    """The operators stay whole, so only the runs can see it: uncorrected,
    outcome 1's output B_1 |0> = |1>/2 is off the input's ray."""
    from repcheck import verify

    def faulty(state):
        return quantum.ProtocolTrace(tuple(
            quantum.OutcomeRecord(**{**vars(r), **fault(r)}) for r in teleport(state).outcomes
        ))

    monkeypatch.setattr(verify, "teleport", faulty)
    assert _failures() == {"teleport": f"CheckFailed: {message}"}


def test_a_wrong_bell_state_fails_the_partial_trace_identity(monkeypatch):
    from repcheck import verify

    monkeypatch.setattr(verify, "bell_state", lambda: PureState((ONE, ZERO, ZERO, ZERO)))
    with pytest.raises(verify.CheckFailed, match="^fails on E_00$"):
        verify._check_partial_trace_identity()


def test_matrix_group_mod_phases_refuses_bad_seed_sets():
    x, s = pauli(1), phase_gate()
    with pytest.raises(ValueError, match="not unitary"):
        matrix_group_mod_phases([("I", pauli(0)), ("2X", x.scale(2))], "bad")
    # X and iX are one ray; every product still lies on a seed's ray
    with pytest.raises(ValueError, match="one element"):
        matrix_group_mod_phases([("I", pauli(0)), ("X", x), ("iX", x.scale(I))], "bad")
    # S*S = Z lies on neither ray
    with pytest.raises(ValueError, match="^bad: a product escapes the set$"):
        matrix_group_mod_phases([("I", pauli(0)), ("S", s)], "bad")
    # a first seed off the identity's ray: the walk still ends, and the
    # table, the same as from all pairs, has no identity at 0
    with pytest.raises(GroupError, match="^bad: element 0 is not a two-sided identity$"):
        matrix_group_mod_phases([("X", x), ("I", pauli(0))], "bad")


_PAIRS = "a tuple or list of (str, ExactMatrix) pairs, got"


@pytest.mark.parametrize("seeds,name,message", [
    ((1, 2), "x", f"{_PAIRS} a tuple holding int"),
    ("IX", "x", f"{_PAIRS} str"),
    ([("I", pauli(0)), ["X", pauli(1)]], "x", f"{_PAIRS} a list holding list"),
    ([(0, pauli(0))], "x", f"{_PAIRS} a list holding tuple"),
    ([("I", pauli(0))], ["x"], "a str, got list"),
], ids=["ints", "str", "list-pair", "int-label", "list-name"])
def test_matrix_group_mod_phases_refuses_wrong_types(seeds, name, message):
    with pytest.raises(TypeError, match=f"^matrix_group_mod_phases needs {re.escape(message)}$"):
        matrix_group_mod_phases(seeds, name)


def test_each_matrix_group_fact_is_derived_once_per_content():
    """A table and a conjugation character are memoized on the matrices
    they are built from, and take a list as well as a tuple; the D8 lift is
    built on every call, the same each time."""
    words, mats = ["I", "X"], [pauli(0), pauli(1)]
    table = quantum._table("pair", words, mats, ray_key)
    assert quantum._table("pair", tuple(words), tuple(mats), ray_key) is table
    assert quantum._table("pair", words, [pauli(0), pauli(1).scale(I)], ray_key) is not table
    assert lifted_correction_rep_on_d8() == lifted_correction_rep_on_d8()
    k4 = builtin_group("K4")
    chi = conj_rep_character_from_matrices(k4, list(pauli_rep_on_k4()))
    assert conj_rep_character_from_matrices(k4, pauli_rep_on_k4()) is chi


def test_a_scaled_d8_lift_after_a_warm_battery_is_refused_on_every_call(monkeypatch):
    from repcheck import verify

    assert _failures() == {}
    mats = lifted_correction_rep_on_d8()
    scaled = (mats[0], mats[1].scale(2)) + mats[2:]
    monkeypatch.setattr(verify, "lifted_correction_rep_on_d8", lambda: scaled)
    message = "conjugation character is not constant on the class of z"
    for _ in range(2):
        with pytest.raises(NotProjectiveRep, match=f"^{message}$"):
            conj_rep_character_from_matrices(builtin_group("D8"), list(scaled))
        assert _failures() == {"matrix-vs-table-conjugation": f"NotProjectiveRep: {message}"}


def test_a_changed_phase_gate_is_a_new_d8_lift(monkeypatch):
    """The lift reads S on every call, not once per process."""
    lifted_correction_rep_on_d8()
    monkeypatch.setattr(quantum, "_S", phase_gate().scale(2))
    assert lifted_correction_rep_on_d8()[1] == phase_gate()
    with pytest.raises(NotProjectiveRep, match="^conjugation character is not constant on the class of z$"):
        conj_rep_character_from_matrices(builtin_group("D8"), lifted_correction_rep_on_d8())


def _seed_sets():
    """(name, words, matrices, key) of the three tables correction_group_check builds."""
    seeds = [seed for _, seed in quantum._STANDARD_CORRECTIONS]
    p1 = builtin_group("Pauli1")
    paulis = [m.scale(phase) for _, m in seeds[:4] for phase in (ONE, I, -ONE, -I)]
    return [
        ("corrections/phases", [w for w, _ in seeds], [m for _, m in seeds], ray_key),
        ("PauliMatrices", p1.element_words, paulis, lambda m: m),
        ("paulis/phases", [w for w, _ in seeds[:4]], [m for _, m in seeds[:4]], ray_key),
    ]


@pytest.mark.parametrize("name,words,mats,key", _seed_sets(),
                         ids=["corrections", "pauli-matrices", "paulis"])
def test_the_table_builder_matches_the_all_pairs_products(name, words, mats, key):
    """Oracle: every product a @ b looked up by key.  The builder multiplies
    only for the first seed's and the generators' columns."""
    index = {key(m): i for i, m in enumerate(mats)}
    all_pairs = tuple(tuple(index[key(a @ b)] for b in mats) for a in mats)
    assert quantum._table(name, words, mats, key).mul_table == all_pairs


_SHEAR = ExactMatrix([[1, 1], [0, 1]])


@pytest.mark.parametrize("name,mats", [("K4", pauli_rep_on_k4()), ("D8", lifted_correction_rep_on_d8())])
def test_a_non_monomial_matrix_at_any_element_is_not_projective(name, mats):
    """The law is checked with e and each generator on the left only; a shear
    in place of any one matrix, generator or not, must still be caught."""
    g = builtin_group(name)
    assert [g.word(s) for s in g._gens] == {"K4": ["a", "b"], "D8": ["z", "h"]}[name]
    for k in g.elements():
        broken = mats[:k] + (_SHEAR,) + mats[k + 1:]
        with pytest.raises(NotProjectiveRep, match=r"^U\[\w+\] U\[\w+\] is not proportional to U\[\w+\]$"):
            conj_rep_character_from_matrices(g, broken)


def test_pvm_counting_line():
    line = pvm_counting_check()
    assert "4" in line and "8" in line and "Naimark" in line


def test_conj_rep_character_from_pauli_assignment():
    k4 = builtin_group("K4")
    got = conj_rep_character_from_matrices(k4, pauli_rep_on_k4())
    assert [v.as_int() for v in got.values] == [4, 0, 0, 0]


def test_conj_rep_character_from_d8_lift():
    d8 = builtin_group("D8")
    got = conj_rep_character_from_matrices(d8, lifted_correction_rep_on_d8())
    e1 = char_table(d8).by_label("chiE1")
    assert got == conj_character(e1)
    assert [v.as_int() for v in got.values] == [4, 2, 0, 2, 4, 0, 0]


def test_conjugation_trace_is_the_squared_modulus_of_the_trace():
    """tr(U x conj U) = |tr U|^2, the identity conj_rep_character_from_matrices
    reads each value by: over the 4 Paulis, the 8 corrections and the 16 D8
    lifts."""
    mats = [pauli(k) for k in range(4)]
    mats += [m for _, m in standard_corrections().values()]
    mats += lifted_correction_rep_on_d8()
    assert len(mats) == 28
    for u in mats:
        assert u.tensor(u.conj()).trace() == u.trace().abs_sq()


def test_conj_rep_character_of_one_dimensional_rep():
    z4 = builtin_group("Z4")
    mats = tuple(ExactMatrix([[i_k]]) for i_k in (ONE, I, -ONE, -I))
    got = conj_rep_character_from_matrices(z4, mats)
    assert all(v == ONE for v in got.values)


def test_conj_rep_rejects_non_projective_assignment():
    k4 = builtin_group("K4")
    broken = (pauli(0), pauli(1), pauli(2), pauli(0))
    with pytest.raises(NotProjectiveRep):
        conj_rep_character_from_matrices(k4, broken)
    # 2 U[z] keeps every ray, so the projective law holds, but |tr 2S|^2 = 8
    # while the conjugate z^7 = S^-1 still gives 2
    mats = lifted_correction_rep_on_d8()
    scaled = (mats[0], mats[1].scale(2)) + mats[2:]
    with pytest.raises(NotProjectiveRep, match="^conjugation character is not constant on the class of z$"):
        conj_rep_character_from_matrices(builtin_group("D8"), scaled)


def test_conj_rep_rejects_zero_matrices_and_zero_products():
    k4, zero = builtin_group("K4"), ExactMatrix.zeros(2, 2)
    with pytest.raises(NotProjectiveRep, match=r"U\[e\] is the zero matrix"):
        conj_rep_character_from_matrices(k4, (zero,) * 4)
    with pytest.raises(NotProjectiveRep, match=r"U\[b\] is the zero matrix"):
        conj_rep_character_from_matrices(k4, (pauli(0), pauli(1), zero, pauli(3)))
    # E11 E22 = 0 lies on no ray, so it is not proportional to U[t3] = E22
    e11, e22 = ExactMatrix([[1, 0], [0, 0]]), ExactMatrix([[0, 0], [0, 1]])
    with pytest.raises(NotProjectiveRep, match=r"U\[e\] U\[t3\] is not proportional"):
        conj_rep_character_from_matrices(builtin_group("Z4"), (e11, e11, e11, e22))


# ----------------------------------------------------------------------
# exactness properties

def test_conjugation_preserves_hs_inner_product():
    corrections = [m for _, (_, m) in standard_corrections().items()]
    for u in corrections:
        for _ in range(3):
            x = rand_2x2()
            y = rand_2x2()
            assert hs_inner(u @ x @ u.dagger(), u @ y @ u.dagger()) == hs_inner(x, y)


def rand_2x2():
    return ExactMatrix(
        [[CycloNum(Fraction(RNG.randint(-4, 4), RNG.randint(1, 3)),
                   0, Fraction(RNG.randint(-4, 4), RNG.randint(1, 3)), 0)
          for _ in range(2)] for _ in range(2)]
    )


def test_partial_trace_identity_on_random_matrices():
    phi = bell_state()
    eye = ExactMatrix.identity(2)
    half = CycloNum(Fraction(1, 2))
    for _ in range(20):
        m = rand_2x2()
        got = inner(phi.vector, m.tensor(eye).apply(phi.vector))
        assert got == half * m.trace()


def test_tsirelson_float_embedding():
    assert abs(TSIRELSON.to_complex() - 2.8284271247461903) < 1e-12
