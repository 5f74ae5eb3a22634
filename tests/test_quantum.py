"""Teleportation, the POVM swap protocol, and the structure checks."""

import dataclasses
import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from repcheck.characters import char_table, conj_character
from repcheck.cyclo import CycloNum, I, INV_SQRT2, ONE, SQRT2, ZERO
from repcheck.groups import builtin_group, verify_hom
from repcheck.matrices import ExactMatrix, hs_inner, vec_inner
from repcheck.quantum import (
    IncompleteInstrument,
    Instrument,
    NotDichotomic,
    NotProjectiveRep,
    PAULI_LABELS,
    PureState,
    TSIRELSON,
    ZeroState,
    bell_basis,
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
    b = bell_basis()
    half = INV_SQRT2
    assert b[0].vector == (half, ZERO, ZERO, half)
    assert b[1].vector == (ZERO, half, half, ZERO)
    assert b[2].vector == (ZERO, -I * half, I * half, ZERO)
    assert b[3].vector == (half, ZERO, ZERO, -half)


def test_bell_basis_gram_matrix_is_identity():
    b = bell_basis()
    for j in range(4):
        for k in range(4):
            expected = ONE if j == k else ZERO
            assert b[j].inner(b[k]) == expected


def test_bell_basis_is_the_same_on_every_call():
    first = bell_basis()
    assert bell_basis() == first


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
    assert vec_inner(phi.vector, zz.apply(phi.vector)) == ONE


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
    return PureState((ONE + CycloNum.zeta(1), ONE))


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
    projectors = [outer_state(b) for b in bell_basis()]
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


def test_wrong_correction_table_breaks_the_protocol():
    # negative control: shift sigma_k to sigma_{k+1}
    _, inst = povm_construction()
    good = standard_corrections()
    shifted = {}
    for k in range(4):
        shifted[f"b{k}"] = good[f"b{(k + 1) % 4}"]
        shifted[f"a{k}"] = good[f"a{(k + 1) % 4}"]
    values = [r.chsh for r in iterate_swap_detailed(1, outcome_path=["b1"], corrections=shifted)]
    assert values[0] != TSIRELSON
    trace = entanglement_swap(inst, corrections=shifted)
    phi = bell_state()
    assert any(
        rec.chsh != TSIRELSON or rec.post.proportional_to(phi) is None
        for rec in trace.outcomes
    )


# ----------------------------------------------------------------------
# cocycle and group structure

def test_cocycle_defect_is_i():
    assert verify_cocycle() == I
    s = phase_gate()
    assert (s @ s) == pauli(3)
    assert (s @ s @ s @ s).is_identity()
    sx = pauli(1)
    assert sx @ s @ sx @ s == ExactMatrix.identity(2).scale(I)


def test_cocycle_mismatch_is_detected(monkeypatch):
    import repcheck.quantum as quantum
    from repcheck.quantum import CocycleMismatch

    # replace the phase gate by its inverse: the defect flips to -i
    monkeypatch.setattr(quantum, "phase_gate", lambda: ExactMatrix.diag([ONE, -I]))
    with pytest.raises(CocycleMismatch):
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


def test_matrix_group_mod_phases_refuses_bad_seed_sets():
    x, s = pauli(1), phase_gate()
    with pytest.raises(ValueError, match="not unitary"):
        matrix_group_mod_phases([("I", pauli(0)), ("2X", x.scale(2))], "bad")
    # X and iX are one ray; every product still lies on a seed's ray
    with pytest.raises(ValueError, match="one element"):
        matrix_group_mod_phases([("I", pauli(0)), ("X", x), ("iX", x.scale(I))], "bad")
    # S*S = Z lies on neither ray
    with pytest.raises(ValueError, match="escapes"):
        matrix_group_mod_phases([("I", pauli(0)), ("S", s)], "bad")


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


def test_conj_rep_character_of_one_dimensional_rep():
    z4 = builtin_group("Z4")
    mats = tuple(ExactMatrix([[I ** k]]) for k in range(4))
    got = conj_rep_character_from_matrices(z4, mats)
    assert all(v == ONE for v in got.values)


def test_conj_rep_rejects_non_projective_assignment():
    k4 = builtin_group("K4")
    broken = (pauli(0), pauli(1), pauli(2), pauli(0))
    with pytest.raises(NotProjectiveRep):
        conj_rep_character_from_matrices(k4, broken)


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
        got = vec_inner(phi.vector, m.tensor(eye).apply(phi.vector))
        assert got == half * m.trace()


def test_tsirelson_float_embedding():
    assert abs(TSIRELSON.to_complex() - 2.8284271247461903) < 1e-12
