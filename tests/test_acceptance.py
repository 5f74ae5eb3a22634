"""Acceptance gate: one test per pinned criterion, all exact (no tolerances
except the single float-embedding sanity bound of 1e-12).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools
import random
from fractions import Fraction

from repcheck.characters import (
    char_table,
    conj_character,
    decompose,
    inner_product,
    pullback,
    push_to_quotient,
    trivial_character,
)
from repcheck.classify import classify_all, family_by_name
from repcheck.cyclo import CycloNum, I, ONE, inner
from repcheck.groups import BUILTIN_NAMES, builtin_group, central_quotient, verify_hom
from repcheck.matrices import ExactMatrix, hs_inner
from repcheck.quantum import (
    PureState,
    TSIRELSON,
    bell_state,
    chsh_value,
    conj_rep_character_from_matrices,
    correction_group_check,
    entanglement_swap,
    iterate_swap_detailed,
    lifted_correction_rep_on_d8,
    pauli,
    pauli_rep_on_k4,
    phase_gate,
    povm_construction,
    standard_corrections,
    teleport,
    tsirelson_settings,
)

D4 = builtin_group("D4")
T4 = char_table(D4)


def _passed(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_classification():
    """Realizable = {K4_1234, D4_125}; the other five obstructed with the
    pinned obstruction kinds.  Exact match, zero tolerance."""
    verdicts = {v.family.name: v for v in classify_all()}
    assert [n for n, v in verdicts.items() if v.realizable] == ["K4_1234", "D4_125"]
    required = {
        "Z4_1234": {"AbelianFixedProjectors"},
        "D4_135": {"ParityOfChi5", "ReflectionVanishing"},
        "D4_145": {"ParityOfChi5", "ReflectionVanishing"},
        "D4_12345": {"DimensionBound"},
        "D4_123452": {"DimensionBound"},
    }
    for name, kinds in required.items():
        got = {rec.kind.value for rec in verdicts[name].obstructions}
        assert kinds <= got, (name, got)
        assert not verdicts[name].realizable
    for name in ("K4_1234", "D4_125"):
        assert verdicts[name].obstructions == ()
    _passed(1, "classify -> realizable {K4_1234, D4_125}; obstruction kinds match")


def test_criterion_2_trivial_class_steps():
    """conj(chi5) = (4,0,4,0,0) decomposing to (1,1,1,1,0).  Exact."""
    cchi = conj_character(T4.by_label("chi5"))
    assert list(cchi.values) == [CycloNum(4), CycloNum(0), CycloNum(4), CycloNum(0), CycloNum(0)]
    assert decompose(cchi, T4) == (1, 1, 1, 1, 0)
    _passed(2, "conj(chi5) = (4,0,4,0,0) -> chi1+chi2+chi3+chi4")


def test_criterion_3_nontrivial_class_steps():
    """Pushed conj(chiE1) = (4,2,0,0,0) decomposing to (1,1,0,0,1); chiE3
    gives the identical result.  Exact."""
    t8 = char_table(builtin_group("D8"))
    results = []
    for label in ("chiE1", "chiE3"):
        pushed = push_to_quotient(conj_character(t8.by_label(label)))
        assert list(pushed.values) == [
            CycloNum(4), CycloNum(2), CycloNum(0), CycloNum(0), CycloNum(0)
        ]
        assert decompose(pushed, T4) == (1, 1, 0, 0, 1)
        results.append(pushed)
    assert results[0] == results[1]
    _passed(3, "pushed conj(chiE1) = conj(chiE3) = (4,2,0,0,0) -> chi1+chi2+chi5")


def test_criterion_4_multiplicity_sweep():
    """<trivial, conj(chi_U)> = sum n_i^2 for every chi_U of total degree
    <= 6, hitting the worked cases m1 in {4, 2, 1}."""
    triv = trivial_character(D4)
    seen = set()
    count = 0
    for ns in itertools.product(range(7), range(7), range(7), range(7), range(4)):
        deg = ns[0] + ns[1] + ns[2] + ns[3] + 2 * ns[4]
        if deg == 0 or deg > 6:
            continue
        chi_u = None
        for n, chi in zip(ns, T4.irreducibles):
            for _ in range(n):
                chi_u = chi if chi_u is None else chi_u + chi
        expected = sum(n * n for n in ns)
        assert inner_product(triv, conj_character(chi_u)) == CycloNum(expected), ns
        seen.add(expected)
        count += 1
    assert {1, 2, 4} <= seen
    _passed(4, f"m1 = sum n_i^2 exactly for all {count} characters of degree <= 6")


def test_criterion_5_tsirelson_value():
    """CHSH of the Bell state at the pinned settings is 2*sqrt2, the
    coefficient tuple (0, 2, 0, -2); float embedding within 1e-12."""
    value = chsh_value(bell_state(), tsirelson_settings())
    assert value == TSIRELSON
    assert value.coeffs == (Fraction(0), Fraction(2), Fraction(0), Fraction(-2))
    assert abs(value.to_complex() - 2.8284271247461903) < 1e-12
    _passed(5, "CHSH(bell) = 2*sqrt2 = (0,2,0,-2) in the zeta basis; float ok")


def test_criterion_6_teleportation():
    """100 random rational states: each outcome probability exactly 1/4 and
    each corrected output proportional to the input."""
    rng = random.Random(424242)

    def rand_state():
        while True:
            amps = tuple(
                CycloNum(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         0, Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0)
                for _ in range(2)
            )
            if any(not a.is_zero() for a in amps):
                return PureState(amps)

    quarter = Fraction(1, 4)
    for _ in range(100):
        state = rand_state()
        trace = teleport(state)
        assert trace.total_probability() == 1
        for rec in trace.outcomes:
            assert rec.probability == quarter
            scalar = rec.post.proportional_to(state)
            assert scalar is not None and not scalar.is_zero()
    _passed(6, "100 random states teleported: probabilities 1/4, rays restored")


def test_criterion_7_povm_swap_protocol():
    """Effects sum to the identity, Kraus complete, all 8 outcomes at 1/8
    with corrected CHSH 2*sqrt2; chaining holds it over all depth-2 paths
    and 20 seeded depth-5 paths."""
    effects, inst = povm_construction()
    total = ExactMatrix.zeros(4, 4)
    for e in effects:
        total = total + e.matrix
    assert total.is_identity()
    assert inst.is_complete()

    trace = entanglement_swap(inst)
    phi = bell_state()
    for rec in trace.outcomes:
        assert rec.probability == Fraction(1, 8)
        scalar = rec.post.proportional_to(phi)
        assert scalar is not None and scalar.abs_sq() == ONE
        assert rec.chsh == TSIRELSON

    for path in itertools.product(inst.labels, repeat=2):
        records = iterate_swap_detailed(2, outcome_path=path, inst=inst)
        assert [r.chsh for r in records] == [TSIRELSON] * 2
    for seed in range(20):
        assert [r.chsh for r in iterate_swap_detailed(5, seed=seed, inst=inst)] == [TSIRELSON] * 5
    _passed(7, "POVM complete; 8 outcomes at 1/8; CHSH 2*sqrt2 through depth-5 chains")


def test_criterion_8_cocycle_and_group_structure():
    """sx S sx S = i*1; corrections mod phases = D4 (explicit isomorphism);
    Paulis mod phases = K4; matrix- and table-level conjugation characters
    agree for both constructions."""
    s, sx = phase_gate(), pauli(1)
    assert sx @ s @ sx @ s == ExactMatrix.identity(2).scale(I)

    iso = correction_group_check()  # verifies both quotients internally
    assert verify_hom(iso) and iso.target == builtin_group("D4")

    k4 = builtin_group("K4")
    from_matrices = conj_rep_character_from_matrices(k4, pauli_rep_on_k4())
    assert from_matrices == family_by_name("K4_1234").target
    assert pullback(from_matrices, central_quotient(D4, k4)) == conj_character(
        T4.by_label("chi5")
    )
    d8 = builtin_group("D8")
    assert conj_rep_character_from_matrices(
        d8, lifted_correction_rep_on_d8()
    ) == conj_character(char_table(d8).by_label("chiE1"))
    _passed(8, "cocycle i*1; corrections/phases = D4; Paulis/phases = K4; characters agree")


def test_criterion_9_property_suite():
    """Schur orthogonality on all five tables; HS-unitarity of conjugation;
    the half-trace Bell identity; and the corrupted-correction control."""
    for name in BUILTIN_NAMES:
        g = builtin_group(name)
        t = char_table(g)  # load re-verifies rows and columns
        for i, a in enumerate(t.irreducibles):
            for j, b in enumerate(t.irreducibles):
                assert inner_product(a, b) == (ONE if i == j else CycloNum(0))

    rng = random.Random(7)

    def rand_m():
        return ExactMatrix(
            [[CycloNum(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       0, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), 0)
              for _ in range(2)] for _ in range(2)]
        )

    corrections = standard_corrections()
    for _, (_, u) in corrections.items():
        x, y = rand_m(), rand_m()
        assert hs_inner(u @ x @ u.dagger(), u @ y @ u.dagger()) == hs_inner(x, y)

    phi = bell_state()
    eye = ExactMatrix.identity(2)
    for _ in range(25):
        m = rand_m()
        got = inner(phi.vector, m.tensor(eye).apply(phi.vector))
        assert got == CycloNum(Fraction(1, 2)) * m.trace()

    _, inst = povm_construction()
    shifted = {}
    for k in range(4):
        shifted[f"b{k}"] = corrections[f"b{(k + 1) % 4}"]
        shifted[f"a{k}"] = corrections[f"a{(k + 1) % 4}"]
    broken_trace = entanglement_swap(inst, corrections=shifted)
    assert any(
        rec.chsh != TSIRELSON or rec.post.proportional_to(phi) is None
        for rec in broken_trace.outcomes
    )
    _passed(9, "orthogonality, HS-unitarity, half-trace identity, negative control")
