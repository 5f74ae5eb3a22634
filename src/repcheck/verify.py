"""Named runtime verification battery behind the CLI's verify-all command.

Each check re-derives a pinned fact from scratch and reports one line.
Everything here is an exact (equality) assertion; a corrupted table, a
wrong correction or a broken identity flips the corresponding check to
FAIL rather than passing silently.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    ProjectiveClassTag,
    char_table,
    combination,
    conj_character,
    decompose,
    inner_product,
    multiplicity_vectors,
    projective_irreps_d4,
    push_to_quotient,
    trivial_character,
)
from .classify import (
    classify_all,
    family_by_name,
    full_report,
    k4_target_pulled_to_d4,
    seven_families,
)
from .cyclo import CycloNum, ONE
from .groups import (
    BUILTIN_NAMES,
    builtin_group,
    center,
    conjugacy_classes,
    find_isomorphism,
    quotient,
    verify_hom,
)
from .matrices import ExactMatrix, hs_inner, vec_inner
from .quantum import (
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
    povm_construction,
    pvm_counting_check,
    standard_corrections,
    teleport,
    tsirelson_settings,
    verify_cocycle,
)

_RNG_SEED = 20260810


class CheckFailed(Exception):
    """A pinned fact of the battery does not hold."""


def _require(cond, *why) -> None:
    """Raise CheckFailed(*why) unless cond holds.

    Explicit, so the battery gives the same verdict under `python -O`; the
    message parts are only formatted when the check fails.
    """
    if not cond:
        raise CheckFailed(*why)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_cyclo(rng: random.Random) -> CycloNum:
    # random a + b*i with rational a, b
    return CycloNum(_rand_fraction(rng), 0, _rand_fraction(rng), 0)


def _rand_matrix(rng: random.Random, n: int) -> ExactMatrix:
    return ExactMatrix([[_rand_cyclo(rng) for _ in range(n)] for _ in range(n)])


# ----------------------------------------------------------------------
# individual checks (each raises on failure, returns a detail string)

def _check_group_tables() -> str:
    expected_classes = {"K4": 4, "Z4": 4, "D4": 5, "D8": 7, "Pauli1": 10}
    for name in BUILTIN_NAMES:
        g = builtin_group(name)
        cc = conjugacy_classes(g)
        _require(len(cc) == expected_classes[name], name)
        _require(sum(cc.sizes) == g.order)
        for size in cc.sizes:
            _require(g.order % size == 0, "class size must divide the group order")
    d4, d8, p1, k4 = (builtin_group(n) for n in ("D4", "D8", "Pauli1", "K4"))
    _require([d4.word(r) for r in conjugacy_classes(d4).representatives] == ["e", "r", "r2", "s", "rs"])
    _require(conjugacy_classes(d4).sizes == (1, 2, 1, 2, 2))
    _require(conjugacy_classes(d8).sizes == (1, 2, 2, 2, 1, 4, 4))
    _require([d4.word(x) for x in center(d4)] == ["e", "r2"])
    _require([d8.word(x) for x in center(d8)] == ["e", "z4"])
    _require(len(center(p1)) == 4)
    for big, small in ((d4, k4), (d8, d4), (p1, k4)):
        q, proj = quotient(big, center(big))
        _require(verify_hom(proj))
        find_isomorphism(q, small)
    return "5 groups verified; classes, centers and center-quotients as pinned"


def _check_character_tables() -> str:
    degrees = {}
    for name in BUILTIN_NAMES:
        t = char_table(builtin_group(name))  # orthogonality verified on load
        degrees[name] = t.degrees()
    _require(degrees["D4"] == (1, 1, 1, 1, 2))
    _require(degrees["D8"] == (1, 1, 1, 1, 2, 2, 2))
    return "row/column orthogonality and degree sums hold for all 5 tables"


def _check_multiplicity_sweep() -> str:
    d4 = builtin_group("D4")
    t = char_table(d4)
    triv = trivial_character(d4)
    seen_m1 = set()
    sweep = multiplicity_vectors(t.degrees(), 6)
    for ns in sweep:
        m1 = inner_product(triv, conj_character(combination(t.irreducibles, ns)))
        expected = sum(n * n for n in ns)
        _require(m1 == CycloNum(expected), ns, m1)
        seen_m1.add(expected)
    _require({1, 2, 4} <= seen_m1)
    return f"m1 = sum n_i^2 over {len(sweep)} characters of degree <= 6 (m1 hits 1, 2, 4)"


def _check_conj_steps() -> str:
    d4 = builtin_group("D4")
    t4 = char_table(d4)
    cj5 = conj_character(t4.by_label("chi5"))
    _require([v.as_int() for v in cj5.values] == [4, 0, 4, 0, 0])
    _require(decompose(cj5, t4) == (1, 1, 1, 1, 0))
    t8 = char_table(builtin_group("D8"))
    for label in ("chiE1", "chiE3"):
        pushed = push_to_quotient(conj_character(t8.by_label(label)))
        _require([v.as_int() for v in pushed.values] == [4, 2, 0, 0, 0], label)
        _require(decompose(pushed, t4) == (1, 1, 0, 0, 1), label)
    return "conj characters (4,0,4,0,0) -> (1,1,1,1,0) and (4,2,0,0,0) -> (1,1,0,0,1)"


_REQUIRED_KINDS = {
    "Z4_1234": {"AbelianFixedProjectors"},
    "D4_135": {"ParityOfChi5", "ReflectionVanishing"},
    "D4_145": {"ParityOfChi5", "ReflectionVanishing"},
    "D4_12345": {"DimensionBound"},
    "D4_123452": {"DimensionBound"},
}


def _check_classification() -> str:
    verdicts = classify_all()
    realizable = [v.family.name for v in verdicts if v.realizable]
    _require(realizable == ["K4_1234", "D4_125"], realizable)
    for v in verdicts:
        _require(v.realizable == (v.witness is not None) == (not v.obstructions))
        kinds = {rec.kind.value for rec in v.obstructions}
        _require(_REQUIRED_KINDS.get(v.family.name, set()) <= kinds, v.family.name, kinds)
    import json

    once = json.dumps(full_report(), sort_keys=True)
    twice = json.dumps(full_report(), sort_keys=True)
    _require(once == twice)
    return "realizable = {K4_1234, D4_125}; obstruction kinds as pinned; report deterministic"


def _check_brute_force_oracle() -> str:
    """Independently of the irreducibility shortcut, sweep ALL characters of
    both D4 projective classes up to the degree bound: only irreducibles
    ever hit a family target."""
    d4 = builtin_group("D4")
    t4 = char_table(d4)
    families = seven_families()
    targets_on_d4 = {}
    for f in families:
        if f.group.name == "D4":
            targets_on_d4[f.name] = f.target
        elif f.group.name == "K4":
            targets_on_d4[f.name] = k4_target_pulled_to_d4(f.target)

    nontrivial = tuple(chi for _, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL))
    sweeps = (
        ("trivial", t4.irreducibles, conj_character),
        ("non-trivial", nontrivial, lambda chi: push_to_quotient(conj_character(chi))),
    )
    matches = []
    for tag, irreps, conj in sweeps:
        for ns in multiplicity_vectors([chi.dimension() for chi in irreps], 4):
            cchi = conj(combination(irreps, ns))
            for fname, target in targets_on_d4.items():
                if cchi == target:
                    _require(sum(n * n for n in ns) == 1, f"reducible {tag} {ns} matched {fname}")
                    matches.append((f"{tag}:{ns}", fname))

    matched_families = sorted({fname for _, fname in matches})
    _require(matched_families == ["D4_125", "K4_1234"], matched_families)
    _require(len(matches) == 3)  # chi5, chiE1, chiE3
    return "exhaustive sweep: only chi5, chiE1, chiE3 hit any family; no reducible ever does"


def _check_tsirelson() -> str:
    value = chsh_value(bell_state(), tsirelson_settings())
    _require(value == TSIRELSON)
    _require(value.coeffs == (0, 2, 0, -2))
    _require(abs(value.to_complex() - 2.8284271247461903) < 1e-12)
    zz = pauli(3).tensor(pauli(3))
    phi = bell_state()
    _require(vec_inner(phi.vector, zz.apply(phi.vector)) == ONE)
    return "CHSH(bell, tsirelson settings) = 2*sqrt2 exactly; float embedding within 1e-12"


def _check_teleport(n_states: int = 100) -> str:
    rng = random.Random(_RNG_SEED)
    quarter = Fraction(1, 4)
    for _ in range(n_states):
        amps = [_rand_cyclo(rng), _rand_cyclo(rng)]
        if all(a.is_zero() for a in amps):
            amps[0] = ONE
        state = PureState(tuple(amps))
        trace = teleport(state)
        _require(trace.total_probability() == 1)
        for rec in trace.outcomes:
            _require(rec.probability == quarter)
            scalar = rec.post.proportional_to(state)
            _require(scalar is not None and not scalar.is_zero())
    return f"{n_states} random rational states: probabilities exactly 1/4, corrections restore the ray"


def _check_povm() -> str:
    effects, inst = povm_construction()
    total = ExactMatrix.zeros(4, 4)
    for e in effects:
        total = total + e.matrix
    _require(total.is_identity())
    _require(inst.is_complete())
    from .quantum import phase_gate

    s = phase_gate()
    for j in range(4):
        for k in range(4):
            expected = CycloNum(2 if j == k else 0)
            _require(hs_inner(s @ pauli(j), s @ pauli(k)) == expected)
    return "8 effects sum to identity; Kraus complete; tr((S sj)^dag S sk) = 2 delta_jk"


def _check_swap() -> str:
    _, inst = povm_construction()
    trace = entanglement_swap(inst)
    eighth = Fraction(1, 8)
    phi = bell_state()
    eye = ExactMatrix.identity(2)
    corrections = standard_corrections()
    _require(trace.total_probability() == 1)
    for rec in trace.outcomes:
        _require(rec.probability == eighth, rec.label)
        _, v = corrections[rec.label]
        expected_cond = PureState(eye.tensor(v.dagger()).apply(phi.vector))
        _require(rec.conditional.proportional_to(expected_cond) is not None, rec.label)
        scalar = rec.post.proportional_to(phi)
        _require(scalar is not None and scalar.abs_sq() == ONE, rec.label)
        _require(rec.chsh == TSIRELSON, rec.label)
    return "8 outcomes at exactly 1/8; conditional = (1 x A^dag)|Phi>; corrected CHSH = 2*sqrt2"


def _check_iterate_swap() -> str:
    _, inst = povm_construction()
    labels = inst.labels
    for path in itertools.product(labels, repeat=2):
        records = iterate_swap_detailed(2, outcome_path=path, inst=inst)
        _require(all(r.chsh == TSIRELSON for r in records), path)
    for seed in range(20):
        records = iterate_swap_detailed(5, seed=seed, inst=inst)
        _require(all(r.chsh == TSIRELSON for r in records), seed)
    return "all 64 depth-2 outcome paths and 20 seeded depth-5 paths hold 2*sqrt2 every round"


def _check_cocycle() -> str:
    scalar = verify_cocycle()
    _require(scalar == CycloNum(0, 0, 1, 0))
    return "sx S sx S = i*1, sx S sx = i S^3, S^4 = 1, S^2 = sz"


def _check_correction_group() -> str:
    iso = correction_group_check()
    _require(iso.target == builtin_group("D4"))
    s_img = iso.target.word(iso(iso.source.element_words.index("S")))
    x_img = iso.target.word(iso(iso.source.element_words.index("X")))
    return f"corrections mod phases = D4 ([S] -> {s_img}, [X] -> {x_img}); Paulis mod phases = K4"


def _check_matrix_vs_table_conj() -> str:
    k4 = builtin_group("K4")
    from_matrices = conj_rep_character_from_matrices(k4, pauli_rep_on_k4())
    k4_family = family_by_name("K4_1234")
    _require(from_matrices == k4_family.target)
    # both pictures of the K4 realization agree through the quotient
    lifted = k4_target_pulled_to_d4(from_matrices)
    chi5 = char_table(builtin_group("D4")).by_label("chi5")
    _require(lifted == conj_character(chi5))

    d8 = builtin_group("D8")
    from_matrices_d8 = conj_rep_character_from_matrices(d8, lifted_correction_rep_on_d8())
    e1 = char_table(d8).by_label("chiE1")
    _require(from_matrices_d8 == conj_character(e1))
    return "matrix-level conjugation characters match the table-level ones for both protocols"


def _check_hs_unitarity() -> str:
    rng = random.Random(_RNG_SEED + 1)
    unitaries = [m for _, (_, m) in standard_corrections().items()]
    for u in unitaries:
        for _ in range(3):
            x = _rand_matrix(rng, 2)
            y = _rand_matrix(rng, 2)
            _require(hs_inner(u @ x @ u.dagger(), u @ y @ u.dagger()) == hs_inner(x, y))
    return "conjugation by each correction preserves the HS inner product on random inputs"


def _check_partial_trace_identity() -> str:
    rng = random.Random(_RNG_SEED + 2)
    phi = bell_state()
    eye = ExactMatrix.identity(2)
    half = CycloNum(Fraction(1, 2))
    for _ in range(25):
        m = _rand_matrix(rng, 2)
        lhs = vec_inner(phi.vector, m.tensor(eye).apply(phi.vector))
        _require(lhs == half * m.trace())
    return "<Phi|(M x 1)|Phi> = tr(M)/2 for 25 random rational-entry M"


def _check_pvm_counting() -> str:
    return pvm_counting_check()


def _check_negative_control() -> str:
    """A deliberately shifted correction table must be caught."""
    _, inst = povm_construction()
    good = standard_corrections()
    shifted = {}
    for k in range(4):
        shifted[f"b{k}"] = good[f"b{(k + 1) % 4}"]
        shifted[f"a{k}"] = good[f"a{(k + 1) % 4}"]
    trace = entanglement_swap(inst, corrections=shifted)
    phi = bell_state()
    broken = [
        rec.label
        for rec in trace.outcomes
        if rec.chsh != TSIRELSON or rec.post.proportional_to(phi) is None
    ]
    _require(broken, "shifted corrections went undetected")
    return f"shifted correction table detected on outcomes {', '.join(broken)}"


ALL_CHECKS = (
    ("group-tables", _check_group_tables),
    ("character-tables", _check_character_tables),
    ("multiplicity-sweep", _check_multiplicity_sweep),
    ("conjugation-steps", _check_conj_steps),
    ("classification", _check_classification),
    ("brute-force-oracle", _check_brute_force_oracle),
    ("tsirelson", _check_tsirelson),
    ("teleport", _check_teleport),
    ("povm", _check_povm),
    ("entanglement-swap", _check_swap),
    ("iterate-swap", _check_iterate_swap),
    ("cocycle", _check_cocycle),
    ("correction-group", _check_correction_group),
    ("matrix-vs-table-conjugation", _check_matrix_vs_table_conj),
    ("hs-unitarity", _check_hs_unitarity),
    ("partial-trace-identity", _check_partial_trace_identity),
    ("pvm-counting", _check_pvm_counting),
    ("negative-control", _check_negative_control),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in ALL_CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name=name, ok=True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - each failure becomes a FAIL line
            results.append(CheckResult(name=name, ok=False, detail=f"{type(exc).__name__}: {exc}"))
    return results
