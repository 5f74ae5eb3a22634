"""Named runtime verification battery behind the CLI's verify-all command.

Each check re-derives a pinned fact and reports one line; the brute-force
sweep reads characters.conj_sweep, and correction-group and
matrix-vs-table-conjugation read quantum's matrix tables and conjugation
characters, one memo per content, so a warm run does not redo them (a
changed table or matrix is new content).  Everything here is an exact
(equality) assertion; a corrupted table, a wrong correction or a broken
identity flips the corresponding check to FAIL rather than passing silently.

No check samples: the protocol and matrix identities are proved for every
input by finite ones (quantum's teleport_scalars and swap_scalars, U^dag U
= 1 per correction, the four matrix units), and multiplicity-sweep proves
m1 = sum n_i^2 for every degree from the 15 values that fix the quadratic
form m1(n); iterate-swap's seeds drive the program's own seeded outcome
choice, and each chain checks its arguments once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._record import Record
from .characters import (
    ProjectiveClassTag,
    char_table,
    combination,
    conj_character,
    conj_sweep,
    decompose,
    inner_product,
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
from .cyclo import CycloNum, ONE, ZERO, inner
from .groups import (
    BUILTIN_NAMES,
    builtin_group,
    center,
    central_quotient,
    conjugacy_classes,
)
from .matrices import ExactMatrix, hs_inner, outer
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
    phase_gate,
    povm_construction,
    pvm_counting_check,
    standard_corrections,
    swap_scalars,
    teleport,
    teleport_scalars,
    tsirelson_settings,
    verify_cocycle,
)


class CheckFailed(Exception):
    """A pinned fact of the battery does not hold."""


def _require(cond, *why) -> None:
    """Raise CheckFailed(*why) unless cond holds.

    Explicit, so the battery gives the same verdict under `python -O`; the
    message parts are only formatted when the check fails.
    """
    if not cond:
        raise CheckFailed(*why)


class CheckResult(Record):
    name: str
    ok: bool
    detail: str


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
        central_quotient(big, small)  # raises unless a verified surjection
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
    """m1(ns) = <1, conj(sum n_i chi_i)> is a quadratic form in ns, which its
    values on the e_i and the e_i + e_j fix: m1 = sum n_i^2 there proves it
    at every degree.  The 2 e_i run combination's repeated addition."""
    d4 = builtin_group("D4")
    t = char_table(d4)
    triv = trivial_character(d4)
    k = len(t.irreducibles)
    unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    fixing = unit + [tuple(a + b for a, b in zip(unit[i], unit[j]))
                     for i, j in itertools.combinations(range(k), 2)]
    vectors = fixing + [tuple(2 * n for n in e) for e in unit]
    seen_m1 = set()
    for ns in vectors:
        m1 = inner_product(triv, conj_character(combination(t.irreducibles, ns)))
        expected = sum(n * n for n in ns)
        _require(m1 == CycloNum(expected), ns, m1)
        seen_m1.add(expected)
    return (f"m1 = sum n_i^2 on the {len(vectors)} characters sum n_i chi_i with n = e_i, e_i + e_j "
            f"or 2 e_i; the first {len(fixing)} fix the quadratic form m1(n), so it holds at every "
            f"degree (m1 hits {', '.join(map(str, sorted(seen_m1)))})")


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
    t4 = char_table(builtin_group("D4"))
    # target -> the families with it, so each swept character is one probe
    targets_on_d4: dict = {}
    for f in seven_families():
        if f.group.name == "D4":
            targets_on_d4.setdefault(f.target, []).append(f.name)
        elif f.group.name == "K4":
            targets_on_d4.setdefault(k4_target_pulled_to_d4(f.target), []).append(f.name)

    nontrivial = tuple(chi for _, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL))
    swept = [("trivial", ns, cchi) for ns, cchi in conj_sweep(t4.irreducibles, 4)]
    swept += [("non-trivial", ns, push_to_quotient(cchi)) for ns, cchi in conj_sweep(nontrivial, 4)]
    matches = []
    for tag, ns, cchi in swept:
        for fname in targets_on_d4.get(cchi, ()):
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
    _require(inner(phi.vector, zz.apply(phi.vector)) == ONE)
    return "CHSH(bell, tsirelson settings) = 2*sqrt2 exactly; float embedding within 1e-12"


def _check_teleport() -> str:
    # the proof covers every input; runs on |0>, |1> and the CLI's 1,2,-3,1/2 test teleport's code
    scalars = teleport_scalars()
    states = [PureState((ONE, ZERO)), PureState((ZERO, ONE)),
              PureState((CycloNum(1, 0, 2, 0), CycloNum(-3, 0, Fraction(1, 2), 0)))]
    for state in states:
        trace = teleport(state)
        # one record per proved outcome, each at 1/4: the total is 1
        _require([rec.label for rec in trace.outcomes] == list(scalars), "outcomes differ from the proof's")
        for rec in trace.outcomes:
            _require(rec.probability == Fraction(1, 4), f"outcome {rec.label}'s probability is not 1/4")
            _require(rec.post.proportional_to(state) == scalars[rec.label],
                     f"outcome {rec.label}'s output is not lambda times its input")
    return (f"sigma_k B_k = lambda_k * 1, |lambda_k|^2 = 1/4 for all {len(scalars)} outcomes, so for every "
            f"input each has probability 1/4 and restores its ray; {len(states)} runs agree")


def _check_povm() -> str:
    # the effects sum to the identity: quantum._povm_built refuses a half
    # that does not sum to I/2, so no effect list reaches here unchecked
    _, inst = povm_construction()
    _require(inst.is_complete())
    s = phase_gate()
    products = [s @ pauli(j) for j in range(4)]
    for j, sj in enumerate(products):
        for k, sk in enumerate(products):
            expected = CycloNum(2 if j == k else 0)
            _require(hs_inner(sj, sk) == expected)
    return "8 effects sum to identity; Kraus complete; tr((S sj)^dag S sk) = 2 delta_jk"


def _check_swap() -> str:
    scalars = swap_scalars()
    _, inst = povm_construction()
    trace = entanglement_swap(inst)
    phi = bell_state()
    _require(trace.total_probability() == 1)
    for rec in trace.outcomes:
        _require(rec.probability == Fraction(1, 8), rec.label)
        # a unit post (1 x C)|cond> on Phi's ray puts cond at (1 x C^dag)|Phi>, C unitary
        scalar = rec.post.proportional_to(phi)
        _require(scalar is not None and scalar.abs_sq() == ONE, rec.label)
        _require(rec.chsh == TSIRELSON, rec.label)
    return (f"C B = lambda * 1, |lambda|^2 <u|u> = 1/8 for all {len(scalars)} outcomes, so every left state "
            "keeps its ray at 1/8; on |Phi>: conditional = (1 x A^dag)|Phi>, corrected CHSH = 2*sqrt2")


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
    verify_cocycle()
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
    corrections = standard_corrections()
    for label, (_, u) in corrections.items():
        _require(u.is_unitary(), f"the correction of outcome {label} is not unitary")
    # tr((U X U^dag)^dag U Y U^dag) = tr(X^dag U^dag U Y U^dag U) = tr(X^dag Y)
    return (f"U^dag U = 1 for all {len(corrections)} corrections, so conjugation by each "
            "preserves the HS inner product for every X, Y")


def _check_partial_trace_identity() -> str:
    phi = bell_state()
    eye = ExactMatrix.identity(2)
    half = CycloNum(Fraction(1, 2))
    # both sides are linear in M, so the matrix units E_ij = |i><j| cover every M
    for i, j in itertools.product(range(2), repeat=2):
        m = outer(eye.entries[i], eye.entries[j])
        lhs = inner(phi.vector, m.tensor(eye).apply(phi.vector))
        _require(lhs == half * m.trace(), f"fails on E_{i}{j}")
    return "<Phi|(M x 1)|Phi> = tr(M)/2 on the 4 matrix units E_ij, so for every M by linearity"


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
