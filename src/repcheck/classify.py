"""Quantum realizability of the seven teleportation-stable families.

Each family is a prescribed conjugation character over K4, Z4 or D4.  A
family is realizable iff some irreducible (projective) character's
conjugation character equals the target exactly.  Only irreducibles can
match: each target has trivial multiplicity 1 (checked), and row
orthonormality makes the trivial multiplicity of conj(sum n_i chi_i) equal
sum n_i^2, which is 1 only for a single irreducible.

Every obstruction is a standalone executable check carrying the set of
projective classes it rules out.  A family is obstructed exactly when the
fired scopes cover all its candidate classes; the witness enumeration and
the obstruction battery are cross-validated against each other once per
family and table content (a warm `classify` answers from a memo keyed on
both), and a witness-less class that no check covers raises.

What the checks read off the K4, Z4, D4 and D8 character tables (targets,
witness candidates, table-level checks) is built and verified in one memo
per table content, which every public function reads; the multiplicity
formulas the obstructions rest on hold for every degree, by the fusion
coefficients <chi_i conj(chi_j), chi_k> checked there.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

from ._record import Record
from .characters import (
    CharTable,
    ClassFunction,
    ProjectiveClassTag,
    char_table,
    combination,
    conj_character,
    decompose,
    inner_product,
    projective_irreps_d4,
    pullback,
    push_to_quotient,
    trivial_character,
)
from .cyclo import ONE, ZERO
from .groups import GroupTable, _require, builtin_group, central_quotient


class WrongGroup(Exception):
    pass


class ClassifierInconsistency(Exception):
    """Obstruction battery and witness enumeration disagree (a bug)."""


class ObstructionKind(Enum):
    DIMENSION_BOUND = "DimensionBound"
    PARITY_OF_CHI5 = "ParityOfChi5"
    REFLECTION_VANISHING = "ReflectionVanishing"
    ABELIAN_FIXED_PROJECTORS = "AbelianFixedProjectors"


# projective classes a check can rule out; Z4's multiplier is trivial so its
# only class is the linear one
TRIVIAL = ProjectiveClassTag.TRIVIAL.value
NONTRIVIAL = ProjectiveClassTag.NONTRIVIAL.value

# each family once: name (its group's name, then the irreducibles in it),
# multiplicities over that group's irreducibles in table order, and the
# dimension that _facts_of checks the target against
_FAMILIES = (
    ("K4_1234", (1, 1, 1, 1), 4),
    ("Z4_1234", (1, 1, 1, 1), 4),
    ("D4_125", (1, 1, 0, 0, 1), 4),
    ("D4_135", (1, 0, 1, 0, 1), 4),
    ("D4_145", (1, 0, 0, 1, 1), 4),
    ("D4_12345", (1, 1, 1, 1, 1), 6),
    ("D4_123452", (1, 1, 1, 1, 2), 8),
)

FAMILY_NAMES = tuple(name for name, _, _ in _FAMILIES)

# the reflection classes of D4, at representatives (e, r, r2, s, rs)
_S_CLASS, _RS_CLASS = 3, 4


class ObstructionRecord(Record):
    kind: ObstructionKind
    detail: str
    scope: tuple[str, ...]  # projective classes this check rules out


class Family(Record):
    """A named target conjugation character; its group and dimension are
    the target's own, and the dimension must be a positive integer."""

    name: str
    target: ClassFunction

    def __post_init__(self):
        if not isinstance(self.target, ClassFunction):
            raise TypeError(f"a Family target must be a ClassFunction, got {type(self.target).__name__}")
        d = self.target.values[0]
        if not (d.is_integer() and d.as_int() > 0):
            raise ValueError(f"family {self.name}: target value {d} at the identity "
                             "is not a positive integer")

    @property
    def group(self) -> GroupTable:
        return self.target.group

    @property
    def dimension(self) -> int:
        return self.target.dimension()

    def candidate_classes(self) -> tuple[str, ...]:
        if self.group.name == "Z4":
            return (TRIVIAL,)
        return (TRIVIAL, NONTRIVIAL)


class Witness(Record):
    character_label: str
    projective_class: str
    character: ClassFunction
    conj_decomposition: tuple[int, ...]  # over the D4 irreducibles
    also: tuple[str, ...] = ()


class Verdict(Record):
    family: Family
    realizable: bool
    witness: Optional[Witness]
    witnesses: tuple[Witness, ...]
    obstructions: tuple[ObstructionRecord, ...]


def seven_families() -> tuple[Family, ...]:
    """The seven target conjugation characters, invariants verified."""
    return _facts().families


def family_by_name(name: str) -> Family:
    _require("family_by_name", name, str)
    for f in seven_families():
        if f.name == name:
            return f
    raise KeyError(name)


class _Facts(NamedTuple):
    families: tuple[Family, ...]
    t_d4: CharTable
    # group name -> (label, class tag, chi_U, its conjugation character on
    # D4 or Z4); K4 is matched on D4 through the quotient, so shares D4's
    candidates: dict[str, tuple[tuple[str, str, ClassFunction, ClassFunction], ...]]


def _tables() -> tuple[CharTable, ...]:
    """The K4, Z4, D4 and D8 tables as they are now, each verified."""
    return tuple(char_table(builtin_group(n)) for n in ("K4", "Z4", "D4", "D8"))


def _facts() -> _Facts:
    """The facts of the K4, Z4, D4 and D8 tables as they are now."""
    return _facts_of(*_tables())


# Keyed on the verified tables, so a warm entry cannot hide a corrupted one:
# char_table verifies changed content again before the key is built.
# Read again 29 times in a verify-all process, 25 in classify --json.
@lru_cache(maxsize=4)
def _facts_of(t_k4: CharTable, t_z4: CharTable, t_d4: CharTable, t_d8: CharTable) -> _Facts:
    """Build the seven families and the witness candidates, and run every
    table-level check the obstructions rest on, once per table content."""
    # The K4 and Z4 targets sum their irreducibles, all of degree 1: that is
    # the regular character, by column orthogonality at the identity column,
    # which the orthonormal rows _verify_table checks imply for a square table.
    tables = {"K4": t_k4, "Z4": t_z4, "D4": t_d4}
    families = []
    for name, ns, expected in _FAMILIES:
        f = Family(name, combination(tables[name[:2]].irreducibles, ns))
        if f.dimension != expected:
            raise ClassifierInconsistency(f"{name}: dimension {f.dimension} != {expected}")
        if inner_product(trivial_character(f.group), f.target) != ONE:
            raise ClassifierInconsistency(f"{name}: trivial character multiplicity != 1")
        families.append(f)

    # projective_irreps_d4 reads the D4 and D8 tables this entry is keyed on
    d4_side = [(label, TRIVIAL, chi, conj_character(chi))
               for label, chi in projective_irreps_d4(ProjectiveClassTag.TRIVIAL)]
    for label, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL):
        pushed = push_to_quotient(conj_character(chi))
        if pushed.values[_S_CLASS] != ZERO or pushed.values[_RS_CLASS] != ZERO:
            raise ClassifierInconsistency(f"|{label}|^2 fails to vanish on a reflection class")
        d4_side.append((label, NONTRIVIAL, chi, pushed))
    # Z4 needs no check: <chi_i conj(chi_j), chi1> = <chi_j, chi_i> = delta_ij
    # is the row orthogonality _verify_table checks, so the trivial multiplicity
    # of |sum n_i chi_i|^2 is sum n_i^2 >= sum n_i = d for every n.
    z4_side = tuple((label, TRIVIAL, chi, conj_character(chi))
                    for label, chi in zip(t_z4.labels, t_z4.irreducibles))
    _check_chi5_fusion(t_d4)

    d4_side = tuple(d4_side)
    return _Facts(tuple(families), t_d4, {"K4": d4_side, "Z4": z4_side, "D4": d4_side})


def _check_chi5_fusion(t: CharTable) -> None:
    """The chi5 (slot 4) multiplicity of |sum n_i chi_i|^2 is sum_ij n_i n_j
    <chi_i conj(chi_j), chi5>: with these fusion coefficients 1 where exactly one
    of i, j is chi5 and 0 elsewhere, it is 2e(a+b+c+d), so even, for every n."""
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            product = ClassFunction(t.group, (x * y.conjugate() for x, y in zip(a.values, b.values)))
            n, expected = decompose(product, t)[4], int((i == 4) != (j == 4))
            if n != expected:
                raise ClassifierInconsistency(
                    f"chi5 fusion coefficient of ({t.labels[i]}, {t.labels[j]}) is {n}, not {expected}")


# ----------------------------------------------------------------------
# witness enumeration

def k4_target_pulled_to_d4(target: ClassFunction) -> ClassFunction:
    """A K4 class function viewed on D4 through D4 -> D4/Z(D4) = K4."""
    return pullback(target, central_quotient(builtin_group("D4"), builtin_group("K4")))


def enumerate_witnesses(f: Family) -> list[Witness]:
    """All irreducible candidates whose conjugation character hits the target.

    D4 families are matched directly; the K4 family is matched through the
    D4 quotient identification (the Pauli-projective picture is the
    quantum module's independent route); Z4 candidates are its linear
    irreducibles, its multiplier being trivial.
    """
    _require("enumerate_witnesses", f, Family)
    facts = _facts()
    group = f.group.name
    if group not in facts.candidates:
        raise WrongGroup(f"no witness enumeration for group {group}")
    candidates = facts.candidates[group]
    target = k4_target_pulled_to_d4(f.target) if group == "K4" else f.target
    found = []
    for label, tag, chi, cchi in candidates:
        if cchi != target:
            continue
        also = ()
        if group == "K4":
            also = ("projective Pauli representation of K4 (P1 mod center)",)
        elif tag == NONTRIVIAL:
            other = [l for l, t, _, _ in candidates if t == NONTRIVIAL and l != label]
            also = tuple(f"equivalently {l}" for l in other)
        decomposition = () if group == "Z4" else decompose(cchi, facts.t_d4)
        found.append(Witness(label, tag, chi, decomposition, also))
    return found


# ----------------------------------------------------------------------
# obstruction checks

def check_dimension_bound(f: Family) -> Optional[ObstructionRecord]:
    """Target dimension must fit in dim L(H) <= (max irreducible degree)^2.

    The max degree is computed over the D4 irreducibles and the D8 ones of
    the non-trivial class, not hard-coded.
    """
    _require("check_dimension_bound", f, Family)
    max_deg = max(chi.dimension() for _, _, chi, _ in _facts().candidates["D4"])
    bound = max_deg * max_deg
    if f.dimension <= bound:
        return None
    return ObstructionRecord(
        kind=ObstructionKind.DIMENSION_BOUND,
        detail=(
            f"target dimension {f.dimension} exceeds {bound} = {max_deg}^2, the largest "
            "conjugation-representation dimension any projective class allows"
        ),
        scope=f.candidate_classes(),
    )


def check_z4_abelian(f: Family) -> Optional[ObstructionRecord]:
    """Z4's multiplier is trivial, so a candidate sums d linear characters and
    its conjugation character has trivial multiplicity m1 = sum n_i^2 >= d (see
    _facts_of): m1 = 1 only at d = 1, so a target with m1 = 1 needs dimension 1."""
    _require("check_z4_abelian", f, Family)
    if f.group != builtin_group("Z4"):
        raise WrongGroup(f"abelian fixed-projector check needs Z4, got {f.group.name}")
    _facts()  # refuses a corrupted table, as every check does
    if f.dimension == 1 or inner_product(trivial_character(f.group), f.target) != ONE:
        return None
    return ObstructionRecord(
        kind=ObstructionKind.ABELIAN_FIXED_PROJECTORS,
        detail=(
            "the multiplier of Z4 is trivial, so candidates are sums of linear characters; "
            "any d >= 2 of them fix d orthogonal projectors (trivial multiplicity >= d > 1), "
            f"and d = 1 gives dimension 1 != {f.dimension}; verified over all multisets with d <= 4"
        ),
        scope=f.candidate_classes(),
    )


def check_parity(f: Family) -> Optional[ObstructionRecord]:
    """In the trivial class the chi5 multiplicity of any conjugation
    character is even (it is 2e(a+b+c+d)); odd targets are unreachable.

    The formula holds for every degree: _facts_of proves it from the D4
    fusion coefficients.
    """
    _require("check_parity", f, Family)
    if f.group != builtin_group("D4"):
        raise WrongGroup(f"chi5 parity check needs D4, got {f.group.name}")
    m5_target = decompose(f.target, _facts().t_d4)[4]
    if m5_target % 2 == 0:
        return None
    return ObstructionRecord(
        kind=ObstructionKind.PARITY_OF_CHI5,
        detail=(
            f"target contains chi5 with odd multiplicity {m5_target}, but every "
            "trivial-class conjugation character has even chi5 multiplicity 2e(a+b+c+d)"
        ),
        scope=(TRIVIAL,),
    )


def check_reflection_vanishing(f: Family) -> Optional[ObstructionRecord]:
    """Non-trivial-class conjugation characters vanish on both reflection
    classes (computed from |chiE1|^2, |chiE3|^2, not assumed); a target that
    is non-zero at s or rs cannot arise there."""
    _require("check_reflection_vanishing", f, Family)
    if f.group != builtin_group("D4"):
        raise WrongGroup(f"reflection vanishing check needs D4, got {f.group.name}")
    _facts()  # the vanishing itself is checked there, once per table content
    vs, vrs = f.target.values[_S_CLASS], f.target.values[_RS_CLASS]
    if vs == ZERO and vrs == ZERO:
        return None
    where = []
    if vs != ZERO:
        where.append(f"s -> {vs}")
    if vrs != ZERO:
        where.append(f"rs -> {vrs}")
    return ObstructionRecord(
        kind=ObstructionKind.REFLECTION_VANISHING,
        detail=(
            "every non-trivial-class conjugation character vanishes on the reflection "
            f"classes, but the target has {', '.join(where)}"
        ),
        scope=(NONTRIVIAL,),
    )


# the obstruction checks each group's families run, in report order
_CHECKS = {
    "K4": (check_dimension_bound,),
    "Z4": (check_dimension_bound, check_z4_abelian),
    "D4": (check_dimension_bound, check_parity, check_reflection_vanishing),
}


def classify(f: Family) -> Verdict:
    """The verdict on f: the obstruction battery and the witness enumeration
    on f's target (which fixes f's group and dimension), cross-checked once
    per family and table content."""
    if not isinstance(f, Family):
        raise TypeError(f"classify needs a Family, got {type(f).__name__}")
    return _verdict(f, *_tables())


# Keyed like _facts_of on the verified tables; a raise is not cached.  Below
# 7 entries a classify_all would evict each one before it is read again.
# Read again 14 times in a verify-all process, never in classify --json.
@lru_cache(maxsize=16)
def _verdict(f: Family, *tables: CharTable) -> Verdict:
    witnesses = tuple(enumerate_witnesses(f))
    witness_classes = {w.projective_class for w in witnesses}

    fired = [rec for rec in (check(f) for check in _CHECKS[f.group.name]) if rec]

    covered = {tag for rec in fired for tag in rec.scope}
    conflict = covered & witness_classes
    if conflict:
        raise ClassifierInconsistency(
            f"{f.name}: obstruction fired for class(es) {sorted(conflict)} that hold a witness"
        )

    if witnesses:
        return Verdict(family=f, realizable=True, witness=witnesses[0],
                       witnesses=witnesses, obstructions=())

    if set(f.candidate_classes()) - covered:
        raise ClassifierInconsistency(f"{f.name}: obstructions fail to cover all classes")
    return Verdict(family=f, realizable=False, witness=None,
                   witnesses=(), obstructions=tuple(fired))


def classify_all() -> tuple[Verdict, ...]:
    return tuple(classify(f) for f in seven_families())


# ----------------------------------------------------------------------
# reporting

def full_report() -> dict:
    """Deterministic machine-readable report of all seven verdicts."""
    entries = []
    realizable = []
    for v in classify_all():
        if v.realizable:
            realizable.append(v.family.name)
        witness_json = None
        if v.witness is not None:
            witness_json = {
                "character_label": v.witness.character_label,
                "projective_class": v.witness.projective_class,
                "also": list(v.witness.also),
            }
        entries.append(
            {
                "family": v.family.name,
                "dimension": v.family.dimension,
                "realizable": v.realizable,
                "witness": witness_json,
                "obstructions": [
                    {"kind": rec.kind.value, "detail": rec.detail} for rec in v.obstructions
                ],
                "chi_conj_decomposition": (
                    list(v.witness.conj_decomposition) if v.witness else None
                ),
            }
        )
    return {"families": entries, "realizable": realizable}


def report_text() -> str:
    """Human-oriented rendering of the classification."""
    lines = []
    verdicts = classify_all()
    name_w = max(len(v.family.name) for v in verdicts)
    for v in verdicts:
        if v.realizable:
            w = v.witness
            extra = f" ({'; '.join(w.also)})" if w.also else ""
            lines.append(
                f"{v.family.name.ljust(name_w)}  dim {v.family.dimension}  realizable"
                f"  witness {w.character_label} [{w.projective_class} class]{extra}"
                f"  conj decomposition {w.conj_decomposition}"
            )
        else:
            kinds = ", ".join(rec.kind.value for rec in v.obstructions)
            lines.append(
                f"{v.family.name.ljust(name_w)}  dim {v.family.dimension}  obstructed  [{kinds}]"
            )
    lines.append("realizable: " + ", ".join(v.family.name for v in verdicts if v.realizable))
    return "\n".join(lines)
