"""Quantum realizability of the seven teleportation-stable families.

Each family is a prescribed conjugation character over K4, Z4 or D4.  A
family is realizable iff some irreducible (projective) character's
conjugation character equals the target exactly; the multiplicity-one
constraint on the trivial character is taken as an input axiom and is what
restricts the search to irreducibles.

Every obstruction is a standalone executable check carrying the set of
projective classes it rules out.  A family is obstructed exactly when the
fired scopes cover all its candidate classes; the witness enumeration and
the obstruction battery are cross-validated against each other on every
call, and a witness-less class that no check covers raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .characters import (
    CharTable,
    ClassFunction,
    ProjectiveClassTag,
    char_table,
    combination,
    conj_character,
    decompose,
    inner_product,
    multiplicity_vectors,
    projective_irreps_d4,
    pullback,
    push_to_quotient,
    regular_character,
    trivial_character,
)
from .cyclo import ONE, ZERO
from .groups import GroupTable, builtin_group, center, find_isomorphism, quotient


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

FAMILY_NAMES = (
    "K4_1234",
    "Z4_1234",
    "D4_125",
    "D4_135",
    "D4_145",
    "D4_12345",
    "D4_123452",
)

_EXPECTED_DIMENSIONS = dict(zip(FAMILY_NAMES, (4, 4, 4, 4, 4, 6, 8)))


@dataclass(frozen=True)
class ObstructionRecord:
    kind: ObstructionKind
    detail: str
    scope: tuple[str, ...]  # projective classes this check rules out


@dataclass(frozen=True)
class Family:
    name: str
    group: GroupTable
    target: ClassFunction
    dimension: int

    def candidate_classes(self) -> tuple[str, ...]:
        if self.group.name == "Z4":
            return (TRIVIAL,)
        return (TRIVIAL, NONTRIVIAL)


@dataclass(frozen=True)
class Witness:
    character_label: str
    projective_class: str
    character: ClassFunction
    conj_decomposition: tuple[int, ...]  # over the D4 irreducibles
    also: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    family: Family
    realizable: bool
    witness: Optional[Witness]
    witnesses: tuple[Witness, ...]
    obstructions: tuple[ObstructionRecord, ...]


def seven_families() -> tuple[Family, ...]:
    """The seven target conjugation characters, invariants verified."""
    k4, z4, d4 = builtin_group("K4"), builtin_group("Z4"), builtin_group("D4")
    return _families_from(char_table(k4), char_table(z4), char_table(d4))


# Keyed on the verified tables, so a warm entry cannot hide a corrupted K4,
# Z4 or D4 table: char_table verifies changed content again before the key
# is built.
@lru_cache(maxsize=4)
def _families_from(t_k4: CharTable, t_z4: CharTable, t_d4: CharTable) -> tuple[Family, ...]:
    k4, z4, d4 = t_k4.group, t_z4.group, t_d4.group
    reg_k4 = regular_character(k4)
    if reg_k4 != combination(t_k4.irreducibles, (1, 1, 1, 1)):
        raise ClassifierInconsistency("K4 regular character != sum of its irreducibles")
    reg_z4 = regular_character(z4)
    if reg_z4 != combination(t_z4.irreducibles, (1, 1, 1, 1)):
        raise ClassifierInconsistency("Z4 regular character != sum of its irreducibles")

    spec = (
        ("K4_1234", k4, reg_k4),
        ("Z4_1234", z4, reg_z4),
        ("D4_125", d4, combination(t_d4.irreducibles, (1, 1, 0, 0, 1))),
        ("D4_135", d4, combination(t_d4.irreducibles, (1, 0, 1, 0, 1))),
        ("D4_145", d4, combination(t_d4.irreducibles, (1, 0, 0, 1, 1))),
        ("D4_12345", d4, combination(t_d4.irreducibles, (1, 1, 1, 1, 1))),
        ("D4_123452", d4, combination(t_d4.irreducibles, (1, 1, 1, 1, 2))),
    )
    families = []
    for name, g, target in spec:
        dim = target.dimension()
        if dim != _EXPECTED_DIMENSIONS[name]:
            raise ClassifierInconsistency(f"{name}: dimension {dim} != {_EXPECTED_DIMENSIONS[name]}")
        if inner_product(trivial_character(g), target) != ONE:
            raise ClassifierInconsistency(f"{name}: trivial character multiplicity != 1")
        families.append(Family(name=name, group=g, target=target, dimension=dim))
    return tuple(families)


def family_by_name(name: str) -> Family:
    for f in seven_families():
        if f.name == name:
            return f
    raise KeyError(name)


# ----------------------------------------------------------------------
# witness enumeration

@lru_cache(maxsize=1)
def d4_quotient_to_k4() -> tuple:
    """(projection D4 -> D4/<r2>, isomorphism D4/<r2> -> K4)."""
    d4 = builtin_group("D4")
    q, proj = quotient(d4, center(d4))
    iso = find_isomorphism(q, builtin_group("K4"))
    return proj, iso


def k4_target_pulled_to_d4(target: ClassFunction) -> ClassFunction:
    """A K4 class function viewed on D4 through the quotient map."""
    proj, iso = d4_quotient_to_k4()
    return pullback(pullback(target, iso), proj)


# Keyed on the verified D4 and D8 tables, which projective_irreps_d4 reads,
# so a warm entry cannot hide a corrupted one, as in _families_from.
@lru_cache(maxsize=4)
def _d4_candidates(
    t_d4: CharTable, t_d8: CharTable
) -> tuple[tuple[str, str, ClassFunction, ClassFunction], ...]:
    """(label, class tag, chi_U, its conjugation character on D4)."""
    out = []
    for label, chi in projective_irreps_d4(ProjectiveClassTag.TRIVIAL):
        out.append((label, TRIVIAL, chi, conj_character(chi)))
    for label, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL):
        out.append((label, NONTRIVIAL, chi, push_to_quotient(conj_character(chi))))
    return tuple(out)


def enumerate_witnesses(f: Family) -> list[Witness]:
    """All irreducible candidates whose conjugation character hits the target.

    D4 families are matched directly; the K4 family is matched through the
    D4 quotient identification (the Pauli-projective picture is the
    quantum module's independent route); Z4 candidates are its linear
    irreducibles, its multiplier being trivial.
    """
    t_d4 = char_table(builtin_group("D4"))
    if f.group.name in ("D4", "K4"):
        candidates = _d4_candidates(t_d4, char_table(builtin_group("D8")))
        target_on_d4 = f.target if f.group.name == "D4" else k4_target_pulled_to_d4(f.target)
        found = []
        for label, tag, chi, cchi in candidates:
            if cchi == target_on_d4:
                also = ()
                if f.group.name == "K4":
                    also = ("projective Pauli representation of K4 (P1 mod center)",)
                elif tag == NONTRIVIAL:
                    other = [l for l, t, _, _ in candidates if t == NONTRIVIAL and l != label]
                    also = tuple(f"equivalently {l}" for l in other)
                found.append(
                    Witness(
                        character_label=label,
                        projective_class=tag,
                        character=chi,
                        conj_decomposition=decompose(cchi, t_d4),
                        also=also,
                    )
                )
        return found
    if f.group.name == "Z4":
        t_z4 = char_table(f.group)
        found = []
        for label, chi in zip(t_z4.labels, t_z4.irreducibles):
            if conj_character(chi) == f.target:
                found.append(
                    Witness(
                        character_label=label,
                        projective_class=TRIVIAL,
                        character=chi,
                        conj_decomposition=(),
                    )
                )
        return found
    raise WrongGroup(f"no witness enumeration for group {f.group.name}")


# ----------------------------------------------------------------------
# obstruction checks

def check_dimension_bound(f: Family) -> Optional[ObstructionRecord]:
    """Target dimension must fit in dim L(H) <= (max irreducible degree)^2.

    The max degree is computed from the D4 and cover tables, not hard-coded.
    """
    max_deg = max(
        char_table(builtin_group("D4")).degrees()
        + char_table(builtin_group("D8")).degrees()
    )
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


@lru_cache(maxsize=8)
def _z4_abelian_sweep(t: CharTable, target: ClassFunction) -> None:
    """Enumerate all multisets of the four linear Z4 characters with d <= 4.
    Cached on the verified Z4 table and the target it is swept against."""
    triv = trivial_character(t.group)
    for ns in multiplicity_vectors(t.degrees(), 4):
        d = sum(ns)
        cchi = conj_character(combination(t.irreducibles, ns))
        m1 = inner_product(triv, cchi)
        if m1.as_int() != sum(n * n for n in ns):
            raise ClassifierInconsistency(f"m1 formula fails at multiplicities {ns}")
        if cchi == target:
            raise ClassifierInconsistency(
                f"an abelian candidate {ns} matched the target; the obstruction is wrong"
            )
        if d >= 2 and m1.as_int() < d:
            raise ClassifierInconsistency(f"fixed-projector bound m1 >= d fails at {ns}")


def check_z4_abelian(f: Family) -> Optional[ObstructionRecord]:
    """Every d-dim rep of the cyclic group fixes d orthogonal projectors, so
    the trivial character appears at least d times; verified by enumerating
    all multisets of the four linear characters with d <= 4."""
    z4 = builtin_group("Z4")
    if f.group != z4:
        raise WrongGroup(f"abelian fixed-projector check needs Z4, got {f.group.name}")
    _z4_abelian_sweep(char_table(z4), f.target)
    return ObstructionRecord(
        kind=ObstructionKind.ABELIAN_FIXED_PROJECTORS,
        detail=(
            "the multiplier of Z4 is trivial, so candidates are sums of linear characters; "
            "any d >= 2 of them fix d orthogonal projectors (trivial multiplicity >= d > 1), "
            "and d = 1 gives dimension 1 != 4; verified over all multisets with d <= 4"
        ),
        scope=f.candidate_classes(),
    )


@lru_cache(maxsize=8)
def _chi5_parity_sweep(t: CharTable) -> None:
    """Verify m5 = 2e(a+b+c+d) (even) for every chi_U of degree <= 4.
    Cached on the verified D4 table."""
    for ns in multiplicity_vectors(t.degrees(), 4):
        *abcd, e = ns
        m5 = decompose(conj_character(combination(t.irreducibles, ns)), t)[4]
        if m5 != 2 * e * sum(abcd) or m5 % 2 != 0:
            raise ClassifierInconsistency(f"chi5 multiplicity formula fails at {ns}: got {m5}")


def check_parity(f: Family) -> Optional[ObstructionRecord]:
    """In the trivial class the chi5 multiplicity of any conjugation
    character is even (it is 2e(a+b+c+d)); odd targets are unreachable.

    The formula is verified against exhaustive enumeration up to the
    realizable degree bound.
    """
    d4 = builtin_group("D4")
    if f.group != d4:
        raise WrongGroup(f"chi5 parity check needs D4, got {f.group.name}")
    t = char_table(d4)
    _chi5_parity_sweep(t)
    m5_target = decompose(f.target, t)[4]
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
    d4 = builtin_group("D4")
    if f.group != d4:
        raise WrongGroup(f"reflection vanishing check needs D4, got {f.group.name}")
    s_class, rs_class = 3, 4
    for label, chi in projective_irreps_d4(ProjectiveClassTag.NONTRIVIAL):
        pushed = push_to_quotient(conj_character(chi))
        if pushed.values[s_class] != ZERO or pushed.values[rs_class] != ZERO:
            raise ClassifierInconsistency(
                f"|{label}|^2 fails to vanish on a reflection class"
            )
    vs, vrs = f.target.values[s_class], f.target.values[rs_class]
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


def classify(f: Family) -> Verdict:
    """Run the obstruction battery and the witness enumeration, cross-checked."""
    witnesses = tuple(enumerate_witnesses(f))
    witness_classes = {w.projective_class for w in witnesses}

    fired: list[ObstructionRecord] = []
    rec = check_dimension_bound(f)
    if rec:
        fired.append(rec)
    if f.group.name == "Z4":
        rec = check_z4_abelian(f)
        if rec:
            fired.append(rec)
    if f.group.name == "D4":
        for check in (check_parity, check_reflection_vanishing):
            rec = check(f)
            if rec:
                fired.append(rec)

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
