"""Exact class-function algebra over the built-in groups.

Character tables are hard-coded data, verified once per distinct table
content (a changed entry is verified again): one row per class, positive
integer degrees and orthonormal rows.  For a square table these imply
column orthogonality and the degree-sum identity, so neither is checked
again.  Class functions are indexed by the canonical conjugacy-class
order from the groups module (lowest-index representatives).  Character
inner products go through the package's one Hermitian inner-product
kernel, ``cyclo.inner``.

The non-trivial projective class of D4 is read on its order-16 cover D8:
the D8 irreducibles on which the central z^4 acts as -1, whose conjugation
characters descend to D4 along groups.central_quotient(D8, D4).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Sequence

from ._record import Record
from .cyclo import CycloNum, I, ONE, SQRT2, ZERO, as_cyclo, inner
from .groups import (
    GroupHom,
    GroupTable,
    _require,
    builtin_group,
    center,
    central_quotient,
    conjugacy_classes,
    verify_hom,
)


class GroupMismatch(Exception):
    pass


class NotACharacter(Exception):
    pass


class NotDescendable(Exception):
    pass


class TableVerificationFailed(Exception):
    pass


class ProjectiveClassTag(Enum):
    """The two multiplier classes of D4 (H^2 is Z_2)."""

    TRIVIAL = "trivial"
    NONTRIVIAL = "non-trivial"


class ClassFunction(Record):
    """A map from the conjugacy classes of a group into Q(zeta_8)."""

    group: GroupTable
    values: tuple[CycloNum, ...]

    def __init__(self, group: GroupTable, values: Sequence[CycloNum]):
        # a tuple, so a list or generator is read once and the function hashes
        values = tuple(values)
        for v in values:
            if type(v) is not CycloNum:
                raise TypeError(f"class function values must be CycloNum, got {type(v).__name__}")
        k = len(conjugacy_classes(group))
        if len(values) != k:
            raise ValueError(f"expected {k} class values, got {len(values)}")
        self.__dict__.update(group=group, values=values)

    def at_element(self, a: int) -> CycloNum:
        return self.values[conjugacy_classes(self.group).class_of[a]]

    def dimension(self) -> int:
        """Value at the identity class, for characters a positive integer."""
        return self.values[0].as_int()

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if other.group != self.group:
            raise GroupMismatch(f"{self.group.name} vs {other.group.name}")
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


class CharTable(Record):
    group: GroupTable
    labels: tuple[str, ...]
    irreducibles: tuple[ClassFunction, ...]

    def by_label(self, label: str) -> ClassFunction:
        return self.irreducibles[self.labels.index(label)]

    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.dimension() for chi in self.irreducibles)


def combination(chars: Sequence[ClassFunction], ns: Sequence[int]) -> ClassFunction:
    """sum ns[i] * chars[i] by repeated addition; ns >= 0, not all zero."""
    total = None
    for i, (n, chi) in enumerate(zip(ns, chars, strict=True)):
        if not isinstance(chi, ClassFunction):
            raise TypeError(f"combination needs ClassFunction entries, got {type(chi).__name__}")
        if n < 0:
            raise ValueError(f"multiplicity ns[{i}] = {n} is negative")
        for _ in range(n):
            total = chi if total is None else total + chi
    if total is None:
        raise ValueError("a combination needs a non-zero multiplicity")
    return total


def trivial_character(g: GroupTable) -> ClassFunction:
    _require("trivial_character", g, GroupTable)
    return ClassFunction(g, tuple(ONE for _ in conjugacy_classes(g).classes))


def inner_product(a: ClassFunction, b: ClassFunction) -> CycloNum:
    """Class-size-weighted sum (1/|G|) sum_K |K| conj(a(K)) b(K)."""
    _require("inner_product", a, ClassFunction)
    _require("inner_product", b, ClassFunction)
    if a.group != b.group:
        raise GroupMismatch(f"{a.group.name} vs {b.group.name}")
    return inner(a.values, b.values, conjugacy_classes(a.group).sizes, a.group.order)


def decompose(f: ClassFunction, t: CharTable) -> tuple[int, ...]:
    """Multiplicities of the irreducibles of t in f; exact integers or bust."""
    _require("decompose", f, ClassFunction)
    _require("decompose", t, CharTable)
    if f.group != t.group:
        raise GroupMismatch(f"{f.group.name} vs {t.group.name}")
    mults = []
    for label, chi in zip(t.labels, t.irreducibles):
        m = inner_product(chi, f)
        if not m.is_integer() or m.as_int() < 0:
            raise NotACharacter(f"multiplicity of {label} is {m}, not a non-negative integer")
        mults.append(m.as_int())
    return tuple(mults)


def conj_character(u: ClassFunction) -> ClassFunction:
    """Character of the conjugation action X -> U X U^dag, pointwise |u|^2."""
    _require("conj_character", u, ClassFunction)
    d = u.values[0]
    if not d.is_integer() or d.as_int() <= 0:
        raise NotACharacter(f"value at identity is {d}, not a positive integer")
    return ClassFunction(u.group, tuple(v.abs_sq() for v in u.values))


def pullback(f: ClassFunction, proj: GroupHom) -> ClassFunction:
    """Compose f with a surjective homomorphism: g -> f(proj(g))."""
    _require("pullback", f, ClassFunction)
    _require("pullback", proj, GroupHom)
    if f.group != proj.target:
        raise GroupMismatch(f"class function lives on {f.group.name}, hom targets {proj.target.name}")
    if not verify_hom(proj):
        raise ValueError("pullback requires a verified homomorphism")
    if not proj.is_surjective():
        raise ValueError("pullback requires a surjective homomorphism")
    # a verified hom maps conjugates to conjugates, on which f is constant,
    # so one representative per class reads the whole class
    reps = conjugacy_classes(proj.source).representatives
    return ClassFunction(proj.source, tuple(f.at_element(proj(r)) for r in reps))


# ----------------------------------------------------------------------
# hard-coded character tables (verified once per distinct table content;
# a changed entry is verified again)

_MI = -I
_MSQRT2 = -SQRT2
_TWO_I = CycloNum(0, 0, 2, 0)
_M_TWO_I = CycloNum(0, 0, -2, 0)


def _pauli_linear_row(p: int, q: int, r: int) -> tuple:
    def sgn(k: int) -> int:
        return -1 if k % 2 else 1

    # class representatives: I, iI, -I, -iI, X, iX, Y, iY, Z, iZ
    return (
        1, sgn(p), 1, sgn(p),
        sgn(q), sgn(p + q),
        sgn(p + q + r), sgn(q + r),
        sgn(r), sgn(p + r),
    )


_RAW_TABLES: dict[str, tuple[tuple[str, ...], tuple[tuple, ...]]] = {
    # at representatives (e, a, b, ab)
    "K4": (
        ("chi1", "chi2", "chi3", "chi4"),
        (
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        ),
    ),
    # at representatives (e, t, t2, t3); chi_{k+1}(t^j) = i^(k*j)
    "Z4": (
        ("chi1", "chi2", "chi3", "chi4"),
        (
            (1, 1, 1, 1),
            (1, I, -1, _MI),
            (1, -1, 1, -1),
            (1, _MI, -1, I),
        ),
    ),
    # at representatives (e, r, r2, s, rs)
    "D4": (
        ("chi1", "chi2", "chi3", "chi4", "chi5"),
        (
            (1, 1, 1, 1, 1),
            (1, 1, 1, -1, -1),
            (1, -1, 1, 1, -1),
            (1, -1, 1, -1, 1),
            (2, 0, -2, 0, 0),
        ),
    ),
    # at representatives (e, z, z2, z3, z4, h, zh)
    "D8": (
        ("chi1", "chi2", "chi3", "chi4", "chiE1", "chiE2", "chiE3"),
        (
            (1, 1, 1, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, -1, -1),
            (1, -1, 1, -1, 1, 1, -1),
            (1, -1, 1, -1, 1, -1, 1),
            (2, SQRT2, 0, _MSQRT2, -2, 0, 0),
            (2, 0, -2, 0, 2, 0, 0),
            (2, _MSQRT2, 0, SQRT2, -2, 0, 0),
        ),
    ),
    # at representatives (I, iI, -I, -iI, X, iX, Y, iY, Z, iZ);
    # eight linear characters through the mod-<-I> quotient, then the
    # defining two-dimensional representation and its conjugate
    "Pauli1": (
        tuple(f"chi{k}" for k in range(1, 11)),
        (
            _pauli_linear_row(0, 0, 0),
            _pauli_linear_row(0, 0, 1),
            _pauli_linear_row(0, 1, 0),
            _pauli_linear_row(0, 1, 1),
            _pauli_linear_row(1, 0, 0),
            _pauli_linear_row(1, 0, 1),
            _pauli_linear_row(1, 1, 0),
            _pauli_linear_row(1, 1, 1),
            (2, _TWO_I, -2, _M_TWO_I, 0, 0, 0, 0, 0, 0),
            (2, _M_TWO_I, -2, _TWO_I, 0, 0, 0, 0, 0, 0),
        ),
    ),
}


def char_table(g: GroupTable) -> CharTable:
    """The irreducible character table of a built-in group, verified."""
    # inline, not _require: every warm classify calls this some thirty times
    if not isinstance(g, GroupTable):
        raise TypeError(f"char_table needs a GroupTable, got {type(g).__name__}")
    if g.name not in _RAW_TABLES or g != builtin_group(g.name):
        raise ValueError(f"no built-in character table for {g!r}")
    labels, rows = _RAW_TABLES[g.name]
    return _verified_table(g, labels, rows)


# read again 213 times in a verify-all process, 130 in classify --json
@lru_cache(maxsize=16)
def _verified_table(g: GroupTable, labels: tuple[str, ...], rows: tuple[tuple, ...]) -> CharTable:
    """Build and verify one table; memoized on its content, so a changed
    entry is new content and is verified again.  A failed verification
    raises and is not cached."""
    irreducibles = tuple(
        ClassFunction(g, tuple(as_cyclo(x) for x in row)) for row in rows
    )
    table = CharTable(group=g, labels=labels, irreducibles=irreducibles)
    _verify_table(table)
    return table


def _verify_table(t: CharTable) -> None:
    """Three checks: as many rows as classes, positive integer degrees, and
    orthonormal rows.  Column orthogonality and the degree sum follow: with
    X[i][c] = chi_i(c) sqrt(|K_c|/|G|), orthonormal rows are X X^dag = 1, so
    the square X has X^dag X = 1, which is column orthogonality, and its
    identity entry is sum chi_i(1)^2 = |G|."""
    g = t.group
    k = len(conjugacy_classes(g).classes)
    if len(t.irreducibles) != k:
        raise TableVerificationFailed(
            f"{g.name}: {len(t.irreducibles)} irreducibles for {k} classes"
        )
    for chi, label in zip(t.irreducibles, t.labels):
        d = chi.values[0]
        if not d.is_integer() or d.as_int() <= 0:
            raise TableVerificationFailed(f"{g.name}: degree of {label} is {d}")
    # pairs i <= j only: <b,a> = conj(<a,b>)
    for i, a in enumerate(t.irreducibles):
        for j in range(i, k):
            expected = ONE if i == j else ZERO
            if inner_product(a, t.irreducibles[j]) != expected:
                raise TableVerificationFailed(
                    f"{g.name}: <{t.labels[i]},{t.labels[j]}> != {expected}"
                )


# ----------------------------------------------------------------------
# the two projective classes of D4, via the order-16 cover

def projective_irreps_d4(tag: ProjectiveClassTag) -> tuple[tuple[str, ClassFunction], ...]:
    """Irreducible (projective) characters of D4 in the given multiplier class.

    Trivial class: the five ordinary irreducibles of D4.  Non-trivial class:
    the irreducibles of the cover D8 on which the central z^4 acts as -1,
    returned as D8 class functions (use push_to_quotient on their conjugation
    characters to land back on D4).
    """
    _require("projective_irreps_d4", tag, ProjectiveClassTag)
    if tag is ProjectiveClassTag.TRIVIAL:
        t = char_table(builtin_group("D4"))
        return tuple(zip(t.labels, t.irreducibles))
    d8 = builtin_group("D8")
    t = char_table(d8)
    _, z4 = center(d8)
    central_class = conjugacy_classes(d8).class_of[z4]
    return tuple((label, chi) for label, chi in zip(t.labels, t.irreducibles)
                 if chi.values[central_class] == -chi.values[0])


def push_to_quotient(f: ClassFunction) -> ClassFunction:
    """Descend a class function on D8 to D4 along D8 -> D8/Z(D8) = D4: each
    D4 class takes the value f has on its fibre, which must be constant."""
    _require("push_to_quotient", f, ClassFunction)
    d8, d4 = builtin_group("D8"), builtin_group("D4")
    if f.group != d8:
        raise GroupMismatch(f"expected a class function on D8, got {f.group.name}")
    proj = central_quotient(d8, d4)
    class_of = conjugacy_classes(d4).class_of
    values: dict[int, CycloNum] = {}
    for g in d8.elements():
        fg = f.at_element(g)
        if values.setdefault(class_of[proj(g)], fg) != fg:
            raise NotDescendable(
                f"not constant on the fibre of the D4 class of {d4.word(proj(g))}"
            )
    return ClassFunction(d4, tuple(values[c] for c in range(len(values))))
