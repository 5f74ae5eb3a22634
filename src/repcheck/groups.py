"""Finite groups as verified multiplication tables.

Elements are indices 0..order-1; index 0 is always the identity.  Every
table is checked at construction: Latin square and identity entry by entry,
associativity by Light's test.  That test, the isomorphism search, the
centre and ``quantum``'s matrix groups check a law only where one factor is
a generator of one walk (``_walk``), which proves it for every pair.

Built-ins: K4, Z4, D4, D8 and the 16-element single-qubit Pauli group.
Canonical element words fix the iteration order; conjugacy-class
representatives are the lowest-index element of each class, and all
class-function indexing downstream relies on that ordering.

The only quotients are by centres: ``central_quotient`` maps D4, D8 and
Pauli1 onto K4, D4 and K4 by one verified, surjective map each.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from ._record import Record


class GroupError(Exception):
    pass


class IsoNotFound(GroupError):
    pass


BUILTIN_NAMES = ("K4", "Z4", "D4", "D8", "Pauli1")


class GroupTable:
    """A finite group given by its multiplication table."""

    def __init__(self, name: str, mul: Sequence[Sequence[int]], element_words: Sequence[str]):
        self.name = name
        self.mul_table = tuple(tuple(int(x) for x in row) for row in mul)
        self.element_words = tuple(str(w) for w in element_words)
        self.order = len(self.mul_table)
        if len(self.element_words) != self.order:
            raise GroupError(f"{name}: {len(self.element_words)} words for order {self.order}")
        if self.order == 0:
            raise GroupError(f"{name}: a group needs an identity; the table is empty")
        self._verify()
        # a verified table has one 0 in row a, at a's inverse, which in a
        # group is two-sided
        self.inv_table = tuple(row.index(0) for row in self.mul_table)
        # once: the table is immutable, and every cache keyed on a group hashes it
        self._hash = hash((self.mul_table, self.element_words))

    def _verify(self) -> None:
        n = self.order
        full = set(range(n))
        for row in self.mul_table:
            if len(row) != n or set(row) != full:
                raise GroupError(f"{self.name}: multiplication table is not a Latin square")
        for j in range(n):
            if {self.mul_table[i][j] for i in range(n)} != full:
                raise GroupError(f"{self.name}: multiplication table is not a Latin square")
        mul = self.mul_table
        for a in range(n):
            if mul[0][a] != a or mul[a][0] != a:
                raise GroupError(f"{self.name}: element 0 is not a two-sided identity")
        # Light's test: the b with (a b) c = a (b c) for all a, c are closed
        # under the product, so checking the generators proves associativity
        self._gens, _, self._steps = _walk(n, lambda s: [row[s] for row in mul])
        for b in self._gens:
            for a in range(n):
                ab = mul[a][b]
                for c in range(n):
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        raise GroupError(f"{self.name}: associativity fails at ({a},{b},{c})")

    # ------------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    def word(self, a: int) -> str:
        return self.element_words[a]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.mul_table == other.mul_table and self.element_words == other.element_words

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, order={self.order})"

    def dump(self) -> str:
        """Text dump: header line, then the table as rows of element words."""
        width = max(len(w) for w in self.element_words)
        lines = [f"group {self.name} order {self.order}"]
        for row in self.mul_table:
            lines.append("  ".join(self.element_words[x].rjust(width) for x in row))
        return "\n".join(lines)


def _walk(n: int, column: Callable[[int], Sequence[int]]) -> tuple[list, list, list]:
    """One breadth-first walk from element 0 of n, column(s) listing x * s
    for every x.  Each time it stalls, the lowest-index element it missed
    becomes the next generator and the walk starts over.  Returns the
    generators, their columns, and each other non-zero y as (y, x, i) with
    y = x * generators[i], x reached first.  It ends on any input."""
    gens, cols, steps = [], [], []
    known, pos = [0], 0
    while len(known) < n:
        if pos == len(known):
            s = next(x for x in range(n) if x not in known)
            gens.append(s)
            cols.append(column(s))
            known.append(s)
            pos = 0
        x = known[pos]
        pos += 1
        for i, col in enumerate(cols):
            y = col[x]
            if y not in known:
                known.append(y)
                steps.append((y, x, i))
    return gens, cols, steps


def _require(caller: str, x, cls: "type | tuple[type, ...]") -> None:
    if not isinstance(x, cls):
        names = " or ".join(k.__name__ for k in (cls if isinstance(cls, tuple) else (cls,)))
        raise TypeError(f"{caller} needs a {names}, got {type(x).__name__}")


class ConjClassPartition(Record):
    """Conjugacy classes ordered by their lowest-index representative."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]  # element index -> class index

    def __len__(self) -> int:
        return len(self.classes)


class GroupHom(Record):
    """A map between groups, stored as image[element] on the source."""

    source: GroupTable
    target: GroupTable
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_surjective(self) -> bool:
        return set(self.image) == set(self.target.elements())


def verify_hom(h: GroupHom) -> bool:
    """True iff image(a*b) = image(a)*image(b) for all pairs."""
    _require("verify_hom", h, GroupHom)
    src, tgt, im = h.source, h.target, h.image
    if len(im) != src.order:
        return False
    if any(not (0 <= x < tgt.order) for x in im):
        return False
    return all(
        im[src.mul(a, b)] == tgt.mul(im[a], im[b])
        for a in src.elements()
        for b in src.elements()
    )


# read again 841 times in a verify-all process, 373 in classify --json
@lru_cache(maxsize=None)
def conjugacy_classes(g: GroupTable) -> ConjClassPartition:
    # in the body, so only a cache miss pays the check
    _require("conjugacy_classes", g, GroupTable)
    seen = [False] * g.order
    classes: list[tuple[int, ...]] = []
    for a in g.elements():
        if seen[a]:
            continue
        orbit = sorted({g.conj(h, a) for h in g.elements()})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda cl: cl[0])
    class_of = [0] * g.order
    for i, cl in enumerate(classes):
        for x in cl:
            class_of[x] = i
    return ConjClassPartition(
        classes=tuple(classes),
        representatives=tuple(cl[0] for cl in classes),
        sizes=tuple(len(cl) for cl in classes),
        class_of=tuple(class_of),
    )


def center(g: GroupTable) -> tuple[int, ...]:
    """Elements commuting with each generator, so with everything, in index order."""
    _require("center", g, GroupTable)
    return tuple(
        a for a in g.elements()
        if all(g.mul(a, s) == g.mul(s, a) for s in g._gens)
    )


# read again 12 times in a verify-all process, once in classify --json
@lru_cache(maxsize=None)
def central_quotient(g: GroupTable, onto: GroupTable) -> GroupHom:
    """The projection g -> g/Z(g) = onto, a surjective hom.

    Cosets of the centre are labelled by their lowest-index member; the
    isomorphism onto `onto` is find_isomorphism's (IsoNotFound if none).
    """
    z = center(g)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for a in g.elements():
        if a not in coset_of:
            for c in z:
                coset_of[g.mul(a, c)] = len(reps)
            reps.append(a)
    mul = [[coset_of[g.mul(x, y)] for y in reps] for x in reps]
    q = GroupTable(f"{g.name}/Z", mul, [g.word(r) for r in reps])
    iso = find_isomorphism(q, onto)
    # no re-check: a -> aZ is a hom as Z is central, and iso a verified bijection
    return GroupHom(source=g, target=onto, image=tuple(iso(coset_of[a]) for a in g.elements()))


def find_isomorphism(a: GroupTable, b: GroupTable) -> GroupHom:
    """Explicit isomorphism a -> b: the first verified bijection found by
    trying generator images in lexicographic order.

    Raises IsoNotFound if none exists.  Intended for the tiny groups here.
    """
    _require("find_isomorphism", a, GroupTable)
    _require("find_isomorphism", b, GroupTable)
    if a.order != b.order:
        raise IsoNotFound(f"|{a.name}| = {a.order} != {b.order} = |{b.name}|")
    orders_b: dict[int, list[int]] = {}
    for x in b.elements():
        orders_b.setdefault(b.element_order(x), []).append(x)

    # generator images in lexicographic order, each of the right element order;
    # phi follows the walk, and phi(x s) = phi(x) phi(s) for the generators s
    # proves it a hom, as the g for which it holds for all x are closed
    gens = a._gens
    for images in product(*(orders_b.get(a.element_order(s), []) for s in gens)):
        phi = [0] * a.order
        for s, img in zip(gens, images):
            phi[s] = img
        for y, x, i in a._steps:
            phi[y] = b.mul(phi[x], images[i])
        if len(set(phi)) == a.order and all(
            phi[a.mul(x, s)] == b.mul(phi[x], phi[s]) for s in gens for x in a.elements()
        ):
            return GroupHom(source=a, target=b, image=tuple(phi))
    raise IsoNotFound(f"no isomorphism {a.name} -> {b.name}")


# ----------------------------------------------------------------------
# built-in presentations

def _dihedral(n: int, name: str, rot: str, ref: str) -> GroupTable:
    """Dihedral group of order 2n; element i + n*j is rot^i * ref^j."""
    size = 2 * n

    def idx(i: int, j: int) -> int:
        return (i % n) + n * (j % 2)

    mul = [[0] * size for _ in range(size)]
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = i1 - i2 if j1 else i1 + i2
                    mul[idx(i1, j1)][idx(i2, j2)] = idx(i, j1 + j2)

    def word(i: int, j: int) -> str:
        rpart = "" if i == 0 else (rot if i == 1 else f"{rot}{i}")
        spart = ref if j else ""
        return (rpart + spart) or "e"

    words = [word(i, j) for j in range(2) for i in range(n)]
    return GroupTable(name, mul, words)


def _pauli_group() -> GroupTable:
    """The 16-element group {i^k sigma_j}; element index = 4*j + k.

    sigma_a sigma_b = delta_ab 1 + i eps_abc sigma_c is sigma_(a XOR b) times
    i (a, b cyclic), -i (anti-cyclic) or 1; quantum.correction_group_check
    compares the table with the 16 exact matrices i^k sigma_j."""
    size = 16

    def idx(k: int, j: int) -> int:
        return 4 * j + (k % 4)

    mul = [[0] * size for _ in range(size)]
    for j1 in range(4):
        for j2 in range(4):
            phase = (1 if (j2 - j1) % 3 == 1 else 3) if j1 and j2 and j1 != j2 else 0
            for k1 in range(4):
                for k2 in range(4):
                    mul[idx(k1, j1)][idx(k2, j2)] = idx(k1 + k2 + phase, j1 ^ j2)

    letters = ("I", "X", "Y", "Z")
    phases = ("", "i", "-", "-i")
    words = [f"{phases[k]}{letters[j]}" for j in range(4) for k in range(4)]
    return GroupTable("Pauli1", mul, words)


def _cyclic_four() -> GroupTable:
    mul = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    return GroupTable("Z4", mul, ["e", "t", "t2", "t3"])


# read again 481 times in a verify-all process, 281 in classify --json
@lru_cache(maxsize=None)
def builtin_group(name: str) -> GroupTable:
    """One of the built-in groups K4, Z4, D4, D8, Pauli1 (cached instance)."""
    if name == "K4":
        return _dihedral(2, "K4", "a", "b")  # D2 is the Klein four-group
    if name == "Z4":
        return _cyclic_four()
    if name == "D4":
        return _dihedral(4, "D4", "r", "s")
    if name == "D8":
        return _dihedral(8, "D8", "z", "h")
    if name == "Pauli1":
        return _pauli_group()
    raise ValueError(f"unknown group {name!r}; expected one of {BUILTIN_NAMES}")
