"""Dense exact matrices and vectors over Q(zeta_8).

Unitarity, Hermiticity and operator identities are equality tests, never
tolerance tests.  The protocols need nothing larger than 4x4; products and
tensor products skip zero operands as they meet them.  Hermitian inner
products go through ``cyclo.inner``.  ``apply`` keeps each row's non-zero
entries once per matrix and sums each entry of M v on their integer
numerators over one running denominator, reduced once.  A matrix keeps
its hash and its ``is_unitary`` answer once computed.  ``ray_key``
scales a matrix so its first non-zero entry is 1, one key per ray.  The
public constructor coerces entries to CycloNum and refuses ragged rows;
results built inside the class skip both steps.  The constructor,
``apply``, ``hs_inner``, ``outer``, ``proportionality``, ``ray_key`` and
the methods ``diag``, ``scale`` and ``tensor`` give a TypeError naming
themselves on a wrong-type operand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from operator import add
from typing import Iterable, Sequence, Union

from .cyclo import CycloNum, ONE, ZERO, _reduced, _require_vector, as_cyclo, inner
from .groups import _require

Scalar = Union[CycloNum, int, Fraction]
_SCALARS = (CycloNum, int, Fraction)
Vector = tuple[CycloNum, ...]


class ExactMatrix:
    """An immutable rows x cols matrix with CycloNum entries."""

    __slots__ = ("rows", "cols", "entries", "_hash", "_terms", "_unitary")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        rows = _coerced("ExactMatrix", entries)
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix")
        self._store(rows, cols)

    @classmethod
    def _of(cls, entries: tuple[Vector, ...], cols: int) -> ExactMatrix:
        """A matrix from tuple rows of CycloNum, each of length cols, unchecked."""
        m = object.__new__(cls)
        m._store(entries, cols)
        return m

    def _store(self, entries: tuple[Vector, ...], cols: int) -> None:
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols if entries else 0  # as the public constructor: no rows, no columns
        self._hash = None  # computed on first use: most matrices are never hashed
        self._terms = None  # each row's non-zero entries, built on the first apply
        self._unitary = None  # U^dag U = 1, decided on the first is_unitary

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        rows = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        return cls._of(rows, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> ExactMatrix:
        return cls._of(((ZERO,) * cols,) * rows, cols)

    @classmethod
    def diag(cls, values: Sequence[Scalar]) -> ExactMatrix:
        _require("ExactMatrix.diag", values, (tuple, list))
        (values,) = _coerced("ExactMatrix.diag", (values,))
        n = len(values)
        return cls._of(tuple(tuple(x if i == j else ZERO for j in range(n))
                             for i, x in enumerate(values)), n)

    def __getitem__(self, ij: tuple[int, int]) -> CycloNum:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def _map(self, f, *others: ExactMatrix) -> ExactMatrix:
        """f applied entrywise to self and others, which share self's shape."""
        rows = zip(self.entries, *(o.entries for o in others))
        return ExactMatrix._of(tuple(tuple(map(f, *rs)) for rs in rows), self.cols)

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_shape(other)
        return self._map(CycloNum.__add__, other)

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_shape(other)
        return self._map(CycloNum.__sub__, other)

    def scale(self, c: Scalar) -> ExactMatrix:
        _require("ExactMatrix.scale", c, _SCALARS)
        return self._map(as_cyclo(c).__mul__)

    def __matmul__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, other_row in zip(row, other.entries):
                if not a.is_zero():
                    for j, b in enumerate(other_row):
                        if not b.is_zero():
                            acc[j] = acc[j] + a * b
            out.append(tuple(acc))
        return ExactMatrix._of(tuple(out), other.cols)

    def _check_shape(self, other: ExactMatrix) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def transpose(self) -> ExactMatrix:
        return ExactMatrix._of(tuple(zip(*self.entries)), self.rows)

    def conj(self) -> ExactMatrix:
        return self._map(CycloNum.conjugate)

    def dagger(self) -> ExactMatrix:
        return self.conj().transpose()

    def trace(self) -> CycloNum:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return _total([self.entries[i][i] for i in range(self.rows)])

    def tensor(self, other: ExactMatrix) -> ExactMatrix:
        """Kronecker product; row-major qubit convention."""
        _require("ExactMatrix.tensor", other, ExactMatrix)
        width = other.cols
        out = []
        for ra in self.entries:
            for rb in other.entries:
                row = [ZERO] * (self.cols * width)
                for i, a in enumerate(ra):
                    if not a.is_zero():
                        for j, b in enumerate(rb):
                            if not b.is_zero():
                                row[i * width + j] = a * b
                out.append(tuple(row))
        return ExactMatrix._of(tuple(out), self.cols * width)

    def apply(self, v: Vector) -> Vector:
        """M v, entry i summed on integer numerators over the non-zero entries
        of row i, kept once per matrix as (column, numerators, denominator),
        and reduced once."""
        try:
            if len(v) != self.cols:
                raise ValueError("vector length mismatch")
            rows = self._terms
            if rows is None:
                rows = self._terms = tuple(
                    tuple((j, x._n, x._d) for j, x in enumerate(row) if not x.is_zero())
                    for row in self.entries)
            out = []
            for row in rows:
                s0 = s1 = s2 = s3 = 0
                den = 1
                for j, (a0, a1, a2, a3), da in row:
                    y = v[j]
                    b0, b1, b2, b3 = y._n
                    # CycloNum.__mul__'s product, summed over a running denominator
                    # as in cyclo.inner: a fix to either belongs here too
                    t0 = a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
                    t1 = a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
                    t2 = a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
                    t3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
                    d = da * y._d
                    if d != den:
                        m = lcm(den, d)
                        if m != den:
                            k = m // den
                            s0, s1, s2, s3, den = s0 * k, s1 * k, s2 * k, s3 * k, m
                        if m != d:
                            k = m // d
                            t0, t1, t2, t3 = t0 * k, t1 * k, t2 * k, t3 * k
                    s0 += t0
                    s1 += t1
                    s2 += t2
                    s3 += t3
                out.append(_reduced(s0, s1, s2, s3, den))
        except (AttributeError, TypeError):
            # reached only on a wrong operand, so the loop above pays no check
            _require_vector("ExactMatrix.apply", v)
            raise
        return tuple(out)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def is_unitary(self) -> bool:
        if self._unitary is None:
            self._unitary = self.dagger() @ self == ExactMatrix.identity(self.rows)
        return self._unitary

    def is_identity(self) -> bool:
        return self == ExactMatrix.identity(self.rows)

    def __str__(self) -> str:
        cells = [[str(x) for x in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def _coerced(caller: str, entries: Iterable[Iterable[Scalar]]) -> tuple[Vector, ...]:
    """entries as tuple rows of CycloNum; a wrong entry is a TypeError naming caller."""
    try:
        return tuple(tuple(as_cyclo(x) for x in row) for row in entries)
    except TypeError as exc:
        # reached only on a wrong entry, so the loop above pays no check
        raise TypeError(f"{caller}: {exc}") from None


def _total(terms: list[CycloNum]) -> CycloNum:
    """The sum of terms, starting from the first rather than from ZERO."""
    return reduce(add, terms) if terms else ZERO


def hs_inner(x: ExactMatrix, y: ExactMatrix) -> CycloNum:
    """Hilbert-Schmidt inner product tr(X^dag Y) = sum_ij conj(X_ij) Y_ij."""
    _require("hs_inner", x, ExactMatrix)
    _require("hs_inner", y, ExactMatrix)
    x._check_shape(y)
    return inner(_flat(x), _flat(y))


def _flat(m: ExactMatrix) -> Vector:
    return tuple(chain.from_iterable(m.entries))


def outer(v: Vector, w: Vector) -> ExactMatrix:
    """|v><w| as an exact matrix; entries may be CycloNum, int or Fraction."""
    _require_vector("outer", v, _SCALARS)
    _require_vector("outer", w, _SCALARS)
    return ExactMatrix([[a * b.conjugate() for b in w] for a in v])


def proportionality(v: Vector, w: Vector) -> "CycloNum | None":
    """The scalar c with v = c*w, or None if no such scalar exists.

    Exactness makes this a clean equality check; c lives in Q(zeta_8).
    A zero v against a non-zero w returns 0, so ray checks should also
    reject zero scalars.  v's entries may also be int or Fraction.
    """
    _require_vector("proportionality", v, _SCALARS)
    _require_vector("proportionality", w)
    if len(v) != len(w):
        return None
    pivot = next((i for i, x in enumerate(w) if not x.is_zero()), None)
    if pivot is None:
        return None if any(x != 0 for x in v) else ONE
    c = v[pivot] * w[pivot].inverse()
    return c if all(x == c * y for x, y in zip(v, w)) else None


def ray_key(m: ExactMatrix) -> ExactMatrix:
    """m scaled so its first non-zero entry (row-major) is 1.

    Two non-zero matrices are proportional exactly when their keys are
    equal.  A zero matrix has no ray and raises ValueError.
    """
    _require("ray_key", m, ExactMatrix)
    pivot = next((x for x in _flat(m) if not x.is_zero()), None)
    if pivot is None:
        raise ValueError("a zero matrix has no ray")
    return m.scale(pivot.inverse())
