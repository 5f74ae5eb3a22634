"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Every scalar in this package (character values, matrix entries, amplitudes,
probabilities) lives in Q(zeta_8), the degree-4 field containing i and
sqrt(2).  An element c0 + c1*z + c2*z^2 + c3*z^3, where z is a primitive
8th root of unity and z^4 = -1, is stored as four integer numerators over
one positive common denominator, (n0, n1, n2, n3) / d, always reduced so
that gcd(n0, n1, n2, n3, d) == 1.  Each value therefore has exactly one
representation, and equality and hashing compare it directly.  The public
accessors (``coeffs``, ``display_coeffs``, ``as_fraction``) still return
``Fraction``s.  All operations are exact; floats appear only in the
optional ``to_complex`` embedding.

Every Hermitian inner product in the package (character inner products,
<v|w>, tr(X^dag Y)) goes through one kernel, ``inner``, which sums weighted
conj(x) * y on the integer numerators and reduces once;
``matrices.ExactMatrix.apply`` sums M v the same way in a loop of its own.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from typing import Sequence, Union

RatLike = Union[int, Fraction]


def _raw(n: tuple[int, int, int, int], d: int) -> CycloNum:
    """A CycloNum from numerators and a denominator already in reduced form."""
    x = object.__new__(CycloNum)
    x._n = n
    x._d = d
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> CycloNum:
    """A CycloNum from numerators over a positive denominator, reduced by gcd."""
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        return _raw((n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _raw((n0, n1, n2, n3), d)


def _parts(x) -> "tuple[tuple[int, int, int, int], int] | None":
    """(numerators, denominator) of a CycloNum, int or Fraction, else None."""
    if isinstance(x, CycloNum):
        return x._n, x._d
    if isinstance(x, int):
        return (int(x), 0, 0, 0), 1  # int() turns a bool into a plain int
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0), x.denominator
    return None


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of a rational coefficient, in lowest terms."""
    if type(c) is int:
        return c, 1
    if type(c) is not Fraction:
        try:
            # a binary float is not the decimal it was typed as (0.1 is not
            # 1/10), and text is not a number, though Fraction parses both
            if isinstance(c, (float, str)):
                raise TypeError
            c = Fraction(c)  # bools, int and Fraction subclasses, Decimal and other Rationals
        except TypeError:
            raise TypeError(f"CycloNum coefficients must be exact rationals, got {type(c).__name__}") from None
    return c.numerator, c.denominator


class CycloNum:
    """An element of Q(zeta_8), immutable and hashable."""

    __slots__ = ("_n", "_d")

    def __init__(self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0, c3: RatLike = 0):
        if type(c0) is int and type(c1) is int and type(c2) is int and type(c3) is int:
            self._n = (c0, c1, c2, c3)
            self._d = 1
            return
        (n0, d0), (n1, d1), (n2, d2), (n3, d3) = map(_ratio, (c0, c1, c2, c3))
        # each ratio is reduced, so numerators over the lcm share no factor
        d = lcm(d0, d1, d2, d3)
        self._n = (n0 * (d // d0), n1 * (d // d1), n2 * (d // d2), n3 * (d // d3))
        self._d = d

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients (c0, c1, c2, c3) in the basis 1, z, z^2, z^3."""
        d = self._d
        return tuple(Fraction(n, d) for n in self._n)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> CycloNum:
        if type(other) is CycloNum:
            (b0, b1, b2, b3), db = other._n, other._d
        else:
            p = _parts(other)
            if p is None:
                return NotImplemented
            (b0, b1, b2, b3), db = p
        (a0, a1, a2, a3), da = self._n, self._d
        if da == db:
            if da == 1:
                return _raw((a0 + b0, a1 + b1, a2 + b2, a3 + b3), 1)
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _reduced(a0 * ma + b0 * mb, a1 * ma + b1 * mb,
                        a2 * ma + b2 * mb, a3 * ma + b3 * mb, da * ma)

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        n0, n1, n2, n3 = self._n
        return _raw((-n0, -n1, -n2, -n3), self._d)

    def __sub__(self, other) -> CycloNum:
        p = _parts(other)
        if p is None:
            return NotImplemented
        return self + (-_raw(*p))

    def __rsub__(self, other) -> CycloNum:
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _raw(*p) + (-self)

    def __mul__(self, other) -> CycloNum:
        if type(other) is CycloNum:
            (b0, b1, b2, b3), db = other._n, other._d
        else:
            p = _parts(other)
            if p is None:
                return NotImplemented
            (b0, b1, b2, b3), db = p
        a0, a1, a2, a3 = self._n
        # z^4 = -1 folds the degree 4..6 terms back with a sign flip
        # ExactMatrix.apply's loop repeats this product
        c0 = a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
        c1 = a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
        c2 = a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
        c3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        d = self._d * db
        if d == 1:
            return _raw((c0, c1, c2, c3), 1)
        return _reduced(c0, c1, c2, c3, d)

    __rmul__ = __mul__

    def conjugate(self) -> CycloNum:
        """Complex conjugation, z -> z^7 = -z^3."""
        n0, n1, n2, n3 = self._n
        return _raw((n0, -n3, -n2, -n1), self._d)

    def inverse(self) -> CycloNum:
        """Exact multiplicative inverse via the field norm.

        For x = a/d with a integral, let a' be a under z -> -z (= z^5, the
        automorphism that fixes i).  Then a * a' = p + q*i lies in Q(i), so
        1/a = a' * (p - q*i) / (p^2 + q^2).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        a0, a1, a2, a3 = self._n
        d = self._d
        p = a0 * a0 - a2 * a2 + 2 * a1 * a3
        q = 2 * a0 * a2 - a1 * a1 + a3 * a3
        return _reduced((a0 * p + a2 * q) * d, -(a1 * p + a3 * q) * d,
                        (a2 * p - a0 * q) * d, (a1 * q - a3 * p) * d,
                        p * p + q * q)

    def __truediv__(self, other) -> CycloNum:
        p = _parts(other)
        if p is None:
            return NotImplemented
        return self * _raw(*p).inverse()

    def __rtruediv__(self, other) -> CycloNum:
        p = _parts(other)
        if p is None:
            return NotImplemented
        return _raw(*p) * self.inverse()

    def abs_sq(self) -> CycloNum:
        """|x|^2 = conj(x) * x."""
        return self.conjugate() * self

    # ------------------------------------------------------------------
    # predicates and conversions

    def is_zero(self) -> bool:
        return not any(self._n)

    def is_rational(self) -> bool:
        _, n1, n2, n3 = self._n
        return n1 == 0 and n2 == 0 and n3 == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._n[0], self._d)

    def is_integer(self) -> bool:
        return self.is_rational() and self._d == 1

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        if self._d != 1:
            raise ValueError(f"{self!r} is not an integer")
        return self._n[0]

    def display_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients (a, b, c, d) with x = a + b*i + c*sqrt2 + d*i*sqrt2.

        Uses i = z^2, sqrt2 = z - z^3, i*sqrt2 = z + z^3.
        """
        n0, n1, n2, n3 = self._n
        d = self._d
        return (Fraction(n0, d), Fraction(n2, d),
                Fraction(n1 - n3, 2 * d), Fraction(n1 + n3, 2 * d))

    def to_complex(self) -> complex:
        a, b, c, d = self.display_coeffs()
        s = 2 ** 0.5
        return complex(float(a) + float(c) * s, float(b) + float(d) * s)

    # ------------------------------------------------------------------
    # comparison / hashing / formatting

    def __eq__(self, other) -> bool:
        if type(other) is CycloNum:
            return self._n == other._n and self._d == other._d
        p = _parts(other)
        if p is None:
            return NotImplemented
        return self._n == p[0] and self._d == p[1]

    def __hash__(self) -> int:
        # a rational value equals the int or Fraction it stands for, so it
        # must hash like it
        n0, n1, n2, n3 = self._n
        if n1 or n2 or n3:
            return hash((self._n, self._d))
        return hash(n0) if self._d == 1 else hash(Fraction(n0, self._d))

    def __repr__(self) -> str:
        c0, c1, c2, c3 = self.coeffs
        return f"CycloNum({c0}, {c1}, {c2}, {c3})"

    def __str__(self) -> str:
        parts: list[str] = []
        for coef, sym in zip(self.display_coeffs(), ("", "i", "√2", "i√2")):
            if coef == 0:
                continue
            mag = abs(coef)
            if not sym:
                body = str(mag)
            elif mag == 1:
                body = sym
            elif mag.denominator == 1:
                body = f"{mag}{sym}"
            else:
                body = f"({mag}){sym}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coef > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def as_cyclo(x) -> CycloNum:
    """x itself if it is a CycloNum, else CycloNum(x)."""
    return x if isinstance(x, CycloNum) else CycloNum(x)


def inner(xs: Sequence[CycloNum], ys: Sequence[CycloNum],
          weights: "Sequence[int] | None" = None, divisor: int = 1) -> CycloNum:
    """sum_k weights[k] * conj(xs[k]) * ys[k] / divisor, exactly.

    The one kernel behind every Hermitian inner product in the package
    (class functions, vectors, Hilbert-Schmidt).  It adds integer numerators
    over one running denominator, skips terms with a zero weight or factor,
    and reduces once at the end.  Weights are integers, default all 1; the
    divisor is a positive integer.  Unequal lengths raise ValueError, and
    operands of any other type a TypeError.
    """
    try:
        if divisor < 1:
            raise ValueError(f"divisor must be a positive integer, not {divisor}")
        if weights is None:
            weights = repeat(1, len(xs))
        elif not all(isinstance(w, int) for w in weights):
            # a None, "" or 0.0 weight would otherwise be skipped as zero
            raise TypeError
        s0 = s1 = s2 = s3 = 0
        den = 1
        for w, x, y in zip(weights, xs, ys, strict=True):
            a0, a1, a2, a3 = x._n
            b0, b1, b2, b3 = y._n
            if not (w and (a0 or a1 or a2 or a3) and (b0 or b1 or b2 or b3)):
                continue
            # the same running-denominator sum as ExactMatrix.apply's loop
            d = x._d * y._d
            if d != den:
                m = lcm(den, d)
                if m != den:
                    k = m // den
                    s0, s1, s2, s3, den = s0 * k, s1 * k, s2 * k, s3 * k, m
                w *= m // d
            # conj(x) = (a0, -a3, -a2, -a1), then the z^4 = -1 product with y
            s0 += w * (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3)
            s1 += w * (a0 * b1 + a1 * b2 + a2 * b3 - a3 * b0)
            s2 += w * (a0 * b2 + a1 * b3 - a2 * b0 - a3 * b1)
            s3 += w * (a0 * b3 - a1 * b0 - a2 * b1 - a3 * b2)
        return _reduced(s0, s1, s2, s3, den * divisor)
    except (AttributeError, TypeError):
        # reached only on a wrong operand, so the loop above pays no check
        _require_vector("inner", xs)
        _require_vector("inner", ys)
        raise TypeError("inner needs integer weights and an integer divisor") from None


def _require_vector(caller: str, v, kind: "type | tuple[type, ...]" = CycloNum) -> None:
    """A TypeError naming caller unless v is a tuple or list of kind."""
    if isinstance(v, (tuple, list)):
        bad = [x for x in v if not isinstance(x, kind)]
        if not bad:
            return
        got = f"a {type(v).__name__} holding {type(bad[0]).__name__}"
    else:
        got = type(v).__name__
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise TypeError(f"{caller} needs a tuple or list of {names}, got {got}")


ZERO = CycloNum(0)
ONE = CycloNum(1)
I = CycloNum(0, 0, 1, 0)
SQRT2 = CycloNum(0, 1, 0, -1)
INV_SQRT2 = CycloNum(0, Fraction(1, 2), 0, Fraction(-1, 2))


def sqrt_of_fraction(q: "Fraction | CycloNum") -> "CycloNum | None":
    """Exact square root of a non-negative rational, if it lies in Q(zeta_8).

    Returns r or r*sqrt2 with r rational, else None; q may be a CycloNum,
    read in place (None if it is irrational).  Works on q's numerator and
    denominator, which are coprime, so their square roots are too.
    """
    if type(q) is CycloNum:
        if not q.is_rational():
            return None
        n, d = q._n[0], q._d
    elif isinstance(q, (int, Fraction)):
        n, d = q.numerator, q.denominator
    else:
        # floats too: as in CycloNum, a binary float is not the decimal it was typed as
        raise TypeError(f"sqrt_of_fraction needs a Fraction or CycloNum, got {type(q).__name__}")
    if n < 0:
        return None
    a, b = isqrt(n), isqrt(d)
    if a * a == n and b * b == d:
        return _raw((a, 0, 0, 0), b)
    n, d = (n // 2, d) if n % 2 == 0 else (n, 2 * d)  # q/2 in lowest terms
    a, b = isqrt(n), isqrt(d)
    if a * a == n and b * b == d:
        return _raw((0, a, 0, -a), b)  # (a/b) * sqrt2, sqrt2 = z - z^3
    return None
