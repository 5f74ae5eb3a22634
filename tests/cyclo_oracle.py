"""Reference implementation of Q(zeta_8) arithmetic for differential tests.

This is the original ``repcheck.cyclo`` module, kept as it was: every
element is stored as four ``fractions.Fraction`` coefficients
(c0, c1, c2, c3) meaning c0 + c1*z + c2*z^2 + c3*z^3, with z^4 = -1, and
multiplication is the plain schoolbook loop.  It is slow but obviously
right, so ``tests/test_cyclo_oracle.py`` checks the integer-numerator
``repcheck.cyclo.CycloNum`` against it.  Do not optimise it.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]

_ZETA_FLOAT = cmath.exp(1j * cmath.pi / 4)


class CycloNum:
    """An element of Q(zeta_8), immutable and hashable."""

    __slots__ = ("_c",)

    def __init__(self, c0: RatLike = 0, c1: RatLike = 0, c2: RatLike = 0, c3: RatLike = 0):
        self._c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients (c0, c1, c2, c3) in the basis 1, z, z^2, z^3."""
        return self._c

    @classmethod
    def from_rational(cls, q: RatLike) -> CycloNum:
        return cls(q, 0, 0, 0)

    @classmethod
    def zeta(cls, power: int = 1) -> CycloNum:
        """z**power, reduced by z^4 = -1."""
        k = power % 8
        sign = 1 if k < 4 else -1
        coeffs = [0, 0, 0, 0]
        coeffs[k % 4] = sign
        return cls(*coeffs)

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _coerce(x) -> "CycloNum | None":
        if isinstance(x, CycloNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNum(x)
        return None

    def __add__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        return CycloNum(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self) -> CycloNum:
        return CycloNum(-self._c[0], -self._c[1], -self._c[2], -self._c[3])

    def __sub__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        out = [Fraction(0)] * 4
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] == 0:
                    continue
                k = i + j
                if k < 4:
                    out[k] += a[i] * b[j]
                else:
                    out[k - 4] -= a[i] * b[j]
        return CycloNum(*out)

    __rmul__ = __mul__

    def galois(self, k: int) -> CycloNum:
        """Apply the automorphism z -> z**k (k odd)."""
        if k % 2 == 0:
            raise ValueError(f"z -> z^{k} is not a field automorphism")
        out = [Fraction(0)] * 4
        for i, ci in enumerate(self._c):
            if ci == 0:
                continue
            m = (i * k) % 8
            if m < 4:
                out[m] += ci
            else:
                out[m - 4] -= ci
        return CycloNum(*out)

    def conjugate(self) -> CycloNum:
        """Complex conjugation, z -> z^7 = -z^3."""
        return self.galois(7)

    def inverse(self) -> CycloNum:
        """Exact multiplicative inverse via the field norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        cofactor = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * cofactor
        if not norm.is_rational():
            raise ArithmeticError("field norm failed to be rational")
        n = norm._c[0]
        return CycloNum(cofactor._c[0] / n, cofactor._c[1] / n,
                        cofactor._c[2] / n, cofactor._c[3] / n)

    def __truediv__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> CycloNum:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> CycloNum:
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def abs_sq(self) -> CycloNum:
        """|x|^2 = conj(x) * x."""
        return self.conjugate() * self

    # ------------------------------------------------------------------
    # predicates and conversions

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._c)

    def is_rational(self) -> bool:
        return self._c[1] == 0 and self._c[2] == 0 and self._c[3] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self._c[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self._c[0].denominator == 1

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return f.numerator

    def display_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coefficients (a, b, c, d) with x = a + b*i + c*sqrt2 + d*i*sqrt2.

        Uses i = z^2, sqrt2 = z - z^3, i*sqrt2 = z + z^3.
        """
        c0, c1, c2, c3 = self._c
        return (c0, c2, (c1 - c3) / 2, (c1 + c3) / 2)

    def to_complex(self) -> complex:
        a, b, c, d = self.display_coeffs()
        s = 2 ** 0.5
        return complex(float(a) + float(c) * s, float(b) + float(d) * s)

    # ------------------------------------------------------------------
    # comparison / hashing / formatting

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"CycloNum({self._c[0]}, {self._c[1]}, {self._c[2]}, {self._c[3]})"

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


ZERO = CycloNum(0)
ONE = CycloNum(1)
I = CycloNum(0, 0, 1, 0)
SQRT2 = CycloNum(0, 1, 0, -1)
INV_SQRT2 = CycloNum(0, Fraction(1, 2), 0, Fraction(-1, 2))


def sqrt_of_fraction(q: Fraction) -> "CycloNum | None":
    """Exact square root of a non-negative rational, if it lies in Q(zeta_8).

    Returns r or r*sqrt2 with r rational, else None.
    """
    if q < 0:
        return None
    if q == 0:
        return ZERO

    def _rat_sqrt(f: Fraction) -> "Fraction | None":
        num = _isqrt_exact(f.numerator)
        den = _isqrt_exact(f.denominator)
        if num is None or den is None:
            return None
        return Fraction(num, den)

    r = _rat_sqrt(q)
    if r is not None:
        return CycloNum.from_rational(r)
    r = _rat_sqrt(q / 2)
    if r is not None:
        return CycloNum.from_rational(r) * SQRT2
    return None


def _isqrt_exact(n: int) -> "int | None":
    import math

    r = math.isqrt(n)
    return r if r * r == n else None
