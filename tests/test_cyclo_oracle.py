"""Differential tests: repcheck.cyclo against the Fraction-based oracle.

``cyclo_oracle.CycloNum`` stores four ``Fraction`` coefficients and
multiplies with the schoolbook loop; ``repcheck.cyclo.CycloNum`` stores
integer numerators over one reduced denominator.  Every operation must give
the same value, the same public coefficients and the same text.  A seeded
plain-``random`` sweep always runs; the ``hypothesis`` half runs when that
package is installed.
"""

import random
from fractions import Fraction

import pytest

import cyclo_oracle as oracle
from repcheck.cyclo import CycloNum

GALOIS_KS = (1, 3, 5, 7)
POWERS = range(-3, 6)


def pair(coeffs):
    return CycloNum(*coeffs), oracle.CycloNum(*coeffs)


def same(new, old) -> None:
    """new and old denote the same field element, seen every public way."""
    assert isinstance(new, CycloNum) and isinstance(old, oracle.CycloNum)
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert new.display_coeffs() == old.display_coeffs()
    assert str(new) == str(old)
    assert repr(new) == repr(old)


def check_unary(coeffs) -> None:
    a, oa = pair(coeffs)
    same(a, oa)
    same(-a, -oa)
    same(a.conjugate(), oa.conjugate())
    for k in GALOIS_KS:
        same(a.galois(k), oa.galois(k))
    if oa.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        same(a.inverse(), oa.inverse())
    for n in POWERS:
        if n < 0 and oa.is_zero():
            continue
        same(a ** n, oa ** n)
    assert a.is_rational() == oa.is_rational()
    assert a.is_integer() == oa.is_integer()
    if oa.is_rational():
        assert a.as_fraction() == oa.as_fraction()
        assert a == oa.as_fraction() and oa.as_fraction() == a
        assert a == CycloNum(oa.as_fraction())
        if oa.is_integer():
            assert a == oa.as_int() and a.as_int() == oa.as_int()


def check_binary(xs, ys) -> None:
    a, oa = pair(xs)
    b, ob = pair(ys)
    same(a + b, oa + ob)
    same(a - b, oa - ob)
    same(a * b, oa * ob)
    if not ob.is_zero():
        same(a / b, oa / ob)
    assert (a == b) == (oa == ob)
    if oa == ob:
        assert hash(a) == hash(b)
    # a rational operand on either side, as an int or a Fraction
    for q in (ys[0], int(ys[0].numerator)):
        same(a + q, oa + q)
        same(q + a, q + oa)
        same(a - q, oa - q)
        same(q - a, q - oa)
        same(a * q, oa * q)
        same(q * a, q * oa)
        if q != 0:
            same(a / q, oa / q)
        if not oa.is_zero():
            same(q / a, q / oa)
        assert (a == q) == (oa == q)
        assert (q == a) == (q == oa)


# ----------------------------------------------------------------------
# seeded plain-random sweep: runs without hypothesis

def rand_fraction(rng: random.Random) -> Fraction:
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-50, 50), rng.randint(1, 50))


def rand_coeffs(rng: random.Random) -> tuple:
    return tuple(rand_fraction(rng) for _ in range(4))


def test_seeded_sweep_matches_oracle():
    rng = random.Random(2026)
    for _ in range(300):
        xs, ys = rand_coeffs(rng), rand_coeffs(rng)
        check_unary(xs)
        check_binary(xs, ys)


def test_edge_values_match_oracle():
    edges = [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (-1, 0, 0, 0),
        (Fraction(1, 2), 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, Fraction(1, 2), 0, Fraction(-1, 2)),
        (Fraction(1, 50), Fraction(-1, 49), Fraction(1, 48), Fraction(-1, 47)),
        (50, -50, 50, -50),
    ]
    for xs in edges:
        check_unary(xs)
        for ys in edges:
            check_binary(xs, ys)


# ----------------------------------------------------------------------
# hypothesis half

def test_hypothesis_matches_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    fractions = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(min_value=-50, max_value=50),
                  st.integers(min_value=1, max_value=50)),
    )
    coeffs = st.tuples(fractions, fractions, fractions, fractions)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(coeffs, coeffs)
    def check(xs, ys):
        check_unary(xs)
        check_binary(xs, ys)

    check()
