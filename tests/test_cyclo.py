"""Field arithmetic in Q(zeta_8): exactness is the whole point."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from repcheck.cyclo import (
    CycloNum,
    I,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    sqrt_of_fraction,
)

RNG = random.Random(97)
Z = CycloNum(0, 1, 0, 0)  # the primitive 8th root of unity z


def power(x, n):
    """x^n for n >= 0 by repeated multiplication."""
    result = ONE
    for _ in range(n):
        result = result * x
    return result


def rand_cyclo():
    return CycloNum(*(Fraction(RNG.randint(-8, 8), RNG.randint(1, 6)) for _ in range(4)))


def test_embedding_constants():
    assert I == Z * Z
    assert SQRT2 == Z - Z * Z * Z
    assert INV_SQRT2 * SQRT2 == ONE
    assert I * I == CycloNum(-1)
    assert SQRT2 * SQRT2 == CycloNum(2)


def test_zeta_powers_cycle():
    assert power(Z, 4) == CycloNum(-1)
    assert power(Z, 8) == ONE
    for k in range(16):
        coeffs = [0, 0, 0, 0]
        coeffs[k % 4] = 1 if k % 8 < 4 else -1
        assert power(Z, k) == CycloNum(*coeffs)


def test_conjugation_sends_zeta_to_its_inverse():
    assert Z.conjugate() == power(Z, 7)
    assert Z.conjugate() * Z == ONE
    assert I.conjugate() == -I
    assert SQRT2.conjugate() == SQRT2  # sqrt2 is real


def test_field_axioms_on_random_elements():
    for _ in range(200):
        a, b, c = rand_cyclo(), rand_cyclo(), rand_cyclo()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a


def test_multiplicative_inverses():
    for _ in range(100):
        a = rand_cyclo()
        if a.is_zero():
            continue
        assert a * a.inverse() == ONE
        assert (ONE / a) * a == ONE
    # matched on the message: without the raise, the division by the zero
    # norm is a ZeroDivisionError too
    with pytest.raises(ZeroDivisionError, match=r"^inverse of zero in Q\(zeta_8\)$"):
        ZERO.inverse()


def test_abs_sq_is_conj_times_self():
    for _ in range(50):
        a = rand_cyclo()
        assert a.abs_sq() == a.conjugate() * a


def test_display_basis_roundtrip():
    for _ in range(50):
        x = rand_cyclo()
        a, b, c, d = x.display_coeffs()
        rebuilt = (
            CycloNum(a)
            + CycloNum(b) * I
            + CycloNum(c) * SQRT2
            + CycloNum(d) * I * SQRT2
        )
        assert rebuilt == x


def test_float_embedding_against_cmath():
    zeta_f = cmath.exp(1j * cmath.pi / 4)
    for _ in range(30):
        x = rand_cyclo()
        expected = sum(
            complex(coef) * zeta_f ** k for k, coef in enumerate(x.coeffs)
        )
        assert abs(x.to_complex() - expected) < 1e-12


def test_rational_predicates():
    assert CycloNum(Fraction(3, 4)).is_rational()
    assert CycloNum(5).is_integer()
    assert CycloNum(5).as_int() == 5
    assert not I.is_rational()
    with pytest.raises(ValueError, match="is not rational$"):
        I.as_fraction()
    with pytest.raises(ValueError):
        CycloNum(Fraction(1, 2)).as_int()


def test_str_formats():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(I) == "i"
    assert str(SQRT2) == "√2"
    assert str(CycloNum(0, 2, 0, -2)) == "2√2"
    assert str(CycloNum(1, 0, 1, 0)) == "1 + i"
    assert str(INV_SQRT2) == "(1/2)√2"


def test_float_embedding_is_a_ring_homomorphism():
    assert abs(ONE.to_complex() - 1) < 1e-12
    for _ in range(30):
        a, b = rand_cyclo(), rand_cyclo()
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-12
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-12
        assert abs((-a).to_complex() + a.to_complex()) < 1e-12


@pytest.mark.parametrize(
    "q,expected",
    [
        (Fraction(1, 4), CycloNum(Fraction(1, 2))),
        (Fraction(9), CycloNum(3)),
        (Fraction(1, 8), INV_SQRT2 * CycloNum(Fraction(1, 2))),
        (Fraction(2), SQRT2),
        (Fraction(0), ZERO),
    ],
)
def test_sqrt_of_fraction_known_values(q, expected):
    root = sqrt_of_fraction(q)
    assert root == expected
    assert root * root == CycloNum(q)


def test_sqrt_of_fraction_outside_field():
    assert sqrt_of_fraction(Fraction(1, 3)) is None
    assert sqrt_of_fraction(Fraction(-1)) is None


# ----------------------------------------------------------------------
# canonical form: numerators over one reduced, positive denominator

def assert_canonical(x: CycloNum) -> None:
    assert len(x._n) == 4 and all(type(n) is int for n in x._n)
    assert type(x._d) is int and x._d > 0
    assert math.gcd(*x._n, x._d) == 1


def test_every_op_leaves_canonical_form():
    for _ in range(100):
        a, b = rand_cyclo(), rand_cyclo()
        q = Fraction(RNG.randint(-8, 8), RNG.randint(1, 6))
        results = [a, b, a + b, a - b, a * b, -a, a.conjugate(), a.abs_sq(),
                   a + q, q - a, a * q, a * a, a + 3, 3 * a]
        if not b.is_zero():
            results += [a / b, b.inverse(), (b * b).inverse(), 1 / b]
        for x in results:
            assert_canonical(x)
    assert_canonical(a - a)
    assert (a - a)._n == (0, 0, 0, 0) and (a - a)._d == 1


def test_one_value_built_three_ways_is_one_element():
    a = rand_cyclo()
    b = rand_cyclo() + CycloNum(Fraction(1, 6), 0, 0, Fraction(-5, 4))
    half = [
        CycloNum(Fraction(2, 4)),
        CycloNum(1) / 2,
        (CycloNum(Fraction(1, 2)) + b) - b,
        CycloNum(Fraction(3, 7)) * CycloNum(Fraction(7, 6)),
        SQRT2 * SQRT2 / 4,
    ]
    for x in half:
        assert_canonical(x)
        assert x == half[0] == Fraction(1, 2)
        assert hash(x) == hash(half[0])
    assert len(set(half)) == 1
    again = [a, (a + b) - b, (a * b) / b, a.conjugate().conjugate(), -(-a)]
    assert len(set(again)) == 1
    assert len({(x, "key") for x in again}) == 1


@pytest.mark.parametrize(
    "plain", [0, 1, -3, 2**70, True, False, Fraction(1, 2), Fraction(-7, 3)], ids=repr
)
def test_a_rational_value_hashes_like_the_int_or_fraction_it_equals(plain):
    x = CycloNum(plain)
    assert x == plain and hash(x) == hash(plain)
    assert x in {plain} and plain in {x}
    assert {x: "cyclo"}.get(plain) == "cyclo" and {plain: "plain"}.get(x) == "plain"
    assert len({x, plain}) == 1


@pytest.mark.parametrize("args", [(0.1,), (1, 0.5), (0, 0, 0, 2.0)], ids=repr)
def test_a_binary_float_coefficient_is_refused(args):
    # 0.1 is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="got float$"):
        CycloNum(*args)


@pytest.mark.parametrize("args", [("a",), ("1/2",), (0, "1/2"), (None,)], ids=repr)
def test_a_coefficient_that_is_not_a_number_is_refused_by_name(args):
    # Fraction would parse "1/2" as one half; a coefficient is a number, not text
    kind = type(args[-1]).__name__
    with pytest.raises(TypeError, match=f"^CycloNum coefficients must be exact rationals, got {kind}$"):
        CycloNum(*args)


@pytest.mark.parametrize("q", [0.25, "1/4", None], ids=repr)
def test_sqrt_of_fraction_refuses_what_is_not_an_exact_rational(q):
    with pytest.raises(TypeError, match=f"sqrt_of_fraction needs a Fraction or CycloNum, got {type(q).__name__}$"):
        sqrt_of_fraction(q)
