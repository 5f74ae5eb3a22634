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
from math import gcd

import pytest

import cyclo_oracle as oracle
from repcheck.characters import ClassFunction, char_table, inner_product
from repcheck.cyclo import SQRT2, CycloNum, inner, sqrt_of_fraction
from repcheck.groups import BUILTIN_NAMES, builtin_group, conjugacy_classes
from repcheck.matrices import ExactMatrix, hs_inner


def zeta(k):
    """z^k as a repcheck CycloNum, read off the oracle's own."""
    return CycloNum(*oracle.CycloNum.zeta(k).coeffs)


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
    if oa.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        same(a.inverse(), oa.inverse())
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


# ----------------------------------------------------------------------
# the Hermitian inner-product kernel, against sums of oracle products

CLASS_SIZES = sorted({s for name in BUILTIN_NAMES
                      for s in conjugacy_classes(builtin_group(name)).sizes})


def to_oracle(x: CycloNum) -> oracle.CycloNum:
    return oracle.CycloNum(*x.coeffs)


def naive_inner(xs, ys, weights, divisor) -> oracle.CycloNum:
    """sum_k w_k conj(x_k) y_k / divisor, one oracle operation at a time."""
    total = oracle.CycloNum(0)
    for w, x, y in zip(weights, xs, ys, strict=True):
        total = total + oracle.CycloNum(w) * to_oracle(x).conjugate() * to_oracle(y)
    return total / divisor


def assert_canonical(x: CycloNum) -> None:
    assert all(type(n) is int for n in x._n) and type(x._d) is int and x._d > 0
    assert gcd(*x._n, x._d) == 1


def check_inner(xs, ys, weights, divisor) -> None:
    got = inner(xs, ys, weights, divisor)
    want = naive_inner(xs, ys, [1] * len(xs) if weights is None else weights, divisor)
    same(got, want)
    assert_canonical(got)


def rand_entry(rng: random.Random) -> CycloNum:
    """A zero entry a fifth of the time, else mixed-denominator coefficients."""
    if rng.random() < 0.2:
        return CycloNum(0)
    return CycloNum(*rand_coeffs(rng))


def rand_weight(rng: random.Random) -> int:
    return rng.choice([0, rng.choice(CLASS_SIZES), rng.randint(-16, 16)])


def test_inner_kernel_seeded_sweep_matches_oracle():
    rng = random.Random(606)
    for n in range(17):
        for _ in range(12):
            xs = tuple(rand_entry(rng) for _ in range(n))
            ys = tuple(rand_entry(rng) for _ in range(n))
            weights = rng.choice([None, [rand_weight(rng) for _ in range(n)]])
            divisor = rng.randint(1, 16)
            check_inner(xs, ys, weights, divisor)
            check_inner(xs, xs, weights, divisor)


def test_inner_kernel_edge_values():
    z = zeta(1)
    half_sqrt2 = CycloNum(0, Fraction(1, 2), 0, Fraction(-1, 2))
    cases = [
        ((), ()),
        ((CycloNum(0),) * 5, tuple(CycloNum(k) for k in range(5))),
        ((1 + z, CycloNum(1)), (1 + z, CycloNum(1))),  # |v|^2 = 3 + sqrt2
        ((half_sqrt2, CycloNum(Fraction(1, 3), 0, Fraction(2, 7), 0)),
         (CycloNum(0, Fraction(5, 6), 0, 0), CycloNum(Fraction(-4, 9), 0, 0, Fraction(1, 8)))),
        (tuple(zeta(k) for k in range(8)), tuple(zeta(3 * k) for k in range(8))),
    ]
    for xs, ys in cases:
        for weights in (None, [0] * len(xs), [len(xs) - k for k in range(len(xs))]):
            for divisor in range(1, 17):
                check_inner(xs, ys, weights, divisor)
                check_inner(xs, xs, weights, divisor)
    norm = inner(*cases[2])
    assert norm == 3 + SQRT2 and not norm.is_rational()
    assert inner(*cases[1]) == 0 and inner(*cases[1])._d == 1


def test_inner_kernel_refuses_unequal_lengths_and_bad_divisors():
    one = CycloNum(1)
    with pytest.raises(ValueError):
        inner((one, one), (one,))
    with pytest.raises(ValueError):
        inner((one,), (one,), weights=(1, 2))
    for divisor in (0, -3):
        with pytest.raises(ValueError):
            inner((one,), (one,), divisor=divisor)


def test_inner_kernel_hypothesis_matches_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    fractions = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(min_value=-50, max_value=50),
                  st.integers(min_value=1, max_value=50)),
    )
    entries = st.one_of(
        st.just(CycloNum(0)),
        st.builds(CycloNum, fractions, fractions, fractions, fractions),
    )
    weights = st.one_of(st.just(0), st.sampled_from(CLASS_SIZES),
                        st.integers(min_value=-16, max_value=16))

    @st.composite
    def cases(draw):
        n = draw(st.integers(min_value=0, max_value=16))
        xs = draw(st.lists(entries, min_size=n, max_size=n))
        ys = draw(st.lists(entries, min_size=n, max_size=n))
        ws = draw(st.one_of(st.none(), st.lists(weights, min_size=n, max_size=n)))
        return xs, ys, ws, draw(st.integers(min_value=1, max_value=16))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        xs, ys, ws, divisor = case
        check_inner(xs, ys, ws, divisor)
        check_inner(xs, xs, ws, divisor)

    check()


def test_inner_product_matches_the_class_size_weighted_sum():
    rng = random.Random(607)
    for name in BUILTIN_NAMES:
        g = builtin_group(name)
        sizes = conjugacy_classes(g).sizes
        fs = list(char_table(g).irreducibles)
        fs += [ClassFunction(g, tuple(rand_entry(rng) for _ in sizes)) for _ in range(6)]
        for a in fs:
            for b in fs:
                same(inner_product(a, b), naive_inner(a.values, b.values, sizes, g.order))


def test_hs_inner_matches_the_entrywise_sum():
    rng = random.Random(609)
    for rows, cols in [(1, 1), (2, 2), (2, 3), (4, 4), (3, 1), (4, 2)]:
        for _ in range(4):
            x = ExactMatrix([[rand_entry(rng) for _ in range(cols)] for _ in range(rows)])
            y = ExactMatrix([[rand_entry(rng) for _ in range(cols)] for _ in range(rows)])
            same(hs_inner(x, y), oracle_hs(x, y))
    square = ExactMatrix([[CycloNum(1)] * 2] * 2)
    for other in (ExactMatrix([[CycloNum(1)] * 3] * 2), ExactMatrix([[CycloNum(1)] * 2] * 3)):
        with pytest.raises(ValueError):
            hs_inner(square, other)


# ----------------------------------------------------------------------
# the matrix kernels against triple loops in oracle arithmetic: apply sums
# integer numerators in a loop of its own, and @ uses the CycloNum + and *
# that test_matrices' dense references use too, so neither has an
# independent reference there

def oracle_matmul(a: ExactMatrix, b: ExactMatrix) -> list:
    return [[sum((to_oracle(a[i, k]) * to_oracle(b[k, j]) for k in range(a.cols)),
                 oracle.CycloNum(0))
             for j in range(b.cols)]
            for i in range(a.rows)]


def oracle_apply(m: ExactMatrix, v) -> list:
    return [sum((to_oracle(m[i, j]) * to_oracle(v[j]) for j in range(m.cols)), oracle.CycloNum(0))
            for i in range(m.rows)]


def oracle_hs(x: ExactMatrix, y: ExactMatrix):
    return sum((to_oracle(x[i, j]).conjugate() * to_oracle(y[i, j])
                for i in range(x.rows) for j in range(x.cols)), oracle.CycloNum(0))


def check_matrix_kernels(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix, v) -> None:
    """a @ b, a.apply(v) and hs_inner(a, c) entry by entry against the oracle;
    a is n x k, b is k x m, c is n x k and v has length k."""
    product, want = a @ b, oracle_matmul(a, b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            same(product[i, j], want[i][j])
            assert_canonical(product[i, j])
    got = a.apply(v)
    assert len(got) == a.rows
    for x, want_x in zip(got, oracle_apply(a, v)):
        same(x, want_x)
        assert_canonical(x)
    for x, y in ((a, c), (a, a), (c, a)):
        got = hs_inner(x, y)
        same(got, oracle_hs(x, y))
        assert_canonical(got)


def rand_kernel_entry(rng: random.Random) -> CycloNum:
    """Zero, a mixed-denominator value, or a value in Q(sqrt2)."""
    kind = rng.random()
    if kind < 0.25:
        return CycloNum(0)
    if kind < 0.5:
        q, r = rand_fraction(rng), rand_fraction(rng)
        return CycloNum(q, r, 0, -r)  # q + r*sqrt2
    return CycloNum(*rand_coeffs(rng))


def rand_kernel_matrix(rng: random.Random, rows: int, cols: int) -> ExactMatrix:
    """A random matrix whose row i0 and column j0 are zeroed, each half the time."""
    entries = [[rand_kernel_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        entries[rng.randrange(rows)] = [CycloNum(0)] * cols
    if rng.random() < 0.5:
        j0 = rng.randrange(cols)
        for row in entries:
            row[j0] = CycloNum(0)
    return ExactMatrix(entries)


KERNEL_SHAPES = [(n, k, m) for n in range(1, 5) for k in range(1, 5) for m in range(1, 5)]


def test_matrix_kernels_seeded_sweep_matches_oracle():
    rng = random.Random(610)
    for n, k, m in KERNEL_SHAPES:
        for _ in range(3):
            a, b, c = (rand_kernel_matrix(rng, n, k), rand_kernel_matrix(rng, k, m),
                       rand_kernel_matrix(rng, n, k))
            check_matrix_kernels(a, b, c, tuple(rand_kernel_entry(rng) for _ in range(k)))


def test_matrix_kernels_edge_values_match_oracle():
    z = zeta(1)
    half_sqrt2 = CycloNum(0, Fraction(1, 2), 0, Fraction(-1, 2))
    tiny = CycloNum(Fraction(1, 50), Fraction(-1, 49), Fraction(1, 48), Fraction(-1, 47))
    big = CycloNum(50, -50, 50, -50)
    zero, one = CycloNum(0), CycloNum(1)
    matrices = [
        ExactMatrix([[zero]]),
        ExactMatrix([[tiny]]),
        ExactMatrix.zeros(4, 4),
        ExactMatrix.identity(4),
        ExactMatrix([[half_sqrt2, half_sqrt2], [half_sqrt2, -half_sqrt2]]),  # Hadamard
        ExactMatrix([[zero, zero, zero], [tiny, zero, big], [zero, zero, zero]]),
        ExactMatrix([[zeta(k + 2 * j) for j in range(4)] for k in range(4)]),
        ExactMatrix([[tiny, z, zero, big], [zero, zero, zero, zero],
                     [SQRT2, zero, half_sqrt2, tiny], [big, zero, 1 + z, half_sqrt2]]),
    ]
    vectors = {n: [(zero,) * n, (one,) * n, (tiny, big, half_sqrt2, z)[:n],
                   (big, zero, zero, tiny)[:n], tuple(zeta(3 * j) for j in range(n))]
               for n in range(1, 5)}
    for a in matrices:
        for b in matrices:
            if b.rows == a.cols:
                for v in vectors[a.cols]:
                    check_matrix_kernels(a, b, b.transpose() if a.rows == b.cols else a, v)


# ----------------------------------------------------------------------
# operand and constructor types: CycloNum operands take a fast path, every
# other operand the coercion path, and both must agree with the oracle

RATIONAL_OPERANDS = (0, 1, -3, True, False, Fraction(0), Fraction(-7, 4), Fraction(6, 3))


def test_rational_operands_on_either_side_match_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        a, oa = pair(rand_coeffs(rng))
        for q in RATIONAL_OPERANDS:
            for got, want in ((a + q, oa + q), (q + a, q + oa), (a - q, oa - q),
                              (q - a, q - oa), (a * q, oa * q), (q * a, q * oa)):
                same(got, want)
                assert_canonical(got)
            assert (a == q) == (oa == q)
            assert (q == a) == (q == oa)
            assert (a == q) == (a == CycloNum(q))


def test_constructor_mixing_int_bool_and_fraction_matches_oracle():
    rng = random.Random(5151)
    kinds = (
        lambda: rng.randint(-9, 9),
        lambda: rng.choice((True, False)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )
    for _ in range(300):
        cs = tuple(rng.choice(kinds)() for _ in range(4))
        x = CycloNum(*cs)
        same(x, oracle.CycloNum(*cs))
        assert_canonical(x)
        assert x == CycloNum(*(Fraction(c) for c in cs))
        assert hash(x) == hash(CycloNum(*(Fraction(c) for c in cs)))


def test_equal_numerators_over_different_denominators_are_unequal():
    rng = random.Random(6262)
    cases = [((1, 0, 0, 0), 1, 2), ((1, 2, 0, 0), 3, 1), ((0, -1, 0, 5), 4, 7)]
    while len(cases) < 200:
        ns = tuple(rng.randint(-9, 9) for _ in range(4))
        if gcd(*ns) == 1:
            cases.append((ns, rng.randint(1, 9), rng.randint(1, 9)))
    for ns, d1, d2 in cases:
        a = CycloNum(*(Fraction(n, d1) for n in ns))
        b = CycloNum(*(Fraction(n, d2) for n in ns))
        assert a._n == b._n == ns
        assert (a == b) == (d1 == d2) == (to_oracle(a) == to_oracle(b))
        assert (a != b) == (d1 != d2)
        assert (a * b == a * a) == (d1 == d2)
        assert (a + b == a + a) == (d1 == d2)


@pytest.mark.parametrize("other", ["a", 1.5, None, (1, 0, 0, 0)])
def test_a_non_rational_operand_is_refused(other):
    x = CycloNum(1, Fraction(1, 2), 0, -3)
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        other + x
    with pytest.raises(TypeError):
        x * other
    with pytest.raises(TypeError):
        other * x
    assert (x == other) is False
    assert (other == x) is False
    assert (x != other) is True


def test_sqrt_of_fraction_hypothesis_matches_oracle():
    """The integer square root against the oracle's Fraction one, on
    rationals that are, and are not, r^2 or 2r^2 for a rational r."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rationals = st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                          st.integers(min_value=1, max_value=10**6))
    shapes = st.sampled_from([
        lambda r: r,
        lambda r: -r,
        lambda r: r * r,
        lambda r: -r * r,
        lambda r: 2 * r * r,
        lambda r: r * r / 2,
        lambda r: Fraction(0),
    ])

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(shapes, rationals)
    def check(shape, r):
        q = shape(r)
        new, old = sqrt_of_fraction(q), oracle.sqrt_of_fraction(q)
        if old is None:
            assert new is None
        else:
            same(new, old)
            assert new * new == q

    check()
