"""Exact linear algebra over Q(zeta_8)."""

import operator
import random
import re
from fractions import Fraction
from itertools import chain

import pytest

from repcheck.cyclo import CycloNum, I, ONE, SQRT2, ZERO, inner
from repcheck.groups import builtin_group
from repcheck.matrices import ExactMatrix, hs_inner, outer, proportionality, ray_key
from repcheck.quantum import bell_state, conj_rep_character_from_matrices, pauli_rep_on_k4

RNG = random.Random(11)


def rand_matrix(n):
    return ExactMatrix(
        [
            [
                CycloNum(Fraction(RNG.randint(-5, 5), RNG.randint(1, 4)),
                         0, Fraction(RNG.randint(-5, 5), RNG.randint(1, 4)), 0)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def dense_matmul(a, b):
    """Triple loop over every entry, zeros included."""
    return [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), ZERO)
         for j in range(b.cols)]
        for i in range(a.rows)
    ]


def dense_apply(m, v):
    return tuple(sum((m.entries[i][j] * v[j] for j in range(m.cols)), ZERO)
                 for i in range(m.rows))


def dense_kron(a, b):
    return [
        [a.entries[i // b.rows][j // b.cols] * b.entries[i % b.rows][j % b.cols]
         for j in range(a.cols * b.cols)]
        for i in range(a.rows * b.rows)
    ]


SPARSE_RNG = random.Random(2024)


def rand_entry(rng, zero_share):
    if rng.random() < zero_share:
        return ZERO
    return CycloNum(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)))


def rand_sparse(rng, rows, cols, zero_share=0.6):
    """A seeded matrix with forced zeros, one all-zero row and one all-zero
    column (when there are at least two of each)."""
    entries = [[rand_entry(rng, zero_share) for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        entries[rng.randrange(rows)] = [ZERO] * cols
    if cols > 1:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = ZERO
    return ExactMatrix(entries)


def rand_vector(rng, n, zero_share=0.5):
    return tuple(rand_entry(rng, zero_share) for _ in range(n))


def swap_operators():
    from repcheck.quantum import povm_construction

    _, inst = povm_construction()
    eye = ExactMatrix.identity(2)
    return [eye.tensor(m).tensor(eye) for m in inst.kraus]


SHAPES = [(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5), (4, 4, 4), (5, 1, 3), (6, 6, 2)]


def test_identity_and_matmul():
    eye = ExactMatrix.identity(3)
    m = rand_matrix(3)
    assert eye @ m == m == m @ eye
    assert eye.is_identity() and eye.is_unitary() and eye.is_hermitian()


def test_dagger_reverses_products():
    for _ in range(10):
        a, b = rand_matrix(2), rand_matrix(2)
        assert (a @ b).dagger() == b.dagger() @ a.dagger()
    for n, k, m in SHAPES:
        a, b = rand_sparse(SPARSE_RNG, n, k), rand_sparse(SPARSE_RNG, k, m)
        assert (a @ b).dagger() == b.dagger() @ a.dagger()


def test_trace_is_cyclic():
    for _ in range(10):
        a, b = rand_matrix(3), rand_matrix(3)
        assert (a @ b).trace() == (b @ a).trace()


def test_tensor_respects_products_and_traces():
    a, b, c, d = (rand_matrix(2) for _ in range(4))
    assert (a.tensor(b)) @ (c.tensor(d)) == (a @ c).tensor(b @ d)
    assert a.tensor(b).trace() == a.trace() * b.trace()
    for _ in range(5):
        a, c = rand_sparse(SPARSE_RNG, 2, 3), rand_sparse(SPARSE_RNG, 3, 2)
        b, d = rand_sparse(SPARSE_RNG, 2, 2), rand_sparse(SPARSE_RNG, 2, 4)
        assert (a.tensor(b)) @ (c.tensor(d)) == (a @ c).tensor(b @ d)


def test_diag_and_scale():
    d = ExactMatrix.diag([1, I])
    assert d[0, 0] == ONE and d[1, 1] == I and d[0, 1] == ZERO
    assert d.scale(2)[1, 1] == CycloNum(0, 0, 2, 0)


def test_outer_product_against_entries():
    v = (ONE, I)
    w = (CycloNum(2), ONE)
    m = outer(v, w)
    assert m[0, 0] == CycloNum(2)
    assert m[1, 0] == I * CycloNum(2)
    assert m[0, 1] == ONE
    assert m[1, 1] == I


def test_hs_inner_is_trace_of_dagger_product():
    for _ in range(5):
        x, y = rand_matrix(2), rand_matrix(2)
        assert hs_inner(x, y) == (x.dagger() @ y).trace()


def test_vector_helpers():
    v = (ONE, ZERO, I)
    w = (I, ONE, ONE)
    assert inner(v, w) == I + (-I)  # 1*i + conj(i)*1
    u = (ONE + CycloNum(0, 1, 0, 0), ONE)
    assert inner(u, u) == CycloNum(3) + SQRT2  # |1 + z|^2 = 2 + sqrt2, not rational


def test_apply_matches_matmul_on_columns():
    m = rand_matrix(3)
    v = (ONE, I, CycloNum(2))
    col = ExactMatrix([[x] for x in v])
    assert m.apply(v) == tuple(row[0] for row in (m @ col).entries)


def test_proportionality_detects_rays():
    v = (ONE, I, ZERO)
    assert proportionality(tuple(I * x for x in v), v) == I
    assert proportionality(v, (ONE, ONE, ZERO)) is None
    assert proportionality((ZERO, ZERO), (ZERO, ONE)) == ZERO  # zero vector: scalar 0
    assert proportionality((ZERO, ONE), (ZERO, ZERO)) is None
    m = rand_matrix(2)
    assert ray_key(m.scale(I)) == ray_key(m)


def test_ray_key_is_one_key_per_ray():
    zeta = CycloNum(0, 1, 0, 0)
    m = ExactMatrix([[ZERO, CycloNum(Fraction(3, 2), 0, -1, 0)], [I, CycloNum(2)]])
    key = ray_key(m)
    assert key[0, 0] == ZERO and key[0, 1] == ONE  # first non-zero entry, row-major
    c = ONE
    for _ in range(8):
        assert ray_key(m.scale(c)) == key
        c = c * zeta
    for _ in range(20):
        c = ZERO
        while c.is_zero():
            c = CycloNum(*(Fraction(RNG.randint(-5, 5), RNG.randint(1, 4)) for _ in range(4)))
        assert ray_key(m.scale(c)) == key


def test_ray_key_tells_rays_apart():
    x, z = ExactMatrix([[0, 1], [1, 0]]), ExactMatrix([[1, 0], [0, -1]])
    e11, e12 = ExactMatrix([[1, 0], [0, 0]]), ExactMatrix([[0, 1], [0, 0]])
    pairs = [(x, z), (ExactMatrix.identity(2), z), (e11, e12), (x, x + e11), (x, x.scale(I))]
    pairs += [(rand_matrix(2), rand_matrix(2)) for _ in range(20)]
    for a, b in pairs:
        same = proportionality(tuple(chain(*a.entries)), tuple(chain(*b.entries)))
        assert (ray_key(a) == ray_key(b)) == (same is not None)
    with pytest.raises(ValueError, match="no ray"):
        ray_key(ExactMatrix.zeros(2, 3))


def test_str_uses_display_basis():
    m = ExactMatrix([[CycloNum(0, 2, 0, -2), ONE], [ZERO, CycloNum(0, 0, 1, 0)]])
    lines = str(m).splitlines()
    assert lines[0].split() == ["2√2", "1"]
    assert lines[1].split() == ["0", "i"]


def test_shape_errors():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])
    a, b = ExactMatrix.identity(2), ExactMatrix.identity(3)
    with pytest.raises(ValueError, match="^shape mismatch 2x2 @ 3x3$"):
        a @ b
    with pytest.raises(ValueError, match="^shape mismatch$"):
        a + b
    with pytest.raises(ValueError, match="^shape mismatch$"):
        a - b
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        a.apply((ONE,) * 3)
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]).trace()


@pytest.mark.parametrize("other", [3, ONE, "m", (ONE, ONE)], ids=repr)
def test_a_foreign_operand_is_python_s_type_error(other):
    m = ExactMatrix.identity(2)
    for op in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(TypeError, match="unsupported operand type"):
            op(m, other)


# ----------------------------------------------------------------------
# the checked boundary: a wrong-type operand is a TypeError naming the
# function, never an AttributeError or a TypeError from inside a loop

_V = (ONE, ZERO)
_BAD = ("ab", (1, 2), None, 1.5)
# outer and the first operand of proportionality take int and Fraction
# entries too, so their bad tuple holds a str
_BAD_SCALAR = ("ab", (1, "x"), None, 1.5)
_BOUNDARY_CALLS = [
    ("inner", lambda bad: inner(bad, _V), _BAD),
    ("inner", lambda bad: inner(_V, bad), _BAD),
    ("inner", lambda bad: inner(_V, _V, divisor=bad), _BAD),
    ("hs_inner", lambda bad: hs_inner(bad, ExactMatrix.identity(2)), _BAD),
    ("hs_inner", lambda bad: hs_inner(ExactMatrix.identity(2), bad), _BAD),
    ("outer", lambda bad: outer(bad, _V), _BAD_SCALAR),
    ("outer", lambda bad: outer(_V, bad), _BAD_SCALAR),
    ("proportionality", lambda bad: proportionality(bad, _V), _BAD_SCALAR),
    ("proportionality", lambda bad: proportionality(_V, bad), _BAD),
    ("ray_key", ray_key, _BAD),
    ("ExactMatrix.apply", lambda bad: ExactMatrix.identity(2).apply(bad), _BAD),
    ("ExactMatrix.tensor", lambda bad: ExactMatrix.identity(2).tensor(bad), _BAD),
    ("ExactMatrix.scale", lambda bad: ExactMatrix.identity(2).scale(bad), _BAD),
    # a tuple of scalars is a valid diagonal
    ("ExactMatrix.diag", ExactMatrix.diag, ("ab", None, 1.5)),
    ("PureState.proportional_to", lambda bad: bell_state().proportional_to(bad),
     (*_BAD, (ONE,) * 4)),
    ("conj_rep_character_from_matrices",
     lambda bad: conj_rep_character_from_matrices(bad, pauli_rep_on_k4()), _BAD),
    ("conj_rep_character_from_matrices",
     lambda bad: conj_rep_character_from_matrices(builtin_group("K4"), bad), _BAD),
]


@pytest.mark.parametrize("name,call,bad", [
    *[pytest.param(name, call, bad, id=f"{name}-{k}-{bad!r}")
      for k, (name, call, bads) in enumerate(_BOUNDARY_CALLS)
      for bad in bads],
    pytest.param("inner", lambda bad: inner(_V, _V, weights=bad), (Fraction(1, 2), 1),
                 id="inner-Fraction-weight"),
    pytest.param("inner", lambda bad: inner(_V, _V, weights=bad), (1.5, 1), id="inner-float-weight"),
    # a zero-like weight is refused too, not skipped as a zero term
    *[pytest.param("inner", lambda bad: inner((ONE,), (ONE,), weights=bad), (w,),
                   id=f"inner-{w!r}-weight")
      for w in (None, "", 0.0, Fraction(0))],
    pytest.param("inner", lambda bad: inner(_V, _V, divisor=bad), Fraction(3),
                 id="inner-Fraction-divisor"),
    pytest.param("ExactMatrix.apply", lambda bad: ExactMatrix.identity(2).apply(bad), (ONE, 2),
                 id="ExactMatrix.apply-int-entry"),
])
def test_a_wrong_type_operand_is_a_type_error_naming_the_function(name, call, bad):
    with pytest.raises(TypeError, match=f"^{re.escape(name)} needs "):
        call(bad)


def test_outer_and_proportionality_take_int_and_fraction_entries():
    half = Fraction(1, 2)
    assert outer((1, half), (ONE, 2)) == outer((ONE, CycloNum(half)), (ONE, CycloNum(2)))
    assert proportionality((2, 4), (ONE, CycloNum(2))) == CycloNum(2)
    assert proportionality((half, 0), (I, ZERO)) == CycloNum(half) * I.conjugate()
    assert proportionality((0, 0), (ZERO, ZERO)) == ONE
    assert proportionality((1, 0), (ZERO, ZERO)) is None


# ----------------------------------------------------------------------
# the sparse kernels against the dense reference



@pytest.mark.parametrize("shape", SHAPES)
def test_matmul_matches_dense_reference(shape):
    n, k, m = shape
    for zero_share in (0.0, 0.5, 0.9, 1.0):
        a = rand_sparse(SPARSE_RNG, n, k, zero_share)
        b = rand_sparse(SPARSE_RNG, k, m, zero_share)
        assert a @ b == ExactMatrix(dense_matmul(a, b))


@pytest.mark.parametrize("shape", SHAPES)
def test_apply_matches_dense_reference(shape):
    n, k, _ = shape
    for zero_share in (0.0, 0.5, 0.9, 1.0):
        a = rand_sparse(SPARSE_RNG, n, k, zero_share)
        for v in (rand_vector(SPARSE_RNG, k), (ZERO,) * k, rand_vector(SPARSE_RNG, k, 0.0)):
            assert a.apply(v) == dense_apply(a, v)


def test_zero_matrices_and_vectors():
    z = ExactMatrix.zeros(3, 4)
    a = rand_sparse(SPARSE_RNG, 4, 2, 0.0)
    assert z @ a == ExactMatrix.zeros(3, 2)
    assert a.transpose() @ z.transpose() == ExactMatrix.zeros(2, 3)
    assert z.apply(rand_vector(SPARSE_RNG, 4)) == (ZERO,) * 3
    assert a.apply((ZERO,) * 2) == (ZERO,) * 4
    assert inner((ZERO,) * 3, (ONE, I, ONE)) == ZERO


def test_swap_operators_match_dense_reference():
    ops = swap_operators()
    for op in ops:
        assert op.rows == op.cols == 16
        assert sum(not x.is_zero() for row in op.entries for x in row) == 16
    phi = (ONE, ZERO, ZERO, ONE)
    vectors = [tuple(a * b for a in rand_vector(SPARSE_RNG, 4, 0.0) for b in phi),
               rand_vector(SPARSE_RNG, 16), (ZERO,) * 16]
    for op in ops:
        for v in vectors:
            assert op.apply(v) == dense_apply(op, v)
    for a, b in zip(ops, ops[1:] + ops[:1]):
        assert a @ b == ExactMatrix(dense_matmul(a, b))


def test_tensor_matches_dense_kronecker():
    for rows_a, cols_a, rows_b, cols_b in [(2, 2, 2, 2), (1, 3, 2, 1), (3, 2, 2, 3)]:
        a = rand_sparse(SPARSE_RNG, rows_a, cols_a)
        b = rand_sparse(SPARSE_RNG, rows_b, cols_b)
        assert a.tensor(b) == ExactMatrix(dense_kron(a, b))


def test_vector_helpers_match_dense_sums():
    for _ in range(20):
        v, w = rand_vector(SPARSE_RNG, 5), rand_vector(SPARSE_RNG, 5)
        assert inner(v, w) == sum((a.conjugate() * b for a, b in zip(v, w)), ZERO)


# ----------------------------------------------------------------------
# results built inside the class skip input coercion and the ragged-row
# test; each must still be exactly what the public constructor builds

def assert_well_formed(m):
    assert type(m.entries) is tuple
    for row in m.entries:
        assert type(row) is tuple
        assert all(type(x) is CycloNum for x in row)
    ref = ExactMatrix(m.entries)
    assert (m.rows, m.cols, m.entries) == (ref.rows, ref.cols, ref.entries)


def built_results(a, b, c):
    """Every result built inside the class from a, b (a's shape) and c
    (a's columns as its rows)."""
    yield a @ c
    yield a + b
    yield a - b
    for factor in (I, 3, Fraction(-1, 2), 0, ZERO):
        yield a.scale(factor)
    yield a.conj()
    yield a.transpose()
    yield a.dagger()
    yield a.tensor(c)
    yield c.tensor(a)
    yield a.tensor(b.transpose())


# (rows of a, cols of a, cols of c): no rows, 1xN, Nx1, non-square factors
BUILD_SHAPES = [(0, 0, 0), (3, 0, 0), (1, 5, 1), (1, 5, 3), (5, 1, 5), (4, 1, 1),
                (2, 3, 4), (4, 3, 2), (3, 3, 3)]


@pytest.mark.parametrize("shape", BUILD_SHAPES, ids=lambda s: "{0}x{1}@{1}x{2}".format(*s))
def test_results_built_inside_the_class_are_well_formed(shape):
    n, k, m = shape
    rng = random.Random(f"built:{shape}")
    for zero_share in (0.0, 0.6, 1.0):
        a = rand_sparse(rng, n, k, zero_share)
        b = rand_sparse(rng, n, k, zero_share)
        c = rand_sparse(rng, k, m, zero_share)
        for result in built_results(a, b, c):
            assert_well_formed(result)
        assert (a @ c).cols == (m if n else 0)
        assert (a @ c).entries == tuple(map(tuple, dense_matmul(a, c)))


def test_identity_and_zeros_are_well_formed():
    for n in range(5):
        assert_well_formed(ExactMatrix.identity(n))
        for cols in range(4):
            assert_well_formed(ExactMatrix.zeros(n, cols))
    assert (ExactMatrix.zeros(3, 0).rows, ExactMatrix.zeros(3, 0).cols) == (3, 0)


def test_public_constructor_still_coerces_and_refuses_ragged_rows():
    m = ExactMatrix([[1, Fraction(1, 2)], (True, I)])
    assert_well_formed(m)
    assert m.entries == ((ONE, CycloNum(Fraction(1, 2))), (ONE, I))
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix(((ONE, ZERO), (ONE,)))
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix([[ONE], []])


def test_a_binary_float_entry_is_refused():
    with pytest.raises(TypeError, match="got float$"):
        ExactMatrix([[0.1]])
    with pytest.raises(TypeError, match="got float$"):
        ExactMatrix.diag([ONE, 0.5])
    with pytest.raises(TypeError, match="got float$"):
        ExactMatrix.identity(2).scale(0.5)


def test_a_text_entry_is_refused_with_the_constructors_name():
    # Fraction would parse "1/2" as one half; an entry is a number, not text
    with pytest.raises(TypeError, match="^ExactMatrix: CycloNum coefficients must be exact rationals, got str$"):
        ExactMatrix([["a"]])
    with pytest.raises(TypeError, match="^ExactMatrix: .* got str$"):
        ExactMatrix([[ONE, ZERO], [ZERO, "1/2"]])
    with pytest.raises(TypeError, match="^ExactMatrix.diag: CycloNum coefficients must be exact rationals, got str$"):
        ExactMatrix.diag([ONE, "a"])
