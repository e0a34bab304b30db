"""Exact field arithmetic and tolerance signs."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heislor._linalg import (
    _subtract,
    embed,
    exact_array,
    exact_dense,
    exact_rank,
    exact_zeros,
    rref_rows,
    to_float,
)
from heislor.curvature import frame_brackets
from heislor.numerics import (
    QSqrt3,
    SqrtOfNegative,
    SqrtUnsupportedExact,
    sub_product,
)

from references import exact_nullspace, exact_rref

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
scalars = st.builds(QSqrt3, rationals, rationals)


def test_difference_of_squares():
    assert QSqrt3(1, 1) * QSqrt3(1, -1) == QSqrt3(-2, 0)


def test_sqrt3_squares_to_three():
    assert QSqrt3(0, 1) * QSqrt3(0, 1) == QSqrt3(3)


def test_division_rationalizes():
    # oracle: multiply the quotient back
    q = QSqrt3(1) / QSqrt3(1, 1)
    assert q == QSqrt3(Fraction(-1, 2), Fraction(1, 2))
    assert q * QSqrt3(1, 1) == QSqrt3(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1) / QSqrt3(0)


@pytest.mark.parametrize(
    "value", [0.1, 2.0, np.float64(0.5), np.float32(0.5), np.longdouble(3)],
    ids=["float", "whole-float", "float64", "float32", "longdouble"],
)
def test_float_components_are_refused(value):
    # the constructor agrees with coerce and mixed arithmetic: no float enters silently
    for args in ((value,), (value, 1), (1, value), (Fraction(1, 2), value)):
        with pytest.raises(TypeError):
            QSqrt3(*args)
    with pytest.raises(TypeError):
        QSqrt3.coerce(value)
    with pytest.raises(TypeError):
        QSqrt3(1) + value
    # exact components still construct, numpy integers included
    assert QSqrt3(np.int64(3), Fraction(1, 2)) == QSqrt3(3, Fraction(1, 2))


def test_numpy_integers_coerce():
    # coerce, like the constructor, takes a numpy integer as the int it holds
    assert QSqrt3.coerce(np.int64(3)) == 3
    assert QSqrt3(1) + np.int32(2) == 3
    assert np.array_equal(frame_brackets(np.int64(1), 0, 5), frame_brackets(1, 0, 5))
    with pytest.raises(TypeError):
        QSqrt3.coerce(np.float64(3))


@given(scalars, scalars)
def test_mul_div_round_trip(x, y):
    if y:
        assert (x * y) / y == x


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x


@given(scalars)
def test_sign_consistency_with_float(x):
    sign = x.sign()
    value = float(x)
    if abs(value) > 1e-9:
        assert sign == (1 if value > 0 else -1)
    if not x:
        assert sign == 0


@given(scalars)
def test_parse_format_round_trip(x):
    assert QSqrt3.parse(x.format()) == x


def test_parse_variants():
    assert QSqrt3.parse("sqrt3") == QSqrt3(0, 1)
    assert QSqrt3.parse("-1/2+3/4*sqrt3") == QSqrt3(Fraction(-1, 2), Fraction(3, 4))
    assert QSqrt3.parse("2") == QSqrt3(2)
    assert QSqrt3.parse("1-sqrt3") == QSqrt3(1, -1)
    # an exponent keeps its sign inside its term
    assert QSqrt3.parse("1e-330") == QSqrt3(Fraction(1, 10**330))
    assert QSqrt3.parse("1E-5") == QSqrt3(Fraction(1, 10**5))
    assert QSqrt3.parse("2.5e-3") == QSqrt3(Fraction(1, 400))
    assert QSqrt3.parse("1e+3") == QSqrt3(1000)
    assert QSqrt3.parse("-2.5e-3+sqrt3") == QSqrt3(Fraction(-1, 400), 1)
    assert QSqrt3.parse("1e400") == QSqrt3(10**400)
    # spaces between terms and around '*', which may be left out
    assert QSqrt3.parse(" 1 + 2 * sqrt3 ") == QSqrt3(1, 2)
    assert QSqrt3.parse("- 3/4sqrt3") == QSqrt3(0, Fraction(-3, 4))


@pytest.mark.parametrize("text", ["sqrt3*2", "sqrt3/2", "2**sqrt3", "sqrt3sqrt3", "1 2", "+", "--1"])
def test_parse_refuses_a_string_it_cannot_read_whole(text):
    # each was once read by skipping what fit no term: sqrt3, sqrt3, 2sqrt3, sqrt3, 12, 0, -1
    with pytest.raises(ValueError, match="is not a sum of terms"):
        QSqrt3.parse(text)


def test_exact_sqrt():
    assert QSqrt3(4).sqrt() == QSqrt3(2)
    assert QSqrt3(3).sqrt() == QSqrt3(0, 1)
    # (1 + sqrt3)^2 = 4 + 2 sqrt3
    assert QSqrt3(4, 2).sqrt() == QSqrt3(1, 1)
    with pytest.raises(SqrtUnsupportedExact):
        QSqrt3(2).sqrt()
    with pytest.raises(SqrtOfNegative):
        QSqrt3(-1).sqrt()


def test_ordering_is_total():
    assert QSqrt3(0, 1) > QSqrt3(Fraction(17, 10))  # sqrt3 > 1.7
    assert QSqrt3(0, 1) < QSqrt3(Fraction(174, 100))
    assert QSqrt3(5, -3) < QSqrt3(0)  # 5 - 3 sqrt3 < 0


# -- differential test against a Fraction-pair reference -----------------------


def _ref(x) -> tuple[Fraction, Fraction]:
    """(a, b) with x = a + b sqrt3, from the public surface only."""
    if isinstance(x, QSqrt3):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _ref_div(x, y):
    norm = y[0] * y[0] - 3 * y[1] * y[1]
    return (x[0] * y[0] - 3 * x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


_REF_OPS = {
    operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
    operator.mul: lambda x, y: (x[0] * y[0] + 3 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    operator.truediv: _ref_div,
}


def _ref_sign(x) -> int:
    a, b = x
    if b == 0 or a * a > 3 * b * b:
        return (a > 0) - (a < 0)
    return (b > 0) - (b < 0)


def _assert_matches(got, want):
    assert isinstance(got, QSqrt3)
    assert type(got.a) is Fraction and type(got.b) is Fraction
    assert (got.a, got.b) == want
    assert got.sign() == _ref_sign(want)
    assert float(got) == float(want[0]) + float(want[1]) * math.sqrt(3.0)
    same = QSqrt3(*want)
    assert got == same and hash(got) == hash(same)
    if want[1] == 0:
        assert got == want[0] and hash(got) == hash(want[0])
        if want[0].denominator == 1:
            assert got == int(want[0]) and hash(got) == hash(int(want[0]))
    else:
        assert got != want[0]


wide = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
)
fields = st.builds(QSqrt3, wide, wide)
# |a| <= |b| with b != 0 gives a^2 - 3 b^2 < 0: the denominator-sign path
negative_norm = st.tuples(
    st.fractions(min_value=-1, max_value=1),
    wide.filter(lambda b: b != 0),
).map(lambda t: QSqrt3(t[0] * t[1], t[1]))
operands = st.one_of(st.integers(-10**6, 10**6), wide, fields, negative_norm)


@given(operands, operands, st.sampled_from(sorted(_REF_OPS, key=lambda op: op.__name__)))
def test_qsqrt3_matches_fraction_pair_reference(x, y, op):
    if not isinstance(x, QSqrt3) and not isinstance(y, QSqrt3):
        x = QSqrt3(x)
    if op is operator.truediv and _ref(y) == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    _assert_matches(op(x, y), _REF_OPS[op](_ref(x), _ref(y)))


def _over(d):
    """Field elements whose normal form has denominator exactly d."""
    num = st.integers(-10**6, 10**6)
    coprime = num.filter(lambda p: math.gcd(p, d) == 1)
    return st.builds(lambda p, q: QSqrt3(Fraction(p, d), Fraction(q, d)), coprime, num)


denominators = st.integers(2, 10**4)
# integer-valued triples (denominator 1) with a sqrt3 part
integral = st.builds(QSqrt3, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
# the equal-denominator and integer fast paths of add, sub and mul
fast_pairs = st.one_of(
    denominators.flatmap(lambda d: st.tuples(_over(d), _over(d))),
    st.tuples(integral, integral),
    st.tuples(integral, st.integers(-10**6, 10**6)),
)


@given(fast_pairs, st.sampled_from(sorted(_REF_OPS, key=lambda op: op.__name__)))
def test_qsqrt3_fast_paths_match_fraction_pair_reference(pair, op):
    x, y = pair
    for a, b in ((x, y), (QSqrt3.coerce(y), x)):
        if op is operator.truediv and _ref(b) == (0, 0):
            continue
        _assert_matches(op(a, b), _REF_OPS[op](_ref(a), _ref(b)))


# (x, f, y) for x - f*y: generic, x over the product's denominator, all integral
fused_triples = st.one_of(
    st.tuples(operands, operands, st.one_of(fields, negative_norm)),
    denominators.flatmap(
        lambda d: st.tuples(_over(d), st.one_of(st.integers(-10**6, 10**6), integral), _over(d))
    ),
    st.tuples(integral, st.one_of(st.integers(-10**6, 10**6), integral), integral),
)


def _ref_sub_product(x, f, y):
    return _REF_OPS[operator.sub](_ref(x), _REF_OPS[operator.mul](_ref(f), _ref(y)))


@given(fused_triples, st.booleans())
def test_fused_multiply_subtract_matches_fraction_pair_reference(triple, cancel):
    x, f, y = triple
    if cancel:  # x = f*y exactly: the update cancels to the normal zero
        x = QSqrt3.coerce(f) * y
    want = _ref_sub_product(x, f, y)
    _assert_matches(sub_product(x, f, y), want)
    # the sparse kernel's update: a cancelled entry is deleted, an absent one reads zero
    row = {0: QSqrt3.coerce(x), 2: QSqrt3(7)}
    _subtract(row, f, {0: y, 1: y})
    for j, want_j in ((0, want), (1, _ref_sub_product(0, f, y))):
        if want_j == (0, 0):
            assert j not in row
        else:
            _assert_matches(row[j], want_j)
    assert row[2] == QSqrt3(7)


@given(st.one_of(fields, negative_norm))
def test_qsqrt3_negation_and_identity_match_reference(x):
    a, b = _ref(x)
    _assert_matches(-x, (-a, -b))
    _assert_matches(x + 0, (a, b))


@given(fields, negative_norm)
def test_division_by_negative_norm_round_trips(x, y):
    assert y.a * y.a - 3 * y.b * y.b < 0
    _assert_matches(x / y, _ref_div(_ref(x), _ref(y)))
    assert (x / y) * y == x


@pytest.mark.parametrize("zero", [0, Fraction(0), QSqrt3(0)])
def test_division_by_any_zero(zero):
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1, 1) / zero


# -- sparse exact elimination ------------------------------------------------------


def _sparse_exact_matrix(rng, rows, cols, density):
    def entry():
        if rng.random() > density:
            return 0
        return QSqrt3(
            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))),
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
        )

    m = exact_array([[entry() for _ in range(cols)] for _ in range(rows)])
    if rows > 2:  # force a dependent row so the rank is not always full
        m[-1] = m[0] * QSqrt3(2, -1) + m[1]
    return m


def _assert_reduced_echelon(rref, pivots):
    rows, cols = rref.shape
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert rref[r, c] == 1
        assert all(not rref[r, j] for j in range(c))
        assert all(not rref[i, c] for i in range(rows) if i != r)
    for r in range(len(pivots), rows):
        assert all(not x for x in rref[r])


def test_exact_rref_sparse_matrices():
    rng = np.random.default_rng(20240)
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(1, 10, 2))
        a = _sparse_exact_matrix(rng, rows, cols, density=float(rng.uniform(0.1, 0.6)))
        rref, pivots = exact_rref(a)
        _assert_reduced_echelon(rref, pivots)
        rank = exact_rank(a)
        assert rank == len(pivots) == np.linalg.matrix_rank(to_float(a))
        basis = exact_nullspace(a)
        assert len(basis) == cols - rank
        for v in basis:
            assert all(not x for x in a @ v)


@pytest.mark.parametrize("shape", [(3, 5), (3, 4, 5), (2, 3, 4, 5)])
def test_exact_dense_and_to_float_take_any_rank(shape):
    """exact_dense writes sparse rows keyed by one, two or three leading indices, and
    to_float casts each entry as float(x) does, bit for bit, refusing one beyond the range."""
    rng = np.random.default_rng(len(shape))
    want, rows = exact_zeros(shape), {}
    for index in np.ndindex(shape):
        if rng.random() < 0.4:
            x = QSqrt3(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                       Fraction(int(rng.integers(-3, 4)), 7))
            want[index] = rows.setdefault(index[:-1], {})[index[-1]] = x
    got = exact_dense(rows, shape)
    assert got.dtype == object and np.array_equal(got, want)
    floats = to_float(got)
    per_entry = np.array([float(x) for x in got.reshape(-1)]).reshape(shape)
    assert floats.dtype == np.float64 and floats.tobytes() == per_entry.tobytes()
    got[(0,) * len(shape)] = QSqrt3(10**400)
    with pytest.raises(OverflowError):
        to_float(got)


def _cancelling_exact_matrix(rng, rows, cols, rank):
    """Sparse combinations of rank sparse rows: elimination fill-in cancels exactly."""
    base = _sparse_exact_matrix(rng, rank, cols, density=4 / cols)
    mix = _sparse_exact_matrix(rng, rows, rank, density=min(1.0, 3 / rank))
    out = exact_zeros((rows, cols))
    for i, j in zip(*np.nonzero(mix)):
        out[i] = out[i] + mix[i, j] * base[j]
    return out


def test_sparse_kernel_matches_sympy_rref():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(3))

    def lift(x):  # a + b*sqrt3 is the field element with coefficients [b, a]
        if not x:
            return field.zero
        return field([sympy.QQ(x.b.numerator, x.b.denominator),
                      sympy.QQ(x.a.numerator, x.a.denominator)])

    def lifted(vectors, shape):
        return DomainMatrix([[lift(x) for x in v] for v in vectors], shape, field).to_sparse()

    rng = np.random.default_rng(31)
    shapes = [(55, 77), (77, 55), (30, 40), (12, 9), (1, 5), (5, 1)]
    cases = [_sparse_exact_matrix(rng, r, c, density=min(1.0, 3 / c)) for r, c in shapes]
    cases += [_cancelling_exact_matrix(rng, r, c, k) for r, c, k in
              ((55, 77, 20), (40, 30, 12), (20, 20, 19), (9, 12, 3))]
    # the second row's fill-in at column 1 cancels exactly against the first
    one, x, y = QSqrt3(1), QSqrt3(2, 1), QSqrt3(Fraction(1, 3), -1)
    cases.append(exact_array([[one, x, y, 0], [2 * one, 2 * x, y, 1], [0, 0, y, 0]]))
    for a in cases:
        rows, cols = a.shape
        want, want_pivots = lifted(a, a.shape).rref()
        got, pivots = exact_rref(a)
        assert pivots == list(want_pivots)
        assert got.shape == a.shape
        assert lifted(got, a.shape) == want
        # the kernel never keeps an exact zero, and a tail lies right of its pivot
        for c, tail in rref_rows(enumerate(row) for row in a).items():
            assert all(tail.values()) and min(tail, default=cols) > c
        assert exact_rank(a) == len(pivots)
        basis = exact_nullspace(a)
        assert len(basis) == cols - len(pivots) == want.shape[1] - want.rank()
        if basis:
            product = lifted(a, a.shape) * lifted(basis, (len(basis), cols)).transpose()
            assert product.is_zero_matrix


def _embed_reference(block, n, coords):
    out = np.eye(n)
    for bi, i in enumerate(coords):
        for bj, j in enumerate(coords):
            out[i, j] = block[bi, bj]
    return out


@pytest.mark.parametrize("n", [4, 5, 8])
def test_embed_matches_double_loop_reference(n):
    rng = np.random.default_rng(n)
    for coords in (tuple(range(1, n - 1)), (0, 1, n - 2, n - 1)):
        block = rng.standard_normal((len(coords), len(coords)))
        got, ref = embed(block, n, coords), _embed_reference(block, n, coords)
        assert got.dtype == ref.dtype and got.shape == (n, n)
        assert (got == ref).all()
