"""Exact field arithmetic, tolerance signs, and the bisection solver."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heislor._linalg import exact_array, exact_nullspace, exact_rank, exact_rref, to_float
from heislor.numerics import (
    QSqrt3,
    NoConvergence,
    NoSignChange,
    SqrtOfNegative,
    SqrtUnsupportedExact,
    bisect_root,
    sign_with_tol,
)

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


@given(scalars, scalars)
def test_mul_div_round_trip(x, y):
    if not y.is_zero():
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
    if x.is_zero():
        assert sign == 0


@given(scalars)
def test_parse_format_round_trip(x):
    assert QSqrt3.parse(x.format()) == x


def test_parse_variants():
    assert QSqrt3.parse("sqrt3") == QSqrt3(0, 1)
    assert QSqrt3.parse("-1/2+3/4*sqrt3") == QSqrt3(Fraction(-1, 2), Fraction(3, 4))
    assert QSqrt3.parse("2") == QSqrt3(2)
    assert QSqrt3.parse("1-sqrt3") == QSqrt3(1, -1)


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


def test_sign_with_tol_examples():
    assert sign_with_tol(0.0) == 0
    assert sign_with_tol(1e-12, tol=1e-9) == 0
    assert sign_with_tol(-0.5) == -1


def test_sign_with_tol_monotone():
    values = [-1.0, -1e-10, 0.0, 1e-10, 2e-9, 0.5]
    classes = [sign_with_tol(v, tol=1e-9) for v in values]
    assert classes == sorted(classes)


def test_bisect_sqrt2():
    root = bisect_root(lambda s: s * s - 2.0, 1.0, 2.0, eps=1e-12)
    assert abs(root - math.sqrt(2.0)) < 1e-10


def _phi(s):
    return math.sqrt(max(3 * s * s - 8 * s + 5, 0.0))


def test_bisect_branch_point_root():
    # 3 phi(s) = 0 forces 3 s^2 - 8 s + 5 = 0, i.e. s = 5/3 on the domain
    root = bisect_root(lambda s: 3 * _phi(s) - 0.0 * (3 * s - 4), 5.0 / 3.0, 10.0)
    assert root == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_bisect_quadratic_oracle():
    # 7 phi(s) = 4 (3s - 4) squares to 3 s^2 - 8 s - 11 = 0; root (8+14)/6 = 11/3
    f = lambda s: 3 * _phi(s) - 2 * (3 * s - 4) - 2 * (-2 * _phi(s) + 3 * s - 4)  # noqa: E731
    root = bisect_root(f, 5.0 / 3.0, 10.0, eps=1e-12)
    quadratic_root = (8 + math.sqrt(64 + 4 * 3 * 11)) / 6
    assert quadratic_root == pytest.approx(11.0 / 3.0, abs=1e-14)
    assert root == pytest.approx(quadratic_root, abs=1e-10)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(NoSignChange):
        bisect_root(lambda s: s * s + 1.0, 0.0, 1.0)


def test_bisect_reports_nonconvergence():
    # a jump function with no actual root cannot meet the residual target
    with pytest.raises(NoConvergence):
        bisect_root(lambda s: 1.0 if s >= 0.5 else -1.0, 0.0, 1.0, eps=1e-12)


def test_bisect_result_stays_in_bracket():
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = sorted(rng.uniform(-3, 3, 2))
        if (a - 1.3) * (b - 1.3) < 0:
            root = bisect_root(lambda s: s - 1.3, a, b, eps=1e-13)
            assert a <= root <= b
            assert abs(root - 1.3) < 1e-12


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
        assert all(rref[r, j].is_zero() for j in range(c))
        assert all(rref[i, c].is_zero() for i in range(rows) if i != r)
    for r in range(len(pivots), rows):
        assert all(x.is_zero() for x in rref[r])


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
            assert all(x.is_zero() for x in a @ v)
