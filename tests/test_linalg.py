"""The float LAPACK kernels of _linalg against the public numpy.linalg functions, and
the exact rank's one-entry rule and caller-given spanned columns against full elimination
and sympy."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heislor._linalg import (
    UNDERFLOW,
    det,
    eigh,
    eigvalsh,
    embed,
    householder,
    inv,
    is_singular,
    qr_q,
    rank_rows,
    rref_rows,
    right_triangularize,
    shared_eye,
    slogdet,
)
from heislor.numerics import SQRT3, QSqrt3
from heislor.reduction import NumericalBreakdown, _Builder

from references import householder_block, triangularizing_block


def _outcome(f, a):
    """What f(a) gives, as comparable data: the dtype, shape and bytes of each result
    array, or the type and message of what it raised (a warning raises here)."""
    try:
        out = f(a)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return [(np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes()) for x in parts]


def _inputs(n: int, rng: np.random.Generator) -> tuple[list, list]:
    """Seeded float64 general and symmetric inputs of size n, each as a matrix, a stack
    and the non-contiguous views the reduction hands over."""
    a = rng.standard_normal((n, n))
    stack = rng.standard_normal((3, n + 2, n + 2))
    grams = stack + stack.transpose(0, 2, 1)
    _, q = np.linalg.eigh(grams[0])
    general = [a, a.T, a[::-1], stack, stack[:, 2:, 2:], q[:, ::-1], a.astype(np.int64)]
    symmetric = [a + a.T, grams, grams[:, 2:, 2:], grams[0, ::-1, ::-1], q * q.T]
    return general, symmetric


def _qr_route(b: np.ndarray) -> np.ndarray:
    """right_triangularize through numpy.linalg.qr, the reference."""
    q_flipped, _ = np.linalg.qr(np.asarray(b, dtype=float).T[::-1, ::-1] + 0.0)
    return q_flipped[::-1, ::-1] + 0.0


@pytest.mark.parametrize("n", range(2, 11))
def test_kernels_match_numpy_linalg_bit_for_bit(n):
    general, symmetric = _inputs(n, np.random.default_rng(2300 + n))
    for a in general:
        before = a.copy()
        for mine, theirs in ((inv, np.linalg.inv), (det, np.linalg.det),
                             (slogdet, np.linalg.slogdet), (qr_q, lambda x: np.linalg.qr(x)[0])):
            assert _outcome(mine, a) == _outcome(theirs, a)
        assert np.array_equal(a, before)  # qr_q factors a copy
    for a in symmetric:
        assert _outcome(eigvalsh, a) == _outcome(np.linalg.eigvalsh, a)
        assert _outcome(eigh, a) == _outcome(np.linalg.eigh, a)
    for b in general[:3] + [general[4][0], general[5], np.triu(general[0]) * -1.0]:
        whole = lambda b: right_triangularize(b, len(b), 0)  # the block is the whole factor
        assert _outcome(whole, b) == _outcome(_qr_route, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_kernels_fail_as_numpy_linalg_does(bad):
    """A NaN, an infinity or a zero pivot gives numpy.linalg's LinAlgError, warning or
    result, kernel by kernel."""
    a = np.eye(4)
    a[1, 1] = bad
    full = np.full((4, 4), bad)
    for x in (a, full, np.stack([np.eye(4), a])):
        for mine, theirs in ((inv, np.linalg.inv), (det, np.linalg.det),
                             (slogdet, np.linalg.slogdet), (eigh, np.linalg.eigh),
                             (eigvalsh, np.linalg.eigvalsh), (qr_q, lambda x: np.linalg.qr(x)[0])):
            assert _outcome(mine, x) == _outcome(theirs, x)


def test_singular_inverse_raises_linalgerror_and_breaks_the_solve():
    singular = np.array([[1.0, 2.0, 0, 0], [2.0, 4.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        inv(singular)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        np.linalg.inv(singular)
    with pytest.raises(NumericalBreakdown, match="the working matrix is singular"):
        _Builder(singular).solve_onto(np.eye(4))


@pytest.mark.parametrize("caller", [{}, {"divide": "raise"}, {"all": "ignore", "invalid": "raise"}])
def test_kernels_leave_the_callers_error_state(caller):
    """Each kernel's error state holds for its call alone: whether it returns or raises,
    the caller's state is back after it, a non-default one included."""
    singular, nan = np.ones((4, 4)), np.full((4, 4), np.nan)
    with np.errstate(**caller):
        before = np.geterr()
        raised = set()
        for kernel in (inv, eigh, eigvalsh, qr_q, lambda a: is_singular(a[None])):
            for a in (np.eye(4), singular, nan):
                outcome = _outcome(kernel, a)
                if outcome[0] is np.linalg.LinAlgError:
                    raised.add(outcome)
                assert np.geterr() == before
        if before["divide"] == "raise":
            with pytest.raises(FloatingPointError):
                np.ones(1) / 0.0
    assert raised == {
        (np.linalg.LinAlgError, "Singular matrix"),
        (np.linalg.LinAlgError, "Eigenvalues did not converge"),
    }


def test_singular_inverse_raises_from_two_threads_at_once():
    """The error state lives in a per-thread contextvar, so two threads that enter the
    kernel together each get numpy.linalg's LinAlgError, and each keeps its own state."""
    singular = np.ones((5, 5))

    def attempt(i):
        with np.errstate(divide="raise" if i % 2 else "ignore"):
            outcomes = [_outcome(inv, singular), _outcome(inv, np.eye(5))[0][1]]
            return outcomes, np.geterr()["divide"]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(attempt, range(48), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    failure = (np.linalg.LinAlgError, "Singular matrix")
    assert results == [([failure, (5, 5)], "raise" if i % 2 else "ignore") for i in range(48)]


def _product_operands(n: int, rng: np.random.Generator) -> list:
    """The 2-D operand layouts of the float op's products: C-order arrays, .T views, the
    read-only shared_eye, views into a stacked array, and arrays with NaN and inf entries."""
    a, b = rng.standard_normal((2, n, n))
    stack = rng.standard_normal((3, n, n))
    nan, inf = a.copy(), b.copy()
    nan[0, n - 1], inf[n - 1, 0] = np.nan, np.inf
    return [a, b, a.T, b.T, shared_eye(n), stack[1], stack[2].T, stack[0, ::-1], nan, inf.T]


def _product(f, x, y):
    """f(x, y) under an error state that raises, as (bytes of the result, or the type and
    message of what was raised with the routine's name taken out)."""
    with np.errstate(all="raise"):
        try:
            return np.asarray(f(x, y)).tobytes()
        except FloatingPointError as exc:
            return type(exc), str(exc).replace("matmul", "").replace("dot", "")


@pytest.mark.parametrize("n", range(2, 11))
def test_dot_and_matmul_give_the_same_bits(n):
    """ndarray.dot and np.matmul are the same BLAS product on every 2-D operand layout the
    op forms, and on the 1-D u.dot(u) of householder: the same bits, NaN and inf included,
    and the same floating-point error where one is raised.  The reduction multiplies through
    ndarray.dot; a numpy or BLAS that splits the two routes would move its witness bits."""
    operands = _product_operands(n, np.random.default_rng(2500 + n))
    for x in operands:
        for y in operands:
            assert _product(np.ndarray.dot, x, y) == _product(np.matmul, x, y)
        y = operands[0].dot(x)  # a fresh product as operand
        assert _product(np.ndarray.dot, y, x) == _product(np.matmul, y, x)
    for u in (operands[0][0], operands[2][1], operands[8][0], operands[8][:, 0]):
        assert _product(np.ndarray.dot, u, u) == _product(np.matmul, u, u)


def _reflector_inputs(m: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Vectors of length m for a reflector onto e_k: a random one, zero, one whose squared
    norm is below UNDERFLOW, +-e_k, one near +e_k (the cancellation branch), and one with a
    NaN and one with an infinite entry."""
    e = np.zeros(m)
    e[k] = 1.0
    nan, inf = rng.standard_normal((2, m))
    nan[-1], inf[0] = np.nan, np.inf
    tiny = 1e-160 * rng.standard_normal(m)
    assert 0.0 < tiny.dot(tiny) < UNDERFLOW
    near = 3.0 * e + 1e-9 * rng.standard_normal(m)
    return [rng.standard_normal(m), np.zeros(m), tiny, 3.0 * e, -2.0 * e, near, nan, inf]


def _rotation_inputs(m: int, rng: np.random.Generator) -> list[np.ndarray]:
    """m x m blocks: a random one, a strided view, zero, an upper triangle with signed zeros
    and one with a NaN entry."""
    a, b = rng.standard_normal((2, m + 1, m + 1))
    nan = a[:m, :m].copy()
    nan[0, -1] = np.nan
    return [a[:m, :m], b[1:, 1:].T, np.zeros((m, m)), np.triu(a[1:, 1:]) * -1.0, nan]


def _built(f, *args):
    """f(*args) as its bytes and the warnings it raised, and as its bytes with every
    floating-point error ignored."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = f(*args)
    with np.errstate(all="ignore"):
        quiet = f(*args)
    return out.dtype, out.shape, out.tobytes(), [str(w.message) for w in caught], quiet.tobytes()


@pytest.mark.parametrize("n", range(4, 9))
def test_full_size_builders_match_the_embedded_blocks(n):
    """householder and right_triangularize build the n x n factor directly; at every block
    the reduction uses, on a zero, an underflowing, an axis-aligned, a NaN and an infinite
    input too, it is byte for byte the block-size factor placed in an identity by embed."""
    rng = np.random.default_rng(2600 + n)
    # the last row's reflector, the t stage's (n >= 5) and the peel reference's onto e_-1
    reflectors = [(0, n - 1, 0), (2, n - 3, -1)] + [(2, n - 3, 0)] * (n >= 5)
    for lo, m, k in reflectors:
        coords = tuple(range(lo, lo + m))
        for v in _reflector_inputs(m, k, rng):
            got = _built(householder, v, k, n, lo)
            want = _built(lambda v, k: embed(householder_block(v, k), n, coords), v, k)
            assert got == want, (lo, m, k, v)
    for lo, m in ((0, n - 1), (1, n - 2)):  # the lam = 0 stage's rotation and the t stage's
        coords = tuple(range(lo, lo + m))
        for b in _rotation_inputs(m, rng):
            got = _built(right_triangularize, b, n, lo)
            want = _built(lambda b: embed(triangularizing_block(b), n, coords), b)
            assert got == want, (lo, m, b)


@pytest.mark.parametrize(
    "root, singular", [(3 * 2.0**-52, False), (0.3 * 2.0**-52, True)], ids=("3eps", "0.3eps")
)
def test_is_singular_reads_a_det_root_below_eps_times_the_largest_entry(root, singular):
    # the singularity ratio pinned by value: |det|^(1/4) = root against the largest entry 1,
    # three times 2^-52 or a third of it, so a ratio of 10 or 0.1 times 2^-52 flips the verdict
    assert is_singular(np.diag([1.0, 1.0, 1.0, root**4])[None]) == [singular]


@pytest.mark.parametrize("x, reflects", [(2.2e-150, True), (5e-151, False)])
def test_householder_reads_a_squared_norm_below_1e_300_as_underflow(x, reflects):
    # the underflow bound pinned by value: [0, x] onto e_0 has u = (-x, x) and |u|^2 = 2 x^2,
    # 9.7e-300 or 5e-301, so a bound of 1e-299 or 1e-301 flips the branch; the reflector
    # swaps coordinates 2 and 3 exactly
    want = np.eye(4)
    if reflects:
        want[1:3, 1:3] = [[0.0, 1.0], [1.0, 0.0]]
    assert np.array_equal(householder(np.array([0.0, x]), 0, 4, 1), want)


# -- the exact rank's one-entry rule ---------------------------------------------

_COLUMNS = 7
_NONZERO = [QSqrt3(1), QSqrt3(-2), QSqrt3(Fraction(1, 2)), SQRT3, -SQRT3, SQRT3 + 1,
            QSqrt3(Fraction(-3, 2), Fraction(1, 2))]
_nonzero = st.sampled_from(_NONZERO)
_scalars = st.sampled_from([QSqrt3(0), *_NONZERO])  # zero at times: an explicit zero entry
_column = st.integers(0, _COLUMNS - 1)


@st.composite
def _sparse_systems(draw) -> list[list[tuple[int, QSqrt3]]]:
    """Sparse rows [(column, value), ...], shuffled, with every case the one-entry rule
    meets: a one-entry column repeated, explicit zeros (in a row that has one nonzero
    entry, and in a row of zeros), one-entry columns inside longer rows, and a row left
    with one entry once those columns are dropped."""
    singles = draw(st.lists(st.tuples(_column, _nonzero), min_size=1, max_size=4))
    c = singles[0][0]
    d = (c + draw(st.integers(1, _COLUMNS - 1))) % _COLUMNS
    longer = draw(st.lists(st.dictionaries(_column, _scalars, min_size=2, max_size=5), max_size=6))
    rows = [[single] for single in singles] + [list(row.items()) for row in longer]
    rows += [
        [(c, draw(_nonzero))],
        [(d, QSqrt3(0)), (draw(_column), draw(_nonzero))],
        [(draw(_column), QSqrt3(0))],
        [(c, draw(_nonzero)), (d, draw(_nonzero))],
    ]
    return draw(st.permutations(rows))


@st.composite
def _spanned_systems(draw) -> tuple[list[list[tuple[int, QSqrt3]]], frozenset[int]]:
    """_sparse_systems' rows and a set of columns a caller knows spanned: any columns, at
    times one that no row has, and always one that also sits in a longer row."""
    rows = draw(_sparse_systems())
    longer = sorted({c for row in rows if sum(1 for _, x in row if x) > 1 for c, x in row if x})
    spanned = draw(st.frozensets(st.integers(0, _COLUMNS + 1), max_size=4))
    return rows, spanned | {draw(st.sampled_from(longer))}


def test_rank_rows_counts_one_entry_rows_as_elimination_does():
    rows = [
        [(2, QSqrt3(1))],
        [(2, QSqrt3(-3))],  # the same column again
        [(0, QSqrt3(0)), (5, SQRT3)],  # one entry, beside an explicit zero
        [(2, QSqrt3(1)), (4, QSqrt3(2))],  # (4, 2) once column 2 is dropped
        [(4, QSqrt3(1)), (5, QSqrt3(7)), (2, QSqrt3(1))],  # (4, 1), a multiple of it
        [(1, QSqrt3(1)), (3, SQRT3)],
        [(1, QSqrt3(2)), (3, SQRT3 + SQRT3), (5, QSqrt3(1))],  # twice the row above, and e_5
        [(0, QSqrt3(0))],
    ]
    # columns 2 and 5, then (4, 2) and the (1, 3) row
    assert rank_rows(iter(rows)) == 4 == len(rref_rows(rows))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_sparse_systems())
def test_rank_rows_matches_full_elimination(rows):
    # rref_rows eliminates every row, one-entry rows too
    assert rank_rows(iter(rows)) == len(rref_rows(rows))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_spanned_systems())
def test_rank_rows_with_spanned_columns_matches_full_elimination(case):
    # a spanned column is the unit row e_c stacked on the rows
    rows, spanned = case
    units = [[(c, QSqrt3(1))] for c in spanned]
    assert rank_rows(iter(rows), spanned) == len(rref_rows(rows + units))


def test_rank_rows_changes_no_row_or_set_it_is_given():
    # a caller may keep what it passes, as the stabilizer oracle keeps its cached rows
    rows = [
        {2: QSqrt3(1)},
        {0: QSqrt3(0), 5: SQRT3},
        {2: QSqrt3(1), 4: QSqrt3(2)},
        {4: QSqrt3(1), 5: QSqrt3(7), 2: QSqrt3(1)},
        {1: QSqrt3(1), 3: SQRT3},
    ]
    lists = [list(row.items()) for row in rows]
    kept = [dict(row) for row in rows], [list(line) for line in lists]
    for spanned in ({4}, frozenset({4, 6})):
        before = set(spanned)
        rank = len(rref_rows(lists + [[(c, QSqrt3(1))] for c in spanned]))
        assert rank_rows((row.items() for row in rows), spanned) == rank
        assert rank_rows(lists, spanned) == rank_rows(lists, spanned) == rank
        assert spanned == before
    assert (rows, lists) == kept


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_sparse_systems())
def test_rank_rows_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(3))

    def entry(x: QSqrt3):
        return field.from_sympy(sympy.Rational(x.a.numerator, x.a.denominator)
                                + sympy.Rational(x.b.numerator, x.b.denominator) * sympy.sqrt(3))

    dense = [[field.zero] * _COLUMNS for _ in rows]
    for line, row in zip(dense, rows):
        for c, x in row:
            line[c] = entry(x)
    assert rank_rows(iter(rows)) == DomainMatrix(dense, (len(rows), _COLUMNS), field).rank()
