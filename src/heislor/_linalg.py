"""Small linear algebra over the two scalar backends.

Exact elimination is one sparse Gauss-Jordan kernel over Q(sqrt3) on rows
{column: nonzero QSqrt3}; an entry is deleted the moment it cancels, so no
zero is stored or tested again (T. A. Davis, *Direct Methods for Sparse Linear
Systems*, 2006, ch. 3).  Callers pass rank_rows and rref_rows sparse rows, each an
iterable of (column, value) pairs with zeros allowed, which neither changes.  rank_rows
first sets aside the one-entry rows, each of which spans its column, and a set of columns
the caller already knows spanned, and eliminates only the rest with those columns dropped;
rref_rows eliminates every row.  exact_rank, exact_inv and exact_dense adapt object arrays
of QSqrt3 to them.
Float routines wrap numpy.  At the n <= 8 of a reduction a numpy call's fixed cost
outweighs its arithmetic, so they make few calls and copies.  Every float LAPACK call of the
package is one of the kernels below, six or seven per float classify + verify_witness: eigh
(the factorization), eigvalsh (the center block), qr_q (the lam=0 or t-form stage), one inv
per left solve (two on the lam=2 branch off its wall), and verify_witness's inv of the
m-factor and stacked slogdet.  2-D products and householder's norms are BLAS through
ndarray.dot: np.matmul's bits and floating-point checks, no ufunc dispatch.
np.maximum.reduce is ndarray.max without its Python wrapper.
Everything is sized for n <= 24.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .numerics import QSqrt3, sub_product

_ZERO, _ONE = QSqrt3(0), QSqrt3(1)

#: |det|^(1/n) below this (machine epsilon) times the largest entry reads as singular
SINGULAR_RATIO = 2.0**-52
#: a Householder vector with squared norm below this has underflowed
UNDERFLOW = 1e-300

# -- construction and conversion -------------------------------------------


def exact_array(rows) -> np.ndarray:
    """Object array of QSqrt3 from nested ints/Fractions/QSqrt3."""
    arr = np.array(rows, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = QSqrt3.coerce(v)
    return flat.reshape(arr.shape)


def exact_zeros(shape) -> np.ndarray:
    return np.full(shape, QSqrt3(0), dtype=object)


def exact_eye(n: int) -> np.ndarray:
    return exact_dense({(i,): {i: _ONE} for i in range(n)}, (n, n))


def to_float(a: np.ndarray) -> np.ndarray:
    """a as float64, of any rank; an exact entry beyond the float range raises OverflowError."""
    return np.asarray(a, dtype=float)


def minkowski_gram(n: int, exact: bool = False) -> np.ndarray:
    """diag(1, ..., 1, -1), the canonical Lorentzian inner product."""
    g = exact_eye(n) if exact else np.eye(n)
    g[n - 1, n - 1] = -g[n - 1, n - 1]
    return g


@lru_cache(maxsize=None)
def shared_eye(n: int) -> np.ndarray:
    """The float np.eye(n), built once and read-only; a copy costs a quarter of np.eye."""
    g = np.eye(n)
    g.flags.writeable = False
    return g


@lru_cache(maxsize=None)
def shared_minkowski_gram(n: int) -> np.ndarray:
    """The float minkowski_gram(n), built once and read-only."""
    g = minkowski_gram(n)
    g.flags.writeable = False
    return g


# -- exact elimination -------------------------------------------------------


def _subtract(row: dict[int, QSqrt3], f: QSqrt3, tail: dict[int, QSqrt3]) -> None:
    """row -= f * tail in place, one fused multiply-subtract per entry, deleting every
    entry that cancels to zero."""
    for j, y in tail.items():
        x = sub_product(row.pop(j, _ZERO), f, y)
        if x:
            row[j] = x


def _echelon(rows) -> dict[int, dict[int, QSqrt3]]:
    """Forward elimination of sparse rows {column: nonzero value}, which it consumes.

    Returns {pivot column c: tail}, the row e_c + tail with tail right of c.  A
    row is reduced from its leftmost entry, where a pivot row fills in rightwards.
    """
    pivots: dict[int, dict[int, QSqrt3]] = {}
    for row in rows:
        while row:
            c = min(row)
            f = row.pop(c)
            if c not in pivots:
                pivots[c] = row if f == _ONE else {j: x / f for j, x in row.items()}
                break
            _subtract(row, f, pivots[c])
    return pivots


def rank_rows(rows, spanned: frozenset[int] = frozenset()) -> int:
    """Exact rank of sparse rows stacked on the unit rows e_c, c in `spanned`: the one-entry
    rows and `spanned` counted, the rest by forward elimination.

    `rows` is an iterable of rows, each an iterable of (column, value) pairs, zeros
    allowed; `spanned` is a set of columns.  Neither, nor any row, is changed, so a caller
    may pass a set or rows it keeps.  A row x e_c with x != 0 spans e_c.  Let C be
    `spanned` and the columns of the one-entry rows: they span the coordinate space on C,
    and the quotient by it is the other coordinates, so rank = |C| + the rank of the
    longer rows with the columns in C dropped.  This holds for any rows: a one-entry
    column repeated, or already in `spanned`, counts once, and a row that has one entry
    or none only after the drop is eliminated as any other.
    """
    rows = [{c: x for c, x in items if x} for items in rows]
    singles = spanned.union(c for row in rows if len(row) == 1 for c in row)
    rest = ({c: x for c, x in row.items() if c not in singles} for row in rows if len(row) > 1)
    return len(singles) + len(_echelon(rest))


def rref_rows(rows) -> dict[int, dict[int, QSqrt3]]:
    """Reduced row echelon form as {pivot column: tail}, in pivot order, of rows given as
    iterables of (column, value) pairs, zeros allowed.

    Back substitution runs from the last pivot, whose tail is already free of
    later pivot columns, so no subtraction brings one back.
    """
    pivots = _echelon({c: x for c, x in items if x} for items in rows)
    order = sorted(pivots)
    for k in reversed(order):
        for c in order[: order.index(k)]:
            f = pivots[c].pop(k, None)
            if f is not None:
                _subtract(pivots[c], f, pivots[k])
    return {c: pivots[c] for c in order}


def exact_dense(rows: dict, shape: tuple[int, ...]) -> np.ndarray:
    """Object array of the given shape from sparse rows {leading indices: {last index: x}}."""
    out = exact_zeros(shape)
    for key, row in rows.items():
        line = out[key]  # a view: an int index writes faster than a built tuple
        for k, x in row.items():
            line[k] = x
    return out


def exact_rank(a: np.ndarray) -> int:
    return rank_rows(enumerate(row) for row in a)


def exact_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square exact matrix, from the rref of [a | id]."""
    n = a.shape[0]
    rref = rref_rows([*enumerate(row), (n + i, _ONE)] for i, row in enumerate(a))
    if list(rref) != list(range(n)):
        raise ZeroDivisionError("singular exact matrix")
    return exact_dense({(i,): {j - n: x for j, x in rref[i].items()} for i in range(n)}, (n, n))


def congruence_diagonal(a: np.ndarray) -> list[QSqrt3]:
    """Diagonal of S^T A S for some invertible S, by symmetric elimination.

    Sylvester's law makes the sign counts of the result basis-independent, which
    is all the signature code needs.  A pivot m_kk on sparse symmetric rows leaves
    m_il - m_ik m_kl / m_kk; a block [[0, b], [b, 0]] (signs +, -) stands in for it
    once the diagonal is zero.
    """
    m = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
    diag: list[QSqrt3] = []
    while any(m.values()):
        k = next((i for i, row in m.items() if i in row), None)
        block = [k] if k is not None else next([i, j] for i, row in m.items() for j in row)
        cols = [m.pop(i) for i in block]
        for row in m.values():
            for i in block:
                row.pop(i, None)
        d = cols[0].pop(block[-1])  # m_kk, or b
        cols[-1].pop(block[0], None)  # b again, in the block's second row
        for mine, other in zip(cols, cols[::-1]):
            for i, x in mine.items():
                _subtract(m[i], x / d, other)
        diag += [d, -d][: len(block)]
    return diag + [QSqrt3(0)] * (a.shape[0] - len(diag))


# -- float LAPACK kernels ----------------------------------------------------
# Each is numpy.linalg's own float64 gufunc call, under its wrapper's np.errstate where it
# has one, so the bits, the LinAlgError and its message are numpy.linalg's; the wrapper's
# checks, casts and result wrapping cost more than LAPACK at n <= 8.  numpy.linalg's private
# _umath_linalg, which holds the gufuncs, is the one private numpy name the package reads.
# Bound at import, so a numpy without these gufuncs (numpy 1.x splits QR in two) fails there.

#: numpy.linalg's message for an eigensolver that did not converge
EIG_FAILURE = "Eigenvalues did not converge"


def _errstate(failure: str) -> np.errstate:
    """numpy.linalg's errstate around a gufunc: an invalid result raises LinAlgError(failure)."""

    def fail(err, flag):
        raise LinAlgError(failure)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


inv = _errstate("Singular matrix")(partial(_umath_linalg.inv, signature="d->d"))
eigh = _errstate(EIG_FAILURE)(partial(_umath_linalg.eigh_lo, signature="d->dd"))
eigvalsh = _errstate(EIG_FAILURE)(partial(_umath_linalg.eigvalsh_lo, signature="d->d"))
slogdet = partial(_umath_linalg.slogdet, signature="d->dd")
det = partial(_umath_linalg.det, signature="d->d")
_qr_r_raw = partial(_umath_linalg.qr_r_raw, signature="d->d")
_qr_reduced = partial(_umath_linalg.qr_reduced, signature="dd->d")
# is_singular's slogdet warns of nothing: a NaN or inf entry gives a NaN, which reads singular
_nan_slogdet = np.errstate(all="ignore")(slogdet)


def _qr_q_in_place(a: np.ndarray) -> np.ndarray:
    """qr_q of a float64 array that the Householder factorization may overwrite.  The QR
    gufuncs raise no floating-point error on any input, so no errstate wraps them."""
    return _qr_reduced(a, _qr_r_raw(a))


def qr_q(a: np.ndarray) -> np.ndarray:
    """The Q of numpy.linalg.qr(a), with no R formed."""
    return _qr_q_in_place(np.array(a, dtype=float))  # a copy, which the factorization overwrites


# -- float helpers -----------------------------------------------------------


def householder(v: np.ndarray, k: int, n: int, lo: int) -> np.ndarray:
    """The n x n identity with, on rows and columns lo .. lo + len(v) - 1, the symmetric
    orthogonal H with H @ v = ||v|| e_k (so also v @ H = ||v|| e_k)."""
    u = np.zeros(n)
    sub = u[lo : lo + len(v)]  # a view: the norms are read on v's entries alone
    sub[...] = v
    norm = math.sqrt(sub.dot(sub))
    vk = float(sub[k])
    sub[k] = 0.0
    rest = float(sub.dot(sub))
    # v[k] - ||v|| cancels when v is close to ||v|| e_k: use its equal
    # -rest / (v[k] + ||v||) there (Golub & Van Loan, Algorithm 5.1.1)
    uk = vk - norm if vk <= 0.0 else -rest / (vk + norm)
    sub[k] = uk
    uu = rest + uk**2
    if uu < UNDERFLOW:  # a zero v too
        return shared_eye(n).copy()
    if uu < math.inf:  # u is finite, so its outer product is +-0 off the block
        return shared_eye(n) - 2.0 * (u[:, None] * u) / uu
    out = shared_eye(n).copy()  # an inf or NaN in v: 0 * inf must not reach off the block
    out[lo : lo + len(v), lo : lo + len(v)] -= 2.0 * (sub[:, None] * sub) / uu
    return out


def is_singular(a: np.ndarray, sizes: list[float] | None = None) -> list[bool]:
    """Whether each float matrix of a stack is numerically singular (a NaN makes it so), at
    any scale: |det|^(1/n) against the largest entry, `sizes` if the caller has it (Golub &
    Van Loan, section 2.6).  One slogdet and one exp for the stack, then Python floats."""
    sign, logdet = _nan_slogdet(a)
    if sizes is None:
        sizes = np.maximum.reduce(np.abs(a), axis=(1, 2)).tolist()
    roots = zip(sign.tolist(), np.exp(logdet / a.shape[-1]).tolist(), sizes)
    return [s == 0.0 or not r >= SINGULAR_RATIO * m for s, r, m in roots]


def right_triangularize(b: np.ndarray, n: int, lo: int) -> np.ndarray:
    """The n x n identity with, on rows and columns lo .. lo + len(b) - 1, the orthogonal
    Q with b @ Q upper triangular (RQ-style rotation), for a float or integer array b."""
    # b^T with rows and columns reversed; + 0.0 turns -0.0 into 0.0, so Q has no signed zero
    q_flipped = _qr_q_in_place(b.T[::-1, ::-1] + 0.0)
    out = shared_eye(n).copy()
    out[lo : lo + len(b), lo : lo + len(b)] = q_flipped[::-1, ::-1] + 0.0
    return out


def embed(block: np.ndarray, n: int, coords: tuple[int, ...]) -> np.ndarray:
    """Place a small float block at the given coordinates of an n x n identity."""
    out = shared_eye(n).copy()
    out.put(_flat_block_index(n, tuple(coords)), block)
    return out


@lru_cache(maxsize=None)
def _flat_block_index(n: int, coords: tuple[int, ...]) -> np.ndarray:
    """Positions of the coords x coords block in a flattened n x n matrix, row by row;
    one flat write costs less than a slice pair and half an np.ix_ write."""
    c = np.array(coords, dtype=np.intp)
    index = (n * c[:, None] + c).reshape(-1)
    index.flags.writeable = False
    return index


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for an empty array."""
    a = to_float(a)
    return float(np.maximum.reduce(np.abs(a), axis=None)) if a.size else 0.0
