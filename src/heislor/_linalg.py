"""Small linear algebra over the two scalar backends.

Exact elimination is one sparse Gauss-Jordan kernel over Q(sqrt3) on rows
{column: nonzero QSqrt3}; an entry is deleted the moment it cancels, so no
zero is stored or tested again (T. A. Davis, *Direct Methods for Sparse Linear
Systems*, 2006, ch. 3).  Callers pass sparse rows to rank_rows, rref_rows and
nullspace_rows; exact_rank and exact_inv adapt object arrays of QSqrt3 to them.
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
from functools import lru_cache, partial, wraps

import numpy as np
from numpy._core._multiarray_umath import _make_extobj
from numpy._core._ufunc_config import _extobj_contextvar
from numpy.linalg import LinAlgError, _umath_linalg

from .numerics import QSqrt3, sub_product

_ZERO, _ONE = QSqrt3(0), QSqrt3(1)

#: |det|^(1/n) below this (unit roundoff) times the largest entry reads as singular
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
    arr = exact_zeros((n, n))
    one = QSqrt3(1)
    for i in range(n):
        arr[i, i] = one
    return arr


def to_float(a: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return np.array([[float(x) for x in row] for row in a], dtype=float)
    return np.asarray(a, dtype=float)


def minkowski_gram(n: int, exact: bool = False) -> np.ndarray:
    """diag(1, ..., 1, -1), the canonical Lorentzian inner product."""
    if exact:
        g = exact_eye(n)
        g[n - 1, n - 1] = QSqrt3(-1)
        return g
    g = np.eye(n)
    g[n - 1, n - 1] = -1.0
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
    """Forward elimination of rows given as iterables of (column, value) pairs.

    Returns {pivot column c: tail}, the row e_c + tail with tail right of c.  A
    row is reduced from its leftmost entry, where a pivot row fills in rightwards.
    """
    pivots: dict[int, dict[int, QSqrt3]] = {}
    for items in rows:
        row = {c: x for c, x in items if x}
        while row:
            c = min(row)
            f = row.pop(c)
            if c not in pivots:
                pivots[c] = row if f == _ONE else {j: x / f for j, x in row.items()}
                break
            _subtract(row, f, pivots[c])
    return pivots


def rank_rows(rows) -> int:
    """Exact rank of sparse rows, by forward elimination alone."""
    return len(_echelon(rows))


def rref_rows(rows) -> dict[int, dict[int, QSqrt3]]:
    """Reduced row echelon form as {pivot column: tail}, in pivot order.

    Back substitution runs from the last pivot, whose tail is already free of
    later pivot columns, so no subtraction brings one back.
    """
    pivots = _echelon(rows)
    order = sorted(pivots)
    for k in reversed(order):
        for c in order[: order.index(k)]:
            f = pivots[c].pop(k, None)
            if f is not None:
                _subtract(pivots[c], f, pivots[k])
    return {c: pivots[c] for c in order}


def nullspace_rows(rows, cols: int) -> list[dict[int, QSqrt3]]:
    """Right nullspace basis, one sparse vector per free column."""
    rref = rref_rows(rows)
    free = (fc for fc in range(cols) if fc not in rref)
    return [{fc: _ONE, **{pc: -t[fc] for pc, t in rref.items() if fc in t}} for fc in free]


def exact_dense(rows, shape) -> np.ndarray:
    """Object array of the given shape whose leading rows are the sparse rows."""
    out = exact_zeros(shape)
    for r, items in enumerate(rows):
        for j, x in items:
            out[r, j] = x
    return out


def exact_rank(a: np.ndarray) -> int:
    return rank_rows(enumerate(row) for row in a)


def exact_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square exact matrix, from the rref of [a | id]."""
    n = a.shape[0]
    rref = rref_rows([*enumerate(row), (n + i, _ONE)] for i, row in enumerate(a))
    if list(rref) != list(range(n)):
        raise ZeroDivisionError("singular exact matrix")
    return exact_dense([[(j - n, x) for j, x in rref[i].items()] for i in range(n)], (n, n))


def shear_conjugator(lam, xi, n: int):
    """(k, l) -> nonzero entries (a, c, x) of g^-1 E_kl g, for the shear
    g = I + xi E_(0,n-2) + lam E_(0,n-1).

    N = g - I has N^2 = 0, so g^-1 = I - N is the shear by (-xi, -lam): the columns
    of g^-1 and the rows of g are read off lam and xi, with no inverse formed.
    Entries are listed row by row, as in the dense product; a product with a unit
    factor is the other factor.
    """
    lam, xi = QSqrt3.coerce(lam), QSqrt3.coerce(xi)
    one = QSqrt3(1)  # the unit entries, told apart by identity
    cols = [[(k, one)] for k in range(n)]  # column k of g^-1
    rows = [[(l, one)] for l in range(n)]  # row l of g
    for c, x in ((n - 2, xi), (n - 1, lam)):
        if x:
            cols[c].insert(0, (0, -x))
            rows[0].append((c, x))
    return lambda k, l: [
        (a, c, y if x is one else x if y is one else x * y) for a, x in cols[k] for c, y in rows[l]
    ]


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
# Each is numpy.linalg's own float64 gufunc call, under its wrapper's errstate where it has
# one, so the bits, the LinAlgError and its message are numpy.linalg's; the wrapper's
# checks, casts and result wrapping cost more than LAPACK at n <= 8.  Each errstate is built
# once and set per call as np.errstate sets it, on a per-thread contextvar.  Bound at
# import, so a numpy without these names (numpy 1.x splits the QR gufunc in two) fails there.

#: numpy.linalg's message for an eigensolver that did not converge
EIG_FAILURE = "Eigenvalues did not converge"


def _with_errstate(**flags):
    """Decorator: run f under the numpy error state `flags`, built once.  Name all four
    flags: _make_extobj copies an unnamed one from the state it is built in."""
    state = _make_extobj(**flags)

    def decorate(f):
        @wraps(f)
        def under(*args):
            token = _extobj_contextvar.set(state)
            try:
                return f(*args)
            finally:
                _extobj_contextvar.reset(token)

        return under

    return decorate


def _errstate(failure: str):
    """numpy.linalg's errstate around a gufunc: an invalid result raises LinAlgError(failure)."""

    def fail(err, flag):
        raise LinAlgError(failure)

    return _with_errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


inv = _errstate("Singular matrix")(partial(_umath_linalg.inv, signature="d->d"))
eigh = _errstate(EIG_FAILURE)(partial(_umath_linalg.eigh_lo, signature="d->dd"))
eigvalsh = _errstate(EIG_FAILURE)(partial(_umath_linalg.eigvalsh_lo, signature="d->d"))
slogdet = partial(_umath_linalg.slogdet, signature="d->dd")
det = partial(_umath_linalg.det, signature="d->d")
_qr_r_raw = partial(_umath_linalg.qr_r_raw, signature="d->d")
_qr_reduced = partial(_umath_linalg.qr_reduced, signature="dd->d")
# is_singular's slogdet: a NaN entry is no error, it reads singular; the rest are numpy's defaults
_nan_slogdet = _with_errstate(invalid="ignore", over="warn", divide="warn", under="ignore")(slogdet)


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
    if norm == 0.0:
        return shared_eye(n).copy()
    vk = float(sub[k])
    sub[k] = 0.0
    rest = float(sub.dot(sub))
    # v[k] - ||v|| cancels when v is close to ||v|| e_k: use its equal
    # -rest / (v[k] + ||v||) there (Golub & Van Loan, Algorithm 5.1.1)
    uk = vk - norm if vk <= 0.0 else -rest / (vk + norm)
    sub[k] = uk
    uu = rest + uk**2
    if uu < UNDERFLOW:
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
