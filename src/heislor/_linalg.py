"""Small dense linear algebra over the two scalar backends.

Exact routines operate on numpy object arrays filled with QSqrt3 entries.
Elimination is sparse Gauss-Jordan on rows held as Python lists: a pivot row
is scaled and subtracted only over its nonzero columns, and rows with a zero
in the pivot column are skipped (every pivot decision is an exact zero test).
Float routines wrap numpy.  Everything here is sized for n <= 16.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .numerics import QSqrt3

# -- construction and conversion -------------------------------------------


def exact_array(rows) -> np.ndarray:
    """Object array of QSqrt3 from nested ints/Fractions/QSqrt3."""
    arr = np.array(rows, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        flat[i] = QSqrt3.coerce(v)
    return flat.reshape(arr.shape)


def exact_zeros(shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [QSqrt3(0)] * arr.size
    return arr


def exact_eye(n: int) -> np.ndarray:
    arr = exact_zeros((n, n))
    one = QSqrt3(1)
    for i in range(n):
        arr[i, i] = one
    return arr


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


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
def shared_minkowski_gram(n: int) -> np.ndarray:
    """The float minkowski_gram(n), built once and read-only."""
    g = minkowski_gram(n)
    g.flags.writeable = False
    return g


# -- exact elimination -------------------------------------------------------


def exact_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Q(sqrt3); returns (rref, pivot columns)."""
    rows, cols = a.shape
    m = [list(row) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        # entries left of c in rows r.. are zero, so only these columns move
        support = [j for j in range(c, cols) if prow[j]]
        head = prow[c]
        for j in support:
            prow[j] = prow[j] / head
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = np.empty((rows, cols), dtype=object)
    for i, row in enumerate(m):
        out[i] = row
    return out, pivots


def exact_rank(a: np.ndarray) -> int:
    return len(exact_rref(a)[1])


def exact_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the right nullspace, one vector per free column."""
    rref, pivots = exact_rref(a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = exact_zeros(cols)
        v[fc] = QSqrt3(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r, fc]
        basis.append(v)
    return basis


def exact_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b for square invertible a (b may be a matrix)."""
    n = a.shape[0]
    rhs = b if b.ndim == 2 else b.reshape(n, 1)
    aug = np.concatenate([a.copy(), rhs.copy()], axis=1)
    rref, pivots = exact_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular exact matrix")
    x = rref[:, n:]
    return x if b.ndim == 2 else x.reshape(n)


def exact_inv(a: np.ndarray) -> np.ndarray:
    return exact_solve(a, exact_eye(a.shape[0]))


def conjugate_unit(ginv: np.ndarray, g: np.ndarray, k: int, l: int) -> list:
    """Nonzero entries (a, c, x) of ginv @ E_kl @ g, multiplying nonzero factors only."""
    right = [(c, y) for c, y in enumerate(g[l]) if y]
    return [(a, c, x * y) for a, x in enumerate(ginv[:, k]) if x for c, y in right]


def congruence_diagonal(a: np.ndarray) -> list[QSqrt3]:
    """Diagonal of S^T A S for some invertible S, by symmetric elimination.

    Sylvester's law makes the sign counts of the result basis-independent,
    which is all the signature code needs.
    """
    m = a.copy()
    n = m.shape[0]
    diag: list[QSqrt3] = []
    for k in range(n):
        if m[k, k].is_zero():
            j = next((j for j in range(k + 1, n) if not m[j, j].is_zero()), None)
            if j is not None:
                m[[k, j]] = m[[j, k]]
                m[:, [k, j]] = m[:, [j, k]]
            else:
                j = next((j for j in range(k + 1, n) if not m[k, j].is_zero()), None)
                if j is None:
                    diag.append(QSqrt3(0))
                    continue
                # zero diagonal block with off-diagonal coupling: fold row/col j in
                m[k] = m[k] + m[j]
                m[:, k] = m[:, k] + m[:, j]
        pivot = m[k, k]
        for i in range(k + 1, n):
            if not m[i, k].is_zero():
                f = m[i, k] / pivot
                m[i] = m[i] - f * m[k]
                m[:, i] = m[:, i] - f * m[:, k]
        diag.append(pivot)
    return diag


# -- float helpers -----------------------------------------------------------


def householder(v: np.ndarray, k: int) -> np.ndarray:
    """Symmetric orthogonal H with H @ v = ||v|| e_k (so also v @ H = ||v|| e_k)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(n)
    u = v.copy()
    u[k] = 0.0
    rest = float(u @ u)
    # v[k] - ||v|| cancels when v is close to ||v|| e_k: use its equal
    # -rest / (v[k] + ||v||) there (Golub & Van Loan, Algorithm 5.1.1)
    u[k] = v[k] - norm if v[k] <= 0.0 else -rest / (v[k] + norm)
    uu = rest + float(u[k]) ** 2
    if uu < 1e-300:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(u, u) / uu


def right_triangularize(b: np.ndarray) -> np.ndarray:
    """Orthogonal Q with b @ Q upper triangular (RQ-style rotation)."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    flip = np.eye(n)[::-1]
    q_flipped, _ = np.linalg.qr(flip @ b.T @ flip)
    return flip @ q_flipped @ flip


def embed(block: np.ndarray, n: int, coords: tuple[int, ...]) -> np.ndarray:
    """Place a small block at the given coordinates of an n x n identity."""
    out = exact_eye(n) if block.dtype == object else np.eye(n)
    idx = np.array(coords, dtype=np.intp)
    out[idx[:, None], idx] = block
    return out


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for an empty array."""
    a = to_float(a)
    return float(np.abs(a).max()) if a.size else 0.0
