"""The Lie algebra h3 + R^(n-3): bracket relations, derivations, automorphism pattern.

The algebra is spanned by e_1, ..., e_n with the single relation
[e_1, e_2] = e_n (n >= 4).  Its bracket relations are kept here once, as the
sparse rows of the sheared frame at (lam, xi) (_bracket_terms); the frame at
lam = xi = 0 is the standard basis.  The curvature module reads these rows,
and the derivation algebra is counted by the exact rank of the Leibniz
identity's rows at lam = xi = 0.  The closed-form block pattern of R x Aut is kept
alongside as a cross-check and as the sampling space for random automorphisms;
the reduction's left factors lie in its transpose, aut_pattern(n).mask.T.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from operator import index

import numpy as np

from ._linalg import rank_rows
from .errors import DimensionNotInteger, DimensionTooSmall
from .numerics import QSqrt3, _Frozen


def require_dim(n: int) -> None:
    """Raise DimensionNotInteger unless n is an integer (operator.index takes a numpy
    one, not 5.0), and DimensionTooSmall unless n >= 4."""
    try:
        index(n)
    except TypeError:
        raise DimensionNotInteger(f"n must be an integer, got {n!r}") from None
    if n < 4:
        raise DimensionTooSmall(f"need n >= 4, got {n}")


def _bracket_terms(lam, xi, n: int) -> dict:
    """The bracket relations as sparse rows {(i, j): {k: C[i, j, k]}}, both orders.

    C[i, j] holds the frame coordinates of [x_i, x_j] in the frame
    x_1, ..., x_n at (lam, xi):

        [x_1, x_2] = -(lam x_1 - x_n),
        [x_2, x_(n-1)] = xi (lam x_1 - x_n),
        [x_2, x_n] = lam (lam x_1 - x_n).

    Each relation is a multiple of w = lam x_1 - x_n; a coefficient that is zero
    is left out.  At lam = xi = 0 the frame is the standard basis and the one
    relation left is [e_1, e_2] = e_n.
    """
    require_dim(n)
    lam, xi = QSqrt3.coerce(lam), QSqrt3.coerce(xi)
    w = {k: x for k, x in ((0, lam), (n - 1, QSqrt3(-1))) if x}
    terms = {}
    for i, j, f in ((0, 1, QSqrt3(-1)), (1, n - 2, xi), (1, n - 1, lam)):
        if f:
            terms[i, j] = {k: f * x for k, x in w.items()}
            terms[j, i] = {k: -x for k, x in terms[i, j].items()}
    return terms


def derivation_space_dim(n: int) -> int:
    """dim(R*id + Der(g)), from the Leibniz identity: n^2 less the rank of its rows, plus
    one when the identity violates a row.

    Unknowns are the n^2 entries of D, column n*r + c for D[r, c]; each pair e_i, e_j with
    i < j gives the n equations D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] = 0, whose
    coefficients come from the nonzero entries c[a, b, l] = v of the table at
    lam = xi = 0 alone.  The identity solves a row when the row's diagonal entries sum to zero.
    """
    rows: defaultdict[tuple[int, int, int], Counter] = defaultdict(Counter)
    for (a, b), bracket in _bracket_terms(0, 0, n).items():
        for l, v in bracket.items():
            if a < b:  # D applied to the bracket value v e_l
                for k in range(n):
                    rows[a, b, k][k * n + l] += v
            for i in range(b):  # [D e_i, e_b] picks D[a, i]
                rows[i, b, l][a * n + i] -= v
            for j in range(a + 1, n):  # [e_a, D e_j] picks D[b, j]
                rows[a, j, l][b * n + j] -= v
    identity_violates = any(sum(row[i * n + i] for i in range(n)) for row in rows.values())
    return n * n - rank_rows(row.items() for row in rows.values()) + identity_violates


class BlockPattern(_Frozen):
    """Allowed-entry mask for the scaled automorphism group of h3 + R^(n-3).

    Block sizes (2, n-3, 1): the top 2x2 block acts on the bracket
    generators, the middle block mixes central directions into everything
    below, and only the last row may hit e_n.  The mask is read-only and
    shared through aut_pattern's cache.  Equal, hashed and shown by n alone.
    """

    __slots__ = ("n", "mask")
    _FIELDS = ("n",)

    def __init__(self, n: int, mask: np.ndarray) -> None:
        self._fill(n, mask)


@lru_cache(maxsize=None, typed=True)
def aut_pattern(n: int) -> BlockPattern:
    """Mask of R x Aut(g): zero upper-right 2 x (n-2) block, zero (n-3) x 1 block."""
    require_dim(n)
    mask = np.zeros((n, n), dtype=bool)
    mask[0:2, 0:2] = True
    mask[2 : n - 1, 0 : n - 1] = True
    mask[n - 1, :] = True
    mask.flags.writeable = False
    return BlockPattern(n=n, mask=mask)
