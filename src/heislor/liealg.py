"""The Lie algebra h3 + R^(n-3): brackets, derivations, automorphism pattern.

The algebra is spanned by e_1, ..., e_n with the single relation
[e_1, e_2] = e_n (n >= 4).  The derivation algebra is computed generically
from the structure constants by exact linear solves; the closed-form block
pattern of R x Aut is kept alongside as a cross-check and as the sampling
space for random automorphisms.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import exact_dense, exact_zeros, nullspace_rows, rank_rows
from .numerics import QSqrt3


class DimensionTooSmall(ValueError):
    """The construction needs n >= 4."""


def require_dim(n: int) -> None:
    """Raise DimensionTooSmall unless n >= 4."""
    if n < 4:
        raise DimensionTooSmall(f"need n >= 4, got {n}")


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of h3 + R^(n-3) in the standard basis.

    c[i, j, k] is the e_k coefficient of [e_i, e_j]; the only nonzero
    entries are c[0, 1, n-1] = 1 = -c[1, 0, n-1].
    """

    n: int
    structure: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def nonzero_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        c = self.structure
        return tuple((i, j, k, int(c[i, j, k])) for i, j, k in np.argwhere(c).tolist())


def build_algebra(n: int) -> LieAlgebra:
    """The Heisenberg algebra padded with an (n-3)-dimensional center."""
    require_dim(n)
    c = np.zeros((n, n, n), dtype=np.int8)
    c[0, 1, n - 1] = 1
    c[1, 0, n - 1] = -1
    return LieAlgebra(n=n, structure=c)


def bracket_vec(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for coordinate vectors over either backend."""
    if x.dtype == object or y.dtype == object:
        out = exact_zeros(alg.n)
        for i, j, k, v in alg.nonzero_terms:
            out[k] = out[k] + v * x[i] * y[j]
        return out
    return np.einsum("ijk,i,j->k", alg.structure, x, y)


@lru_cache(maxsize=None)
def _derivation_vectors(n: int) -> tuple[tuple, ...]:
    """Der(g) as sparse vectors of (n*r + c, D[r, c]) pairs, from the Leibniz identity.

    Unknowns are the n^2 entries of D; each pair e_i, e_j with i < j gives the
    n equations D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] = 0, whose coefficients
    come from the nonzero structure constants c[a, b, l] = v alone.
    """
    rows: defaultdict[tuple[int, int, int], Counter] = defaultdict(Counter)
    for a, b, l, v in build_algebra(n).nonzero_terms:
        if a < b:  # D applied to the bracket value v e_l
            for k in range(n):
                rows[a, b, k][k * n + l] += v
        for i in range(b):  # [D e_i, e_b] picks D[a, i]
            rows[i, b, l][a * n + i] -= v
        for j in range(a + 1, n):  # [e_a, D e_j] picks D[b, j]
            rows[a, j, l][b * n + j] -= v
    system = (((c, QSqrt3(v)) for c, v in row.items()) for row in rows.values())
    return tuple(tuple(vec.items()) for vec in nullspace_rows(system, n * n))


@lru_cache(maxsize=None)
def derivation_basis(n: int) -> tuple[np.ndarray, ...]:
    """Basis of Der(g) as read-only n x n matrices, solved exactly."""
    vectors = _derivation_vectors(n)
    basis = exact_dense(vectors, (len(vectors), n * n)).reshape(-1, n, n)
    basis.flags.writeable = False
    return tuple(basis)


def derivation_space_dim(n: int) -> int:
    """dim(R*id + Der(g)); identity is never a derivation here."""
    identity = [(i * n + i, QSqrt3(1)) for i in range(n)]
    return rank_rows([*_derivation_vectors(n), identity])


@dataclass(frozen=True)
class BlockPattern:
    """Allowed-entry mask for the scaled automorphism group of h3 + R^(n-3).

    Block sizes (2, n-3, 1): the top 2x2 block acts on the bracket
    generators, the middle block mixes central directions into everything
    below, and only the last row may hit e_n.
    """

    n: int
    mask: np.ndarray = field(repr=False, compare=False)

    def transposed(self) -> "BlockPattern":
        mask = self.mask.T.copy()  # C order keeps boolean indexing by `outside` fast
        mask.flags.writeable = False
        return BlockPattern(n=self.n, mask=mask)

    @cached_property
    def outside(self) -> np.ndarray:
        """Read-only mask of the entries the pattern forces to zero."""
        out = ~self.mask
        out.flags.writeable = False
        return out


@lru_cache(maxsize=None)
def aut_pattern(n: int) -> BlockPattern:
    """Mask of R x Aut(g): zero upper-right 2 x (n-2) block, zero (n-3) x 1 block."""
    mask = np.zeros((n, n), dtype=bool)
    mask[0:2, 0:2] = True
    mask[2 : n - 1, 0 : n - 1] = True
    mask[n - 1, :] = True
    mask.flags.writeable = False  # shared through the cache, like hprime_pattern's
    return BlockPattern(n=n, mask=mask)


@lru_cache(maxsize=None)
def hprime_pattern(n: int) -> BlockPattern:
    """Transposed pattern, the group acting on the left in the reduction."""
    return aut_pattern(n).transposed()

