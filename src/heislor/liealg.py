"""The Lie algebra h3 + R^(n-3): brackets, derivations, automorphism pattern.

The algebra is spanned by e_1, ..., e_n with the single relation
[e_1, e_2] = e_n (n >= 4).  The derivation algebra is computed generically
from the structure constants by exact linear solves; the closed-form block
pattern of R x Aut is kept alongside as a cross-check and as the sampling
space for random automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import exact_nullspace, exact_rank, exact_zeros
from .numerics import QSqrt3


class DimensionTooSmall(ValueError):
    """The construction needs n >= 4."""


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants of h3 + R^(n-3) in the standard basis.

    c[i, j, k] is the e_k coefficient of [e_i, e_j]; the only nonzero
    entries are c[0, 1, n-1] = 1 = -c[1, 0, n-1].
    """

    n: int
    structure: np.ndarray = field(repr=False, compare=False)

    @property
    def nonzero_terms(self) -> list[tuple[int, int, int, int]]:
        ii, jj, kk = np.nonzero(self.structure)
        return [(i, j, k, int(self.structure[i, j, k])) for i, j, k in zip(ii, jj, kk)]


def build_algebra(n: int) -> LieAlgebra:
    """The Heisenberg algebra padded with an (n-3)-dimensional center."""
    if n < 4:
        raise DimensionTooSmall(f"need n >= 4, got {n}")
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
def derivation_basis(n: int) -> tuple[np.ndarray, ...]:
    """Basis of Der(g) from the Leibniz identity, solved exactly.

    Unknowns are the n^2 entries of D; each basis pair (e_i, e_j) with i < j
    contributes the n component equations of
    D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] = 0.
    """
    alg = build_algebra(n)
    c = alg.structure.astype(int)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                coeff = np.zeros((n, n), dtype=int)
                # D applied to the bracket value
                for l in range(n):
                    coeff[k, l] += c[i, j, l]
                # minus bracket with D on each slot
                for l in range(n):
                    coeff[l, i] -= c[l, j, k]
                    coeff[l, j] -= c[i, l, k]
                if np.any(coeff):
                    rows.append([QSqrt3(int(v)) for v in coeff.reshape(-1)])
    kernel = exact_nullspace(np.array(rows, dtype=object))
    return tuple(vec.reshape(n, n) for vec in kernel)


def derivation_space_dim(n: int) -> int:
    """dim(R*id + Der(g)); identity is never a derivation here."""
    basis = derivation_basis(n)
    mats = [m.reshape(-1) for m in basis]
    eye = exact_zeros(n * n)
    for i in range(n):
        eye[i * n + i] = QSqrt3(1)
    mats.append(eye)
    return exact_rank(np.array(mats, dtype=object))


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
        return BlockPattern(n=self.n, mask=self.mask.T.copy())

    @cached_property
    def outside(self) -> np.ndarray:
        """Read-only mask of the entries the pattern forces to zero."""
        out = ~self.mask
        out.flags.writeable = False
        return out

    def project(self, m: np.ndarray) -> np.ndarray:
        out = m.copy()
        if out.dtype == object:
            zero = QSqrt3(0)
            for i in range(self.n):
                for j in range(self.n):
                    if not self.mask[i, j]:
                        out[i, j] = zero
        else:
            out[self.outside] = 0.0
        return out


@lru_cache(maxsize=None)
def aut_pattern(n: int) -> BlockPattern:
    """Mask of R x Aut(g): zero upper-right 2 x (n-2) block, zero (n-3) x 1 block."""
    mask = np.zeros((n, n), dtype=bool)
    mask[0:2, 0:2] = True
    mask[2 : n - 1, 0 : n - 1] = True
    mask[n - 1, :] = True
    return BlockPattern(n=n, mask=mask)


@lru_cache(maxsize=None)
def hprime_pattern(n: int) -> BlockPattern:
    """Transposed pattern, the group acting on the left in the reduction."""
    return aut_pattern(n).transposed()

