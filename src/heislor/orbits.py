"""Orbit geometry: stabilizers, codimensions, and the degeneration graph.

The six classes are orbits of the scaled automorphism group acting on the
space of Lorentzian inner products.  Their codimensions come from stabilizer
dimensions, computed both in closed form, from the (lam, xi) algebra, and as the
exact rank of M^T G + G M = 0 over the pattern matrices M, G the canonical gram.
The rank oracle reads G's three sparse corner rows, metrics._gram_rows, with no
dense gram: every other row is e_i, so the (n-2)(n-3) positions off the corner
have one-entry columns, which rank_rows counts without elimination.  The
closure relations are re-derived from explicit metric curves (positive
evidence), whose samples are checked against their expected classes, not
stored.  A missing relation needs an obstruction: codimension, or a jump in
the restricted signatures, read from signature_table, which the signature
check (criterion 2) certifies by exact congruence for n = 4..10.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from ._linalg import rank_rows
from .curvature import closed_form_riemann, is_flat
from .errors import EvidenceFailure, OracleMismatch
from .liealg import aut_pattern, require_dim
from .metrics import (
    CANONICAL_PAIRS,
    _gram_rows,
    canonical_gram,
    canonical_pair,
    xi_exact,
    xi_json,
)
from .numerics import SQRT3_F, QSqrt3
from .reduction import _classify_grams, signature_table

#: interior parameters sampled on each degeneration curve
CURVE_SAMPLES = 10
#: distance of each curve's near-limit sample from its limit.  Family B's (lam = 1,
#: xi = 1e-4) has the center eigenvalue -xi^2 = -1e-8, outside the 1e-9 zero band but
#: within its NearDegenerate margin, so the reader flags it; the other five are not flagged
NEAR_LIMIT_STEP = 1e-4


def dims_UW(lam: int, xi, n: int) -> tuple[int, int]:
    """Dimensions of the two stabilizer solution spaces, by exact rank.

    The corner space is {(b, d): (lam^2-xi^2-1) b = -lam xi d, (lam^2-1) d = 0}
    in R^2; the mixing space imposes (lam^2-1) a = -xi c on each of the n-4
    coordinate pairs.
    """
    require_dim(n)
    lam, key = canonical_pair(lam, xi)
    lam_e, xi_e = QSqrt3(lam), xi_exact(key)
    a = lam_e * lam_e - 1
    dim_u = 2 - rank_rows([[(0, a - xi_e * xi_e), (1, lam_e * xi_e)], [(1, a)]])
    dim_w = (n - 4) * (2 - rank_rows([[(0, a), (1, xi_e)]]))
    return dim_u, dim_w


@lru_cache(maxsize=None)
def _stabilizer_layout(n: int) -> tuple[tuple[tuple[int, int], ...], list[list[int]]]:
    """The pattern positions (i, j), and row_of[a][b] = row_of[b][a], the row of the
    upper-triangle position {a, b} in a column of the stabilizer system."""
    row_of = [[0] * n for _ in range(n)]
    for row, (r, s) in enumerate((r, s) for r in range(n) for s in range(r, n)):
        row_of[r][s] = row_of[s][r] = row
    positions = tuple((int(i), int(j)) for i, j in zip(*np.nonzero(aut_pattern(n).mask)))
    return positions, row_of


def _stabilizer_system(lam: int, xi, n: int) -> list[dict]:
    """Per position E_ij, the upper triangle of E_ij^T G + G E_ij as a sparse column
    {row: value}, G the canonical gram: G[i, k] in the row of {j, k}, and 2 G[i, j] in
    the row of {j, j}.  G's rows are read sparse, from metrics._gram_rows: row i is e_i
    unless i is 0, n-2 or n-1, so a position with any other i has a one-entry column.
    """
    lam, key = canonical_pair(lam, xi)
    one = QSqrt3(1)
    two = one + one
    corner = _gram_rows(QSqrt3(lam), xi_exact(key), n, one)
    positions, row_of = _stabilizer_layout(n)
    system = []
    for i, j in positions:
        rows = row_of[j]
        line = corner.get((i,))
        if line is None:  # G[i] = e_i
            system.append({rows[i]: two if i == j else one})
        else:
            system.append({rows[k]: x + x if k == j else x for k, x in line.items() if x})
    return system


def _stabilizer_rank_oracle(lam: int, xi, n: int) -> int:
    """dim of {pattern matrices M : M^T G + G M = 0}, the stabilizer of the gram G.

    The number of positions less the rank of the :func:`_stabilizer_system` columns.
    With G = g^-T J g^-1 for the shear g and J = diag(1, ..., 1, -1), and X = g^-1 M g,
    g^T (M^T G + G M) g = X^T J + J X.  Congruence by g is invertible on symmetric
    matrices, so M solves the gram's condition exactly when X is skew with respect to
    the Lorentz form, and both systems have the same rank.
    """
    system = _stabilizer_system(lam, xi, n)
    return len(system) - rank_rows(col.items() for col in system)


@lru_cache(maxsize=None)
def _stabilizer_dim_cached(lam: int, key: str, n: int) -> int:
    dim_u, dim_w = dims_UW(lam, key, n)
    closed = 1 + (n - 4) * (n - 5) // 2 + dim_u + dim_w
    oracle = _stabilizer_rank_oracle(lam, key, n)
    if closed != oracle:
        raise OracleMismatch(
            f"stabilizer dim at ({lam}, {key}), n={n}: closed form {closed}, rank {oracle}"
        )
    return closed


def stabilizer_dim(lam: int, xi, n: int) -> int:
    """Stabilizer dimension, closed form cross-checked by the rank oracle."""
    require_dim(n)
    return _stabilizer_dim_cached(*canonical_pair(lam, xi), n)


def moduli_dim(n: int) -> int:
    """Dimension of the space of inner products of a fixed signature."""
    require_dim(n)
    return n * (n + 1) // 2


def acting_group_dim(n: int) -> int:
    """Dimension of the scaled automorphism group (the full block pattern)."""
    require_dim(n)
    return n * n - 3 * n + 7


def codimension(lam: int, xi, n: int) -> int:
    """Codimension of the orbit through the (lam, xi) representative."""
    stab = stabilizer_dim(lam, xi, n)
    return moduli_dim(n) - (acting_group_dim(n) - stab)


# -- degeneration curves --------------------------------------------------------


@dataclass(frozen=True)
class CurveFamily:
    """A one-parameter family of metrics linking two classes.

    Parameters strictly inside (lo, hi) stay in the source class; the limit
    parameter, one end of the interval, lands on the target representative.
    """

    name: str
    source: tuple[int, str]
    target: tuple[int, str]
    lo: float
    hi: float
    limit: float  # equals lo or hi
    params: Callable[[float], tuple[float, float]]  # t -> (lam, xi)


def _diagonal(t: float) -> tuple[float, float]:
    return (t, t)


def _hyperbola(s: float) -> tuple[float, float]:
    return (s, math.sqrt(max(s * s - 1.0, 0.0)))


CURVE_FAMILIES: dict[str, CurveFamily] = {
    "A": CurveFamily("A", (0, "0"), (1, "1"), 0.0, 1.0, 1.0, _diagonal),
    "B": CurveFamily("B", (1, "1"), (1, "0"), 0.0, 1.0, 0.0, lambda t: (1.0, t)),
    "C": CurveFamily("C", (2, "0"), (2, "sqrt3"), 0.0, SQRT3_F, SQRT3_F, lambda t: (2.0, t)),
    "D": CurveFamily("D", (2, "sqrt3"), (1, "0"), 1.0, 2.0, 1.0, _hyperbola),
    "E": CurveFamily("E", (2, "2"), (1, "1"), 1.0, 2.0, 1.0, _diagonal),
    "F": CurveFamily("F", (2, "2"), (2, "sqrt3"), SQRT3_F, 2.0, SQRT3_F, lambda t: (2.0, t)),
}


def _curve_points() -> list[tuple[CurveFamily, float, tuple[int, str]]]:
    """(family, t, expected class) for every point the graph classifies: per family,
    CURVE_SAMPLES interval midpoints and one sample NEAR_LIMIT_STEP from the limit,
    all in the source class, then the limit itself, in the target class."""
    points = []
    for fam in CURVE_FAMILIES.values():
        span = fam.hi - fam.lo
        near = fam.limit + (NEAR_LIMIT_STEP if fam.limit == fam.lo else -NEAR_LIMIT_STEP)
        ts = [fam.lo + span * (k + 0.5) / CURVE_SAMPLES for k in range(CURVE_SAMPLES)]
        points += [(fam, t, fam.source) for t in ts + [near]]
        points.append((fam, fam.limit, fam.target))
    return points


@dataclass(frozen=True)
class DegenerationGraph:
    """Directed closure relations among the six orbits, read-only.

    edges maps (source, target) to an evidence tag ("curve:X" or
    "transitive"); non_edges maps every other ordered pair to its
    obstruction ("dimension" or "signature-jump").
    """

    n: int
    nodes: tuple[tuple[int, str], ...]
    edges: Mapping[tuple, str]
    non_edges: Mapping[tuple, str]
    codimensions: Mapping[tuple, int]

    def outgoing(self, node: tuple[int, str]) -> list[tuple[int, str]]:
        return [dst for (src, dst) in self.edges if src == node]

    def direct_edges(self) -> set[tuple]:
        return {pair for pair, tag in self.edges.items() if tag.startswith("curve:")}

    def is_acyclic(self) -> bool:
        return all(
            self.codimensions[src] < self.codimensions[dst] for src, dst in self.edges
        )

    def to_json(self) -> dict:
        def fmt(pair):
            return {"lambda": pair[0], "xi": pair[1]}

        return {
            "n": self.n,
            "nodes": [fmt(p) for p in self.nodes],
            "edges": [
                {"from": fmt(s), "to": fmt(d), "evidence": tag}
                for (s, d), tag in sorted(self.edges.items())
            ],
            "non_edges": [
                {"from": fmt(s), "to": fmt(d), "obstruction": tag}
                for (s, d), tag in sorted(self.non_edges.items())
            ],
            "codimensions": {
                f"({lam},{xi})": c for (lam, xi), c in sorted(self.codimensions.items())
            },
        }

    def to_dot(self) -> str:
        lines = ["digraph degenerations {"]
        for lam, xi in self.nodes:
            lines.append(f'  "({lam},{xi})";')
        for (src, dst), tag in sorted(self.edges.items()):
            style = "solid" if tag.startswith("curve:") else "dashed"
            lines.append(
                f'  "({src[0]},{src[1]})" -> "({dst[0]},{dst[1]})"'
                f' [label="{tag}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def _signature_jump(src_sigs, dst_sigs) -> bool:
    """In a limit, positive and negative counts can only drop."""
    for (ps, ms, _), (pd, md, _) in zip(src_sigs, dst_sigs):
        if pd > ps or md > ms:
            return True
    return False


@lru_cache(maxsize=None, typed=True)  # typed: a float n must not read a numpy integer's entry
def degeneration_graph(n: int) -> DegenerationGraph:
    """Recompute the closure diagram from curves and obstructions, once per n.

    Every family's samples and limit are classified as one stack of grams and
    checked against their expected classes; only the verdicts are kept.
    """
    require_dim(n)
    nodes = CANONICAL_PAIRS
    codims = {pair: codimension(pair[0], pair[1], n) for pair in nodes}

    points = _curve_points()
    lam, xi = np.array([fam.params(t) for fam, t, _ in points]).T
    # every canonical gram has |det| = 1, so each sample is read at unit scale as given
    read = _classify_grams(canonical_gram(lam, xi, n, exact=False))
    for (fam, t, expected), (form, _) in zip(points, read):
        if form.pair != expected:
            where = "limit" if t == fam.limit else f"sample t={t}"
            raise EvidenceFailure(
                f"family {fam.name}: {where} classifies to {form.pair}, expected {expected}"
            )
    edges = {(fam.source, fam.target): f"curve:{name}" for name, fam in CURVE_FAMILIES.items()}

    # transitive closure of the curve edges: one Warshall pass, the middle node outermost
    for mid in nodes:
        for a in nodes:
            for d in nodes:
                if (a, mid) in edges and (mid, d) in edges and a != d:
                    edges.setdefault((a, d), "transitive")

    sigs = signature_table(n)
    non_edges: dict[tuple, str] = {}
    for src in nodes:
        for dst in nodes:
            if src == dst or (src, dst) in edges:
                continue
            if not codims[src] < codims[dst]:
                non_edges[(src, dst)] = "dimension"
            elif _signature_jump(sigs[src], sigs[dst]):
                non_edges[(src, dst)] = "signature-jump"
            else:
                raise EvidenceFailure(f"no obstruction found for non-edge {src} -> {dst}")

    graph = DegenerationGraph(
        n=n,
        nodes=nodes,
        edges=MappingProxyType(edges),
        non_edges=MappingProxyType(non_edges),
        codimensions=MappingProxyType(codims),
    )
    if not graph.is_acyclic():
        raise EvidenceFailure("degeneration edges do not strictly increase codimension")
    return graph


def is_closed(lam: int, xi, n: int) -> bool:
    """True when the orbit has no outgoing degeneration; cross-checked as flat."""
    lam, key = canonical_pair(lam, xi)
    closed = not degeneration_graph(n).outgoing((lam, key))
    flat = is_flat(closed_form_riemann(QSqrt3(lam), xi_exact(key), n))
    if closed != flat:
        raise EvidenceFailure(
            f"closed-orbit and flatness disagree at ({lam}, {key}): {closed} vs {flat}"
        )
    return closed


@dataclass(frozen=True)
class OrbitReport:
    """Orbit-level invariants of one canonical class."""

    lam: int
    xi_key: str
    n: int
    dim_u: int
    dim_w: int
    stab_dim: int
    codim: int
    sig_center: tuple[int, int, int]  # (plus, minus, zero)
    sig_derived: tuple[int, int, int]
    closed: bool

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "xi": xi_json(self.xi_key),
            "n": self.n,
            "dimU": self.dim_u,
            "dimW": self.dim_w,
            "stabilizer_dim": self.stab_dim,
            "codimension": self.codim,
            "signature_center": self.sig_center,
            "signature_derived": self.sig_derived,
            "closed": self.closed,
        }


def orbit_report(lam: int, xi, n: int) -> OrbitReport:
    lam, key = canonical_pair(lam, xi)
    dim_u, dim_w = dims_UW(lam, key, n)
    stab = stabilizer_dim(lam, key, n)
    codim = codimension(lam, key, n)
    sig_center, sig_derived = signature_table(n)[(lam, key)]
    return OrbitReport(
        lam=lam,
        xi_key=key,
        n=n,
        dim_u=dim_u,
        dim_w=dim_w,
        stab_dim=stab,
        codim=codim,
        sig_center=sig_center,
        sig_derived=sig_derived,
        closed=is_closed(lam, key, n),
    )
