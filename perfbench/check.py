"""The benchmark's own correctness checks, independent of the package.

A witness is re-multiplied here in plain numpy: the package's
`verify_witness` is timed as part of an operation but never trusted, so a
change that weakens it cannot make an operation pass.  Exact tables are
compared with the hand-written values in expected_tables.json.
"""

from __future__ import annotations

import json
import os

import numpy as np

from gen import XI_VALUE, aut_mask

WITNESS_TOL = 1e-8
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_tables.json")


def _minkowski(n: int) -> np.ndarray:
    j = np.eye(n)
    j[n - 1, n - 1] = -1.0
    return j


def representative(pair, n: int) -> np.ndarray:
    """The reduction target I + xi E_(n-1,1) - lam E_(n,1) of a class."""
    u = np.eye(n)
    u[n - 2, 0] = XI_VALUE[pair[1]]
    u[n - 1, 0] = -float(pair[0])
    return u


def witness_problems(
    gram: np.ndarray, pair, left, right, start, m, target
) -> tuple[list[str], float]:
    """Everything wrong with a witness for `gram` landing on class `pair`.

    Returns the list of problems (empty when sound) and the chain residual.
    """
    n = gram.shape[0]
    j = _minkowski(n)
    problems = []
    if m is None:
        return ["no m-factor"], float("inf")
    minv = np.linalg.inv(m)
    scale = max(1.0, float(np.max(np.abs(gram))))
    if float(np.max(np.abs(minv.T @ j @ minv - gram))) > WITNESS_TOL * scale:
        problems.append("m-factor does not reproduce the input")
    start_scale = max(1.0, float(np.max(np.abs(start))))
    if float(np.max(np.abs(minv.T - start))) > WITNESS_TOL * start_scale:
        problems.append("start is not the transpose-inverse of m")
    rep = representative(pair, n)
    if not np.array_equal(np.asarray(target, dtype=float), rep):
        problems.append("target is not the representative of the reported class")
    outside = ~aut_mask(n).T
    product = np.asarray(start, dtype=float)
    for h in reversed(left):
        h = np.asarray(h, dtype=float)
        if float(np.max(np.abs(h[outside]))) > WITNESS_TOL:
            problems.append("left factor outside the transposed pattern")
        product = h @ product
    for k in right:
        k = np.asarray(k, dtype=float)
        dev = float(np.max(np.abs(k.T @ j @ k - j)))
        if dev > WITNESS_TOL * max(1.0, float(np.max(np.abs(k)))) ** 2:
            problems.append("right factor not pseudo-orthogonal")
        product = product @ k
    residual = float(np.max(np.abs(product - rep)))
    if not residual <= WITNESS_TOL:
        problems.append(f"chain misses the representative by {residual:.2e}")
    return problems, residual


def judge(case, pair, witness_parts, error) -> tuple[bool, float | None, str]:
    """(success, chain residual, reason) of one classify + verify operation.

    Success: the true class with a sound witness; inside the ambiguity band
    also a neighbouring class with a sound witness, or a ValueError.
    """
    if error is not None:
        if isinstance(error, ValueError) and len(case.allowed) > 1:
            return True, None, "typed error inside the band"
        return False, None, f"{type(error).__name__}"
    problems, residual = witness_problems(case.gram, pair, *witness_parts)
    if pair not in case.allowed:
        return False, residual, f"class {pair}, expected {case.truth}"
    if problems:
        return False, residual, "; ".join(problems)
    return True, residual, "ok"


#: the extents of one exact-tables pass
CODIM_NS = tuple(range(4, 11))
CURVATURE_NS = (4, 6)
GRAPH_NS = (4, 5, 6)
#: n of the per-layer curvature probes
LAYER_CURVATURE_N = 6


def expected_table_values(layers: bool) -> dict:
    """The hand-written tables, keyed like the values tables.py computes."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        exp = json.load(fh)
    classes = exp["classes"]
    out: dict = {}
    for n in CODIM_NS:
        for cls, codim in zip(classes, exp["codimension"][str(n)]):
            out[f"codimension/{n}/{cls}"] = codim
    for n in CODIM_NS:
        out[f"derivation_space_dim/{n}"] = exp["derivation_space_dim"][str(n)]
    for n in CURVATURE_NS:
        for cls in classes:
            out[f"curvature_report/{n}/{cls}"] = {
                "flat": cls in exp["flat"],
                "soliton": True,
                "spectrum": exp["ricci_spectrum"][cls],
            }
    for n in CURVATURE_NS:
        for cls in classes:
            out[f"generic_curvature/{n}/{cls}"] = {"ricci_equals_closed_form": True}
    for n in CURVATURE_NS:
        for cls in classes:
            out[f"ricci_spectrum/{n}/{cls}"] = exp["ricci_spectrum"][cls]
    for n in GRAPH_NS:
        out[f"degeneration_graph/{n}"] = {
            "direct_edges": exp["direct_edges"],
            "closed_orbits": exp["closed_orbits"],
        }
    if layers:
        for cls in classes:
            out[f"soliton_certificate/{LAYER_CURVATURE_N}/{cls}"] = True
        out["exact_rank_float_agrees"] = True
    return out


def table_mismatches(got: dict, layers: bool) -> list[str]:
    """Every table entry that is missing, unexpected or different."""
    want = expected_table_values(layers)
    bad = [f"{key}: unexpected entry" for key in got if key not in want]
    for key, value in want.items():
        if key not in got:
            bad.append(f"{key}: missing")
        elif got[key] != value:
            bad.append(f"{key}: got {got[key]!r}, expected {value!r}")
    return bad
