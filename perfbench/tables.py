"""One cold reproduction of the paper's exact tables, in a fresh interpreter.

    python3 perfbench/tables.py --seed N [--layers]

Run as a child of run.py so that the lru_caches in `heislor.orbits` start
empty, as they do for every CLI call.  Prints one JSON object: the time of
every table entry (timing starts after import) with the reference time
around it (see refclock.py), the computed values for the parent to check,
the peak RSS, and with --layers the exact-layer probes
(soliton certificate, QSqrt3 kernels, exact rank) that the pass itself does
not isolate.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction

import numpy as np

import refclock
from check import CODIM_NS, CURVATURE_NS, GRAPH_NS, LAYER_CURVATURE_N
from gen import CLASSES

import heislor as hl
from heislor import _linalg
from heislor.numerics import QSqrt3

#: n of the stabilizer system whose shape the exact-rank operand copies
RANK_N = 10


def _rational(x: QSqrt3) -> str:
    if x.b != 0:
        return f"{x.a}+{x.b}*sqrt3"
    return str(x.a)


def _spectrum(values) -> list[str]:
    return [_rational(x) for x in sorted(values, key=float, reverse=True)]


def _pair_key(pair) -> str:
    return f"{pair[0]},{pair[1]}"


def run_pass() -> tuple[list[tuple[str, float]], list[float], dict]:
    """Every table entry as (key, seconds), the reference time before each
    entry and after the last, and the values to check."""
    times: list[tuple[str, float]] = []
    refs: list[float] = []
    values: dict = {}
    clock = time.perf_counter

    def entry(key, fn, *args, **kwargs):
        refs.append(refclock.sample())
        t0 = clock()
        out = fn(*args, **kwargs)
        times.append((key, clock() - t0))
        return out

    for n in CODIM_NS:
        for pair in CLASSES:
            key = f"codimension/{n}/{_pair_key(pair)}"
            values[key] = entry(key, hl.codimension, pair[0], pair[1], n)
    for n in CODIM_NS:
        key = f"derivation_space_dim/{n}"
        values[key] = entry(key, hl.derivation_space_dim, n)
    reports = {}
    for n in CURVATURE_NS:
        for pair in CLASSES:
            key = f"curvature_report/{n}/{_pair_key(pair)}"
            report = entry(key, hl.curvature_report, pair[0], pair[1], n, backend=hl.EXACT)
            reports[(n, pair)] = report
            values[key] = {
                "flat": bool(report.flat),
                "soliton": report.soliton is not None,
                "spectrum": _spectrum(report.spectrum),
            }
    for n in CURVATURE_NS:
        for pair in CLASSES:
            key = f"generic_curvature/{n}/{_pair_key(pair)}"
            lam, xi = QSqrt3(pair[0]), hl.metrics.xi_exact(pair[1])
            ric = entry(key, hl.generic_curvature, lam, xi, n, exact=True)[-1]
            closed = reports[(n, pair)].ric
            values[key] = {"ricci_equals_closed_form": all(
                a == b for a, b in zip(ric.reshape(-1).tolist(), closed.reshape(-1).tolist())
            )}
    for n in CURVATURE_NS:
        for pair in CLASSES:
            key = f"ricci_spectrum/{n}/{_pair_key(pair)}"
            xi = hl.metrics.xi_exact(pair[1])
            values[key] = _spectrum(entry(key, hl.ricci_spectrum, pair[0], xi, n, exact=True))
    for n in GRAPH_NS:
        key = f"degeneration_graph/{n}"
        graph = entry(key, hl.degeneration_graph, n)
        values[key] = {
            "direct_edges": sorted(
                f"{_pair_key(a)}>{_pair_key(b)}" for a, b in graph.direct_edges()),
            "closed_orbits": [_pair_key(p) for p in graph.nodes if not graph.outgoing(p)],
        }
    refs.append(refclock.sample())
    return times, refs, values


def _random_qsqrt3(rng: np.random.Generator) -> QSqrt3:
    def frac():
        return Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))

    return QSqrt3(frac(), frac())


def kernel_ns(rng: np.random.Generator, count: int = 3000) -> dict[str, float]:
    """Mean ns per QSqrt3 add, mul and div on seeded non-trivial fractions."""
    xs = [_random_qsqrt3(rng) for _ in range(count)]
    ys = [_random_qsqrt3(rng) for _ in range(count)]
    out = {}
    ops = (("add", QSqrt3.__add__), ("mul", QSqrt3.__mul__), ("div", QSqrt3.__truediv__))
    for name, op in ops:
        t0 = time.perf_counter_ns()
        for x, y in zip(xs, ys):
            op(x, y)
        out[f"numerics.qsqrt3_{name}_ns"] = (time.perf_counter_ns() - t0) / count
    return out


def stabilizer_like_system(rng: np.random.Generator, n: int = RANK_N):
    """The stabilizer rank-oracle system of a seeded shear (lam, xi) in Q(sqrt3).

    Same construction and shape as the package's oracle at the canonical
    pairs, but with random small shear parameters, so the rank is generic.
    """
    def small():
        return QSqrt3(Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))),
                      Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 5))))

    lam, xi = small(), small()
    g = _linalg.exact_eye(n)
    g[0, n - 2], g[0, n - 1] = xi, lam
    ginv = _linalg.exact_eye(n)
    ginv[0, n - 2], ginv[0, n - 1] = -xi, -lam
    eps = [1] * (n - 1) + [-1]
    mask = hl.aut_pattern(n).mask
    positions = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
    upper = [(r, s) for r in range(n) for s in range(r, n)]
    system = _linalg.exact_zeros((len(upper), len(positions)))
    for col, (i, j) in enumerate(positions):
        u, v = ginv[:, i], g[j, :]
        for row, (r, s) in enumerate(upper):
            system[row, col] = eps[s] * u[s] * v[r] + eps[r] * u[r] * v[s]
    return system


def layer_probes(seed: int) -> tuple[dict[str, float], dict]:
    """Exact-layer timings the pass does not isolate, and values to check."""
    rng = np.random.default_rng([seed, 17])
    n = LAYER_CURVATURE_N
    probes: dict[str, float] = {}
    values: dict = {}
    total = 0.0
    for pair in CLASSES:
        lam, xi = QSqrt3(pair[0]), hl.metrics.xi_exact(pair[1])
        ric = hl.closed_form_ricci(lam, xi, n, exact=True)
        t0 = time.perf_counter()
        cert = hl.soliton_certificate(lam, xi, n, ric, exact=True)
        total += time.perf_counter() - t0
        values[f"soliton_certificate/{n}/{_pair_key(pair)}"] = cert is not None
    probes["curvature.soliton_certificate_ms"] = 1e3 * total / len(CLASSES)
    probes.update(kernel_ns(rng))
    system = stabilizer_like_system(rng)
    t0 = time.perf_counter()
    rank = _linalg.exact_rank(system)
    probes["linalg.exact_rank_ms"] = 1e3 * (time.perf_counter() - t0)
    float_rank = int(np.linalg.matrix_rank(_linalg.to_float(system)))
    values["exact_rank_float_agrees"] = rank == float_rank
    return probes, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    times, refs, values = run_pass()
    out = {"times": times, "refs": refs, "values": values}
    if args.layers:
        out["probes"], probe_values = layer_probes(args.seed)
        out["values"].update(probe_values)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
