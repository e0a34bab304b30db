"""Identity digest of the package's outputs: one sha256 per group.

    PYTHONPATH=src python3 tools/digest.py

Run from the root of a source checkout.  Two checkouts whose outputs are bit for
bit the same print the same six lines:

- classify:   classify + verify_witness on the first 1320 inputs of the
  orbit-sweep and near-wall streams of perfbench/gen.py, seeds 1-3: the class,
  n, the bits of k, the flags, every factor, start, target and m (shape and
  bytes), verify_witness's ok, residual bits and detail, and the type and
  message of every exception;
- invariants: classify_by_invariants, classify_by_invariants_flagged and
  restricted_signatures on the same inputs;
- cli:        282 in-process CLI runs (curvature at n = 4..10 for the six
  classes in three formats and both backends, orbits at n = 4..10 in four
  formats, and two refused inputs): exit code, stdout and stderr;
- tables:     the values of perfbench/tables.py's run_pass();
- structured: the classify group's fields over 3996 structured inputs, which
  reach the chart redraws on a vanishing corner and on a large t that the
  benchmark streams never reach: the 72 grams diag(1, ..., -1, ..., 1) at n = 4..12, the 84
  canonical metrics at n = 4..10 on both backends, and each float canonical
  metric at n = 4..8 pushed forward by I + c E_ij for every i != j and
  c in (1, -1, 2, 100);
- stages:     reduce_lambda1 and reduce_lambda2 at n = 4..8 from the exact
  t-form, on 60 geometric t from 1.1e-6 to 1e-3 and on 14 t from 2^-17 to 1e4,
  which reach light-cone chains of up to 19 boosts: the key, every factor,
  start and target, or the exception.

The bits depend on the numpy and BLAS build, so compare digests made with the
same build.  perfbench/ is imported, never written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import sys
from itertools import islice, permutations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import tables  # noqa: E402

from heislor import cli  # noqa: E402
from heislor.metrics import (  # noqa: E402
    APPROX,
    CANONICAL_PAIRS,
    EXACT,
    Metric,
    act,
    canonical_metric,
)
from heislor.reduction import (  # noqa: E402
    classify,
    classify_by_invariants,
    classify_by_invariants_flagged,
    reduce_lambda1,
    reduce_lambda2,
    restricted_signatures,
    verify_witness,
)

WORKLOADS = ("orbit-sweep", "near-wall")
SEEDS = (1, 2, 3)
#: inputs per workload and seed: four cycles of near-wall's 330 strata
INPUTS = 1320
#: the entries c of the structured inputs' pushes I + c E_ij
SHEARS = (1.0, -1.0, 2.0, 100.0)
#: the stages group's t: near the lam=1 wall, then long halving and doubling runs,
#: one step and none
STAGE_TS = (
    *np.geomspace(1.1e-6, 1e-3, 60).tolist(),
    1e-5, 3e-4, 0.01, 0.3, 0.5, 2.0, 2.5, 37.0, 199.0,
    3.14159, 7.7, 1234.5678, 1e4, 2.0**-17,
)


class Digest:
    """A sha256 fed length-prefixed tokens, so no two token sequences collide."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def feed(self, *items) -> None:
        for x in items:
            if isinstance(x, np.ndarray):
                data = repr((x.shape, x.dtype.str)).encode() + np.ascontiguousarray(x).tobytes()
            elif isinstance(x, float):
                data = struct.pack("<d", x)
            elif isinstance(x, BaseException):
                data = f"{type(x).__name__}: {x}".encode()
            else:
                data = repr(x).encode()
            self.hash.update(len(data).to_bytes(8, "little") + data)

    def feed_call(self, fn, *args):
        """Feed fn(*args)'s exception and return None, or return its result."""
        try:
            return fn(*args)
        except Exception as exc:  # every exception is part of the output
            self.feed("raised", exc)
            return None


def _metrics():
    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in islice(gen.stream(workload, seed), INPUTS):
                yield Metric(gram=case.gram, backend=APPROX)


def _structured_metrics():
    for n in range(4, 13):
        for pos in range(n):
            diagonal = np.ones(n)
            diagonal[pos] = -1.0
            yield Metric(gram=np.diag(diagonal), backend=APPROX)
    for n in range(4, 11):
        for lam, key in CANONICAL_PAIRS:
            for backend in (EXACT, APPROX):
                yield canonical_metric(lam, key, n, backend)[0]
    for n in range(4, 9):
        for lam, key in CANONICAL_PAIRS:
            base, _ = canonical_metric(lam, key, n, APPROX)
            for c in SHEARS:
                for at in permutations(range(n), 2):
                    push = np.eye(n)
                    push[at] = c
                    yield act(push, base)


def _feed_classification(d: Digest, metric: Metric) -> None:
    result = d.feed_call(classify, metric)
    if result is None:
        return
    form, k, witness = result
    d.feed(form.pair, form.n, float(k), witness.flags, len(witness.left), len(witness.right))
    d.feed(*witness.left, *witness.right, witness.start, witness.target, witness.m_factor)
    check = d.feed_call(verify_witness, metric, witness)
    if check is not None:
        d.feed(check.ok, float(check.residual), check.detail)


def _feed_stage(d: Digest, stage, t: float, n: int) -> None:
    result = d.feed_call(stage, t, n)
    if result is not None:
        key, witness = result
        d.feed(key, len(witness.left), len(witness.right))
        d.feed(*witness.left, *witness.right, witness.start, witness.target)


def _feed_invariants(d: Digest, metric: Metric) -> None:
    form = d.feed_call(classify_by_invariants, metric)
    if form is not None:
        d.feed(form.pair, form.n)
    flagged = d.feed_call(classify_by_invariants_flagged, metric)
    if flagged is not None:
        d.feed(flagged[0].pair, flagged[0].n, flagged[1])
    signatures = d.feed_call(restricted_signatures, metric)
    if signatures is not None:
        d.feed(signatures)


def _cli_runs() -> list[list[str]]:
    runs = []
    for n in range(4, 11):
        for lam, key in CANONICAL_PAIRS:
            for fmt in ("json", "csv", "text"):
                for backend in ("exact", "approx"):
                    runs.append([
                        "curvature", "--lambda", str(lam), "--xi", key, "--n", str(n),
                        "--backend", backend, "--format", fmt,
                    ])
    for n in range(4, 11):
        for fmt in ("json", "csv", "text", "dot"):
            runs.append(["orbits", "--n", str(n), "--format", fmt])
    runs.append(["orbits", "--n", "3"])
    runs.append(["curvature", "--lambda", "3", "--xi", "1", "--n", "5"])
    return runs


def _feed_cli(d: Digest, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    d.feed(code, out.getvalue(), err.getvalue())


def digests() -> dict[str, str]:
    names = ("classify", "invariants", "cli", "tables", "structured", "stages")
    groups = {name: Digest() for name in names}
    for metric in _metrics():
        _feed_classification(groups["classify"], metric)
        _feed_invariants(groups["invariants"], metric)
    for argv in _cli_runs():
        _feed_cli(groups["cli"], argv)
    _, _, values = tables.run_pass()
    groups["tables"].feed(json.dumps(values, sort_keys=True))
    for metric in _structured_metrics():
        _feed_classification(groups["structured"], metric)
    for n in range(4, 9):
        for t in STAGE_TS:
            for stage in (reduce_lambda1, reduce_lambda2):
                _feed_stage(groups["stages"], stage, t, n)
    return {name: d.hash.hexdigest() for name, d in groups.items()}


def main() -> None:
    for name, value in digests().items():
        print(f"{name:<10} {value}")


if __name__ == "__main__":
    main()
