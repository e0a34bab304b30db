"""The closed-loop classify + verify operation, its stage replay and the CLI probe.

One caller: the next operation starts when the previous one returns.  Each
operation is `classify(metric)` followed by `verify_witness(metric, witness)`,
as `heislor classify` and the randomized criteria do per metric.  The
benchmark's own witness check runs between operations, outside their timing.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import time

import numpy as np

import check
import gen
import refclock

from heislor import cli
from heislor.metrics import APPROX, Metric, factor_metric
from heislor.reduction import (
    FLAG_NEAR_DEGENERATE,
    FLAG_RETRIES_EXHAUSTED,
    classify,
    classify_by_invariants_flagged,
    reduce_lambda0,
    reduce_lambda1,
    reduce_lambda2,
    reduce_last_row,
    reduce_to_t,
    verify_witness,
)

#: p99 needs at least ten samples beyond it
MIN_OPS = 1000
#: inputs per round of an untraced sweep, a whole number of stratum cycles of
#: both sweeps (30 and 330 inputs), and the fewest rounds a run makes
BLOCK = 1320
MIN_ROUNDS = 3
#: wall seconds of one untraced operation with its reference run and check, as
#: measured on a 2-vCPU Xeon at 2.0 GHz; they size a run's fixed amount of work
OP_S = {"orbit-sweep": 0.0025, "near-wall": 0.0038}
#: a traced operation runs the op twice and replays its stages
TRACED_OP_FACTOR = 3
#: past this many times the requested seconds a run stops adding work, so that
#: a much slower program still exits in time; only then do the counts change
OVERRUN = 5


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds of an untraced sweep: about `seconds` of work at the measured speed."""
    return max(MIN_ROUNDS, round(seconds / (BLOCK * OP_S[workload])))


def traced_ops_for(workload: str, seconds: float) -> int:
    """Operations of a traced sweep: about `seconds` of work at the measured speed."""
    return max(MIN_OPS, round(seconds / (TRACED_OP_FACTOR * OP_S[workload])))


class Tally:
    """Outcomes and timings of the operations of one phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        #: failures the package itself did not flag: its own verify_witness said ok
        self.silent = 0
        self.reasons: collections.Counter = collections.Counter()
        self.residual_max = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, case, seconds, pair, witness, error, package_ok) -> None:
        self.latencies.append(seconds)
        parts = None
        if witness is not None:
            parts = (witness.left, witness.right, witness.start, witness.m_factor, witness.target)
        ok, residual, reason = check.judge(case, pair, parts, error)
        if residual is not None and np.isfinite(residual):
            self.residual_max = max(self.residual_max, residual)
        if not ok:
            self.failed += 1
            self.silent += bool(package_ok)
            key = f"{case.label}: {reason.split(' by ')[0]}"
            self.reasons[key] += 1


def one_op(metric):
    """The timed operation; returns (pair, witness, error, package_ok)."""
    try:
        form, _k, witness = classify(metric)
        package_ok = verify_witness(metric, witness).ok
    except Exception as exc:  # noqa: BLE001 - every exception is an outcome to count
        return None, None, exc, False
    return form.pair, witness, None, package_ok


def run_rounds(workload: str, seed: int, seconds: float) -> tuple[Tally, list[float]]:
    """Run a fixed block of inputs for `rounds_for(workload, seconds)` rounds.

    The work is fixed by the arguments, not by the clock, so the same seed
    gives the same operations and the same failures on every run.  Every
    round sign-flips each input afresh (seeded), and every operation is
    preceded by one run of the reference computation.  Returns the tally of every
    execution and, per input, the median over rounds of its latency in
    seconds at the reference's nominal speed (see refclock.py).
    """
    cases = list(itertools.islice(gen.stream(workload, seed), BLOCK))
    flips = np.random.default_rng([seed, 1])
    tally = Tally()
    refs: list[float] = []
    inputs: list[int] = []
    clock = time.perf_counter
    deadline = clock() + OVERRUN * seconds
    rounds = 0
    while rounds < rounds_for(workload, seconds) and (rounds < MIN_ROUNDS or clock() < deadline):
        for i, case in enumerate(cases):
            case = gen.sign_flip(case, flips)
            metric = Metric(gram=case.gram, backend=APPROX)
            refs.append(refclock.reference())
            t0 = clock()
            result = one_op(metric)
            tally.record(case, clock() - t0, *result)
            inputs.append(i)
        rounds += 1
    scaled = np.asarray(tally.latencies) * refclock.NOMINAL_S / refclock.local_means(refs)
    per_input = [[] for _ in cases]
    for i, seconds_at_nominal in zip(inputs, scaled):
        per_input[i].append(seconds_at_nominal)
    return tally, [float(np.median(times)) for times in per_input]


def replay(tracer, op: int, metric, witness, counts: dict) -> float:
    """Re-run the first chart stage by stage through the public entry points.

    Returns the replayed stage time in seconds; raises what a stage raises.
    """
    root = tracer.begin("replay", op)
    stages = 0.0

    def stage(name, fn, *args):
        nonlocal stages
        idx = tracer.begin(name, op, root)
        try:
            return fn(*args)
        finally:
            stages += tracer.end(idx)

    try:
        m = stage("metrics.factor_metric", factor_metric, metric)
        g, lam, _ = stage("reduction.reduce_last_row", reduce_last_row, np.linalg.inv(m).T)
        if lam == 0:
            stage("reduction.reduce_lambda0", reduce_lambda0, g)
        else:
            t, _ = stage("reduction.reduce_to_t", reduce_to_t, g, lam)
            if lam == 1:
                stage("reduction.reduce_lambda1", reduce_lambda1, t, metric.n)
            else:
                stage("reduction.reduce_lambda2", reduce_lambda2, t, metric.n)
        stage("reduction.classify_by_invariants", classify_by_invariants_flagged, metric)
    finally:
        tracer.end(root)
    if witness is not None:
        counts["with_witness"] += 1
        counts["first_chart"] += bool(np.array_equal(witness.m_factor, m))
        counts["retries_exhausted"] += FLAG_RETRIES_EXHAUSTED in witness.flags
        counts["near_degenerate"] += FLAG_NEAR_DEGENERATE in witness.flags
        counts["factors"] += len(witness.left) + len(witness.right)
    return stages


def run_traced(cases, ops: int, seconds: float, tracer) -> tuple[Tally, Tally, dict]:
    """`ops` inputs each run once untraced and once traced, in alternating order.

    The paired runs give the tracing overhead on identical inputs whatever the
    machine's drift.  Each traced operation is followed by its stage replay,
    outside the op span.  Returns the untraced tally, the traced tally and
    the replay counts, with the median reference time (see refclock.py).
    """
    base, tally = Tally(), Tally()
    counts = dict.fromkeys(
        ("with_witness", "first_chart", "retries_exhausted", "near_degenerate", "factors",
         "replayed", "replay_failed"), 0)
    self_times, refs = [], []
    clock = time.perf_counter
    deadline = clock() + OVERRUN * seconds
    while tally.attempted < ops and (tally.attempted < MIN_OPS or clock() < deadline):
        refs.append(refclock.reference())
        case = next(cases)
        metric = Metric(gram=case.gram, backend=APPROX)
        op = tally.attempted
        for traced in ((False, True) if op % 2 == 0 else (True, False)):
            if not traced:
                t0 = clock()
                result = one_op(metric)
                base.record(case, clock() - t0, *result)
                continue
            root = tracer.begin("op", op)
            span = tracer.begin("reduction.classify", op, root)
            try:
                form, _k, witness = classify(metric)
            except Exception as exc:  # noqa: BLE001 - every exception is an outcome to count
                classify_s = tracer.end(span)
                result = (None, None, exc, False)
            else:
                classify_s = tracer.end(span)
                span = tracer.begin("reduction.verify_witness", op, root)
                package_ok = verify_witness(metric, witness).ok
                tracer.end(span)
                result = (form.pair, witness, None, package_ok)
            tally.record(case, tracer.end(root), *result)
        try:
            stages = replay(tracer, op, metric, result[1], counts)
        except Exception:  # noqa: BLE001 - a stage failing off the first chart is counted
            counts["replay_failed"] += 1
        else:
            counts["replayed"] += 1
            self_times.append(classify_s - stages)
    counts["classify_self_s"] = float(np.mean(self_times)) if self_times else 0.0
    counts["reference_s"] = float(np.median(refs))
    return base, tally, counts


def cli_probe(seed: int, workdir: str, samples: int = 40) -> tuple[float, list[str]]:
    """Mean ms of in-process `heislor classify` on orbit samples written as JSON.

    Returns the mean and the problems found in the CLI's output.
    """
    os.makedirs(workdir, exist_ok=True)
    cases = gen.stream("orbit-sweep", seed + 1)
    problems = []
    total = 0.0
    for i in range(samples):
        case = next(cases)
        path = os.path.join(workdir, f"metric{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": case.n, "backend": "approx", "gram": case.gram.tolist()}, fh)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", "--input", path, "--format", "json"])
        total += time.perf_counter() - t0
        payload = json.loads(out.getvalue())
        pair = (payload["lambda"], str(payload["xi"]))
        w = payload["witness"]
        found, _ = check.witness_problems(
            case.gram, pair, w["left"], w["right"], np.array(w["start"]),
            None if w["m"] is None else np.array(w["m"]), w["target"])
        if code != 0 or pair != case.truth or found:
            problems.append(f"cli sample {i}: exit {code}, class {pair}, {found}")
    return 1e3 * total / samples, problems
