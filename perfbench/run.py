"""Seeded benchmark of the heislor package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Workloads:

  orbit-sweep   well-conditioned orbit samples, n in 4..8, six classes
  near-wall     the same operation next to the classification walls
  exact-tables  one cold reproduction of the exact tables per fresh interpreter

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
including the tracing overhead.  Spans, a per-layer self-time summary and the
host context are written to .perfbench_out/.  The exit code is nonzero when
an independent correctness check fails.
"""

from __future__ import annotations

import os

# set before numpy loads, here and in every child: nproc is small and
# multi-threaded OpenBLAS would make n <= 10 timings depend on scheduling
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SWEEP_WORKLOADS = ("orbit-sweep", "near-wall")
WORKLOADS = SWEEP_WORKLOADS + ("exact-tables",)
#: workloads whose operations may fail today; elsewhere any failure is a wrong result
FAILURES_MEASURED = ("near-wall",)
SETUP_REPEATS = 15
#: exact-tables op_p99_ms is about its slowest entries, so each entry's time is
#: the median of at least three cold passes: with two, its run-to-run spread
#: reached 0.094 of the median
MIN_PASSES = 3
#: wall seconds of one cold exact-tables pass with its reference samples, as
#: measured on a 2-vCPU Xeon at 2.0 GHz
PASS_S = 20.0
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "metrics.factor_metric_us": "us",
    "reduction.reduce_last_row_us": "us",
    "reduction.reduce_lambda0_us": "us",
    "reduction.reduce_to_t_us": "us",
    "reduction.reduce_lambda1_us": "us",
    "reduction.reduce_lambda2_us": "us",
    "reduction.classify_by_invariants_us": "us",
    "reduction.classify_us": "us",
    "reduction.verify_witness_us": "us",
    "reduction.classify_self_us": "us",
    "reduction.ops_traced": "count",
    "reduction.first_chart_frac": "ratio",
    "reduction.retries_exhausted_frac": "ratio",
    "reduction.near_degenerate_frac": "ratio",
    "reduction.witness_factors": "count",
    "reduction.witness_residual_max": "1",
    "cli.classify_ms": "ms",
    **{f"orbits.codimension.n{n}_ms": "ms" for n in range(4, 11)},
    "liealg.derivation_space_dim_ms": "ms",
    "orbits.degeneration_graph_self_ms": "ms",
    "curvature.curvature_report_ms": "ms",
    "curvature.soliton_certificate_ms": "ms",
    "curvature.generic_curvature_ms": "ms",
    "curvature.ricci_spectrum_ms": "ms",
    "numerics.qsqrt3_add_ns": "ns",
    "numerics.qsqrt3_mul_ns": "ns",
    "numerics.qsqrt3_div_ns": "ns",
    "linalg.exact_rank_ms": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "machine.reference_us": "us",
}

# times `import heislor`, then samples the reference in the same process
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import heislor; dt = time.perf_counter() - t\n"
    "import refclock; print(dt, refclock.sample())"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def measure_setup() -> float:
    """Median seconds a fresh interpreter spends in `import heislor`, each
    import scaled by the reference sampled right after it in the same process."""
    import refclock

    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        seconds, ref = map(float, done.stdout.split())
        times.append(seconds * refclock.NOMINAL_S / ref)
    return statistics.median(times)


def exact_pass(seed: int, layers: bool) -> dict:
    """One cold exact-tables pass in a fresh interpreter (see tables.py)."""
    cmd = [sys.executable, os.path.join(HERE, "tables.py"), "--seed", str(seed)]
    if layers:
        cmd.append("--layers")
    done = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_context() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
    }


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    import numpy as np

    lat = np.asarray(latencies)
    return {
        "ops_per_s": len(lat) / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p99_ms": 1e3 * float(np.percentile(lat, 99)),
    }


def run_untraced(args) -> tuple[dict, int, int, bool, dict]:
    import check
    import sweep

    metrics = {"setup_s": measure_setup()}
    if args.workload in SWEEP_WORKLOADS:
        tally, per_input = sweep.run_rounds(args.workload, args.seed, args.seconds)
        metrics.update(latency_metrics(per_input))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = tally.attempted, tally.failed
        correct = tally.silent == 0 and (args.workload in FAILURES_MEASURED or failed == 0)
        detail = {"rounds": attempted // sweep.BLOCK, "silent_failures": tally.silent,
                  "failure_reasons": tally.reasons}
    else:
        # per entry, the median over cold passes of its time at nominal speed
        import refclock

        # a fixed number of passes, so the same seed gives the same counts
        target = max(MIN_PASSES, round(args.seconds / PASS_S))
        deadline = time.perf_counter() + sweep.OVERRUN * args.seconds
        per_entry: dict[str, list[float]] = {}
        rss, mismatches, passes = [], [], 0
        while passes < target and (passes < MIN_PASSES or time.perf_counter() < deadline):
            result = exact_pass(args.seed, layers=False)
            refs = result["refs"]
            for k, (key, seconds) in enumerate(result["times"]):
                ref = (refs[k] + refs[k + 1]) / 2
                per_entry.setdefault(key, []).append(seconds * refclock.NOMINAL_S / ref)
            rss.append(result["peak_rss_mb"])
            mismatches += check.table_mismatches(result["values"], layers=False)
            passes += 1
        entry_times = [statistics.median(v) for v in per_entry.values()]
        metrics.update(latency_metrics(entry_times))
        metrics["peak_rss_mb"] = max(rss)
        attempted, failed = passes * len(per_entry), len(mismatches)
        correct = failed == 0
        detail = {"passes": passes, "pass_s_at_nominal": sum(entry_times),
                  "mismatches": mismatches}
    return metrics, attempted, failed, correct, detail


def _mean_us(summary: dict, name: str) -> float:
    row = summary.get(name)
    return 1e6 * row["total_s"] / row["count"] if row else 0.0


def run_traced(args) -> tuple[dict, int, int, bool, dict]:
    """Per-layer metrics from a traced run, with the untraced baseline beside it.

    The reduction layers are traced on the workload's own stream for sweeps and
    on the orbit-sweep stream for exact-tables; the exact layers come from one
    cold pass with the extra layer probes, in every workload.
    """
    import check
    import gen
    import spans
    import sweep

    stream_name = args.workload if args.workload in SWEEP_WORKLOADS else "orbit-sweep"
    tracer = spans.Tracer()
    cases = gen.stream(stream_name, args.seed)
    ops = sweep.traced_ops_for(stream_name, args.seconds / 2)
    base, tally, counts = sweep.run_traced(cases, ops, args.seconds / 2, tracer)
    cli_ms, cli_problems = sweep.cli_probe(args.seed, os.path.join(OUT, "cli"))
    result = exact_pass(args.seed, layers=True)
    mismatches = check.table_mismatches(result["values"], layers=True)

    root = tracer.begin("exact.pass", -1)
    clock = tracer.spans[root][3]
    entry_ms: dict[str, float] = {}
    for key, seconds in result["times"]:
        family = key.split("/")[0]
        layer = {"codimension": "orbits", "derivation_space_dim": "liealg",
                 "degeneration_graph": "orbits"}.get(family, "curvature")
        tracer.add(f"{layer}.{family}", -1, clock, clock + seconds, root)
        clock += seconds
        entry_ms[key] = 1e3 * seconds
    tracer.spans[root][4] = clock

    def total_ms(prefix):
        return sum(v for k, v in entry_ms.items() if k.startswith(prefix))

    def class_mean_ms(family):
        return total_ms(f"{family}/{check.LAYER_CURVATURE_N}/") / len(gen.CLASSES)

    summary = tracer.summary()
    with_witness = max(1, counts["with_witness"])
    untraced_rate = base.attempted / sum(base.latencies)
    traced_rate = tally.attempted / sum(tally.latencies)
    metrics = {
        "metrics.factor_metric_us": _mean_us(summary, "metrics.factor_metric"),
        **{f"reduction.{s}_us": _mean_us(summary, f"reduction.{s}") for s in (
            "reduce_last_row", "reduce_lambda0", "reduce_to_t", "reduce_lambda1",
            "reduce_lambda2", "classify_by_invariants", "classify", "verify_witness")},
        "reduction.classify_self_us": 1e6 * counts["classify_self_s"],
        "reduction.ops_traced": tally.attempted,
        "reduction.first_chart_frac": counts["first_chart"] / with_witness,
        "reduction.retries_exhausted_frac": counts["retries_exhausted"] / with_witness,
        "reduction.near_degenerate_frac": counts["near_degenerate"] / with_witness,
        "reduction.witness_factors": counts["factors"] / with_witness,
        "reduction.witness_residual_max": max(base.residual_max, tally.residual_max),
        "cli.classify_ms": cli_ms,
        **{f"orbits.codimension.n{n}_ms": total_ms(f"codimension/{n}/") for n in range(4, 11)},
        "liealg.derivation_space_dim_ms": total_ms("derivation_space_dim/"),
        "orbits.degeneration_graph_self_ms": total_ms("degeneration_graph/"),
        "curvature.curvature_report_ms": class_mean_ms("curvature_report"),
        "curvature.generic_curvature_ms": class_mean_ms("generic_curvature"),
        "curvature.ricci_spectrum_ms": class_mean_ms("ricci_spectrum"),
        **result["probes"],
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ratio": traced_rate / untraced_rate,
        "machine.reference_us": 1e6 * counts["reference_s"],
    }
    silent = base.silent + tally.silent
    reduction_failed = base.failed + tally.failed
    if args.workload in SWEEP_WORKLOADS:
        attempted, failed = base.attempted + tally.attempted, reduction_failed
    else:
        attempted, failed = len(result["times"]), len(mismatches)
    correct = (
        silent == 0
        and (stream_name in FAILURES_MEASURED or reduction_failed == 0)
        and not mismatches
        and not cli_problems
    )
    detail = {
        "silent_failures": silent,
        "failure_reasons": dict(base.reasons + tally.reasons),
        "mismatches": mismatches,
        "cli_problems": cli_problems,
        "replay": {k: counts[k] for k in ("replayed", "replay_failed", "with_witness")},
        "self_time_summary": summary,
        "spans": tracer.spans,
    }
    return metrics, attempted, failed, correct, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the heislor package.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heislor", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.trace:
        metrics, attempted, failed, correct, detail = run_traced(args)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed, correct, detail = run_untraced(args)
        units = END_TO_END_UNITS
    host = host_context()
    record = {"args": vars(args), "host": host, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, **detail}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"host: {json.dumps(host)}")
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} attempted)")
    if detail.get("silent_failures"):
        print(f"silent failures (package verify said ok): {detail['silent_failures']}")
    reasons = detail.get("failure_reasons", {})
    for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  {count:6d}  {reason}")
    for problem in (detail.get("mismatches", []) + detail.get("cli_problems", []))[:12]:
        print(f"  wrong: {problem}")
    for name in units:
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
