"""Paired benchmark of two commits: BENCH_<workload>.json at the repo root.

    python3 tools/bench.py --commits PARENT CHANGE --pairs 10 --seed 1

Run from a git checkout.  Each commit is unpacked with `git archive | tar -x`
into a temporary directory, so both sides run their own perfbench/ and src/ and
the working tree is never read.  For every pair and every workload named in
BENCHMARK.json, `perfbench/run.py --workload W --seed S --seconds T` runs once on
each commit, the parent first in even pairs and the change first in odd ones.  T is
BENCHMARK.json's `run_seconds`, so every recorded run is as long as the benchmark's.
Every child runs with PYTHONDONTWRITEBYTECODE=1, so each import compiles the
package, as in a checkout that has never been run.

In every pair each commit also runs two timed checks once, in the same order as
the workloads: `heislor verify` at its defaults, whose wall seconds are `verify_s`,
and criterion 1's loop, `verification.run_randomized_classification()` at its
defaults (30,000 classifications with witness checks, the loop tier-1 gates at
60 s), whose wall seconds are `crit1_s`.  Each is timed around its child process,
so it includes the interpreter start and the package import, well under a second.
Both are north-star end-to-end timings outside the benchmark: reported, never claimed.

Each BENCH_<workload>.json holds one entry per commit and settings: the median
and quartiles of every end-to-end metric, those of `verify_s` and `crit1_s` with
their runs, exit codes and whether every run passed (the change's with the pairs
it won), `failed` and the per-label failure
reasons of the run record in .perfbench_out/, the host line, the six lines of
that tree's tools/digest.py, `src_lines`, the line count of its
src/heislor/*.py, and one tier-1 run of its tests before the pairs: `tier1_s`,
its wall seconds, and `tier1_passed` and `tier1_failed`, the counts of pytest's
closing line (errors count as failed).  The change's entry also holds its
comparison with the parent by the pairing rule: a gain is claimed only when the
change wins at least nine tenths of the pairs, ties counting for neither, and
the medians differ by more than the parent's interquartile range.

    python3 tools/bench.py --commits PARENT CHANGE --failure-seeds 1-10

With --failure-seeds there are no timing pairs: each commit runs the near-wall
workload once per seed of the range, and its entry in BENCH_near-wall.json holds,
per seed, the attempted and failed counts, the failures per input label and the
per-label reasons.  The change's entry also lists each seed and label that fails
more often than in the parent, `more_failures`, the gate of the correctness items.

An entry is keyed by what it measured, the trees `src/` and `perfbench/` and the
pairs, seed and run length, not by the commit sha.  A run with other settings is
added beside the old entries; a run of the same trees and settings replaces the
old entry, so a change measured from its staged tree before it was committed and
measured again at the commit that lands it keeps one entry, under the landed sha.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: share of the pairs the change must win before a gain is claimed
WIN_SHARE = 0.9
CHILD_TIMEOUT_S = 1800
#: the workload whose per-label failures --failure-seeds records
FAILURE_WORKLOAD = "near-wall"
#: the tier-1 command, run in the unpacked tree; it writes no .pytest_cache there
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
#: `heislor verify` at its defaults, run in the unpacked tree with its own src/
VERIFY = ("-c", "import sys; from heislor.cli import main; sys.exit(main(['verify']))")
#: criterion 1's loop at its defaults; exit 0 when its class and witness checks both pass
CRIT1 = ("-c", "import sys; from heislor.verification import run_randomized_classification;"
         " sys.exit(0 if all(check.passed for check in run_randomized_classification()) else 1)")
#: the timed checks each pair runs once per tree, by the name their seconds are recorded under
CHECKS = {"verify_s": VERIFY, "crit1_s": CRIT1}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; the inclusive method keeps them inside the sample."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pairs_won(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better than the parent; a tie counts for neither."""
    if len(parent) != len(change) or not parent:
        raise ValueError("one parent run and one change run per pair")
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The change against the parent on one metric, runs matched by pair.

    `wins` counts the pairs the change reads better in; `gain` holds when it won
    at least WIN_SHARE of them and its median is better by more than the parent's
    interquartile range; `within_bound` when its median is not worse than the
    parent's by more than the relative bound.
    """
    wins = pairs_won(parent, change, better)
    sign = 1.0 if better == "lower" else -1.0
    base, new = quartiles(parent), quartiles(change)
    gap = sign * (base["median"] - new["median"])
    iqr = base["q3"] - base["q1"]
    return {
        "pairs": len(parent),
        "wins": wins,
        "median_gap": gap,
        "relative_gap": gap / base["median"] if base["median"] else 0.0,
        "parent_iqr": iqr,
        "gain": wins >= WIN_SHARE * len(parent) and gap > iqr,
        "within_bound": -gap <= bound * abs(base["median"]),
    }


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def unpack(sha: str, into: Path) -> None:
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")


def _child_env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def digest_lines(tree: Path) -> list[str]:
    """That tree's tools/digest.py output, or an empty list where it has none."""
    if not (tree / "tools" / "digest.py").is_file():
        return []
    done = subprocess.run(
        [sys.executable, "tools/digest.py"], cwd=tree, env=_child_env(tree),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.splitlines()


def src_lines(tree: Path) -> int:
    """Lines of that tree's src/heislor/*.py, as `cat src/heislor/*.py | wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "heislor").glob("*.py"))


def tier1_counts(output: str) -> dict[str, int]:
    """Passed and failed tests from pytest's closing line; errors count as failed."""
    lines = output.strip().splitlines()
    counts = {"passed": 0, "failed": 0}
    for number, word in re.findall(r"(\d+) (\w+)", lines[-1] if lines else ""):
        key = "failed" if word in ("error", "errors") else word
        if key in counts:
            counts[key] += int(number)
    return {"tier1_passed": counts["passed"], "tier1_failed": counts["failed"]}


def tree_facts(tree: Path) -> dict:
    """What an entry records of its tree alone: digests, source lines and one tier-1 run."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=_child_env(tree),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    return {
        "digest": digest_lines(tree),
        "src_lines": src_lines(tree),
        "tier1_s": seconds,
        **tier1_counts(done.stdout),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its printed metrics and the record it leaves behind."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, env=_child_env(tree), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if not done.stdout.strip():
        raise RuntimeError(f"{workload} on {tree.name} printed nothing: {done.stderr[-2000:]}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {
        "exit": done.returncode,
        "metrics": {name: row["value"] for name, row in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "failure_reasons": record.get("failure_reasons", {}),
        "mismatches": record.get("mismatches", []),
        "host": record["host"],
    }


def verify_once(tree: Path, command: tuple[str, ...]) -> tuple[float, int]:
    """Wall seconds and exit code of one timed check of CHECKS in that tree."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *command], cwd=tree, env=_child_env(tree),
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, done.returncode


def verify_record(
    runs: list[tuple[float, int]], parent: list[tuple[float, int]] | None = None
) -> dict:
    """A tree's record of one timed check, `verify_s` or `crit1_s`: median, quartiles, seconds
    and exit codes of its runs, one a pair, whether every run passed (exit 0), and with the
    parent's runs given, the pairs this tree won."""
    seconds = [s for s, _ in runs]
    codes = sorted({c for _, c in runs})
    record = {**quartiles(seconds), "runs": seconds, "exit_codes": codes, "passed": codes == [0]}
    if parent is not None:
        record["pairs_won"] = pairs_won([s for s, _ in parent], seconds, "lower")
    return record


def seed_range(text: str) -> list[int]:
    """The seeds of "A-B", A to B inclusive, or of a single "A"."""
    first, dash, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if dash else first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a seed range such as 1-10") from None
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a seed range such as 1-10")
    return list(seeds)


def seed_failures(runs: dict[int, dict]) -> dict[str, dict]:
    """Per seed, as a JSON key, a run's attempted and failed counts, its failures per input
    label and its reasons, which run.py keys "label: reason"."""
    record = {}
    for seed, run in runs.items():
        by_label: dict[str, int] = {}
        for reason, count in run["failure_reasons"].items():
            label = reason.split(": ", 1)[0]
            by_label[label] = by_label.get(label, 0) + count
        record[str(seed)] = {"attempted": run["attempted"], "failed": run["failed"],
                             "by_label": dict(sorted(by_label.items())),
                             "failure_reasons": run["failure_reasons"]}
    return record


def more_failures(parent: dict[str, dict], change: dict[str, dict]) -> list[dict]:
    """Each seed and label of two seed_failures records that fails more often in the change."""
    worse = []
    for seed, row in change.items():
        before = parent[seed]["by_label"]
        for label, count in row["by_label"].items():
            if count > before.get(label, 0):
                worse.append({"seed": int(seed), "label": label,
                              "parent": before.get(label, 0), "change": count})
    return worse


def tree_id(sha: str) -> dict:
    """The commit an entry measured, and its src/ and perfbench/ trees."""
    return {
        "commit": sha,
        "subject": _git("log", "-1", "--format=%s", sha),
        "src_tree": _git("rev-parse", f"{sha}:src"),
        "perfbench_tree": _git("rev-parse", f"{sha}:perfbench"),
    }


def entry(sha: str, runs: list[dict], facts: dict, settings: dict) -> dict:
    first = runs[0]
    return {
        **tree_id(sha),
        "settings": settings,
        "host": first["host"],
        "runs": len(runs),
        "exit_codes": sorted({run["exit"] for run in runs}),
        "metrics": {
            name: {**quartiles([run["metrics"][name] for run in runs]),
                   "runs": [run["metrics"][name] for run in runs]}
            for name in first["metrics"]
        },
        "attempted": first["attempted"],
        "failed": first["failed"],
        "failure_reasons": first["failure_reasons"],
        "mismatches": first["mismatches"],
        # the work is fixed by seed and seconds, so every run should fail alike
        "failures_repeat": all(
            (r["attempted"], r["failed"], r["failure_reasons"])
            == (first["attempted"], first["failed"], first["failure_reasons"])
            for r in runs
        ),
        **facts,
    }


def measured(e: dict) -> tuple:
    """What an entry measured: its src/ and perfbench/ trees and its settings."""
    return (e["src_tree"], e["perfbench_tree"], tuple(sorted(e["settings"].items())))


def write_entries(path: Path, entries: list[dict]) -> None:
    """Add each entry to the file, replacing an older entry that measured the same."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    new = {measured(e) for e in entries}
    kept = [e for e in old if measured(e) not in new]
    path.write_text(json.dumps(kept + entries, indent=1) + "\n", encoding="utf-8")


def failure_baseline(shas: list[str], trees: list[Path], seeds: list[int], seconds: float) -> None:
    """Run FAILURE_WORKLOAD once per seed on each tree and record the seeds' failures."""
    settings = {"failure_seeds": f"{seeds[0]}-{seeds[-1]}", "seconds": seconds}
    entries = []
    for sha, tree in zip(shas, trees):
        facts = tree_facts(tree)
        runs = {}
        for seed in seeds:
            runs[seed] = run_once(tree, FAILURE_WORKLOAD, seed, seconds)
            print(f"{tree.name} seed {seed} done", file=sys.stderr, flush=True)
        host = runs[seeds[0]]["host"]
        entries.append({**tree_id(sha), "settings": settings, "host": host,
                        "seeds": seed_failures(runs), **facts})
    parent, change = entries
    change["compared_with"] = shas[0]
    change["more_failures"] = more_failures(parent["seeds"], change["seeds"])
    write_entries(ROOT / f"BENCH_{FAILURE_WORKLOAD}.json", entries)
    for seed in map(str, seeds):
        a, b = parent["seeds"][seed], change["seeds"][seed]
        print(f"{FAILURE_WORKLOAD} seed {seed}: failed {a['failed']} of {a['attempted']} -> "
              f"{b['failed']} of {b['attempted']}")
    for row in change["more_failures"]:
        print(f"  MORE FAILURES seed {row['seed']} {row['label']}: {row['parent']} -> {row['change']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paired benchmark of a parent and a change.")
    parser.add_argument("--commits", nargs=2, required=True, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--failure-seeds", type=seed_range, metavar="A-B",
                        help=f"no timing pairs: record {FAILURE_WORKLOAD} failures per seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    shas = [_git("rev-parse", "--verify", f"{c}^{{commit}}") for c in args.commits]
    seconds = spec["run_seconds"]
    settings = {"pairs": args.pairs, "seconds": seconds, "seed": args.seed}

    with tempfile.TemporaryDirectory(prefix="heislor-bench-") as tmp:
        trees = [Path(tmp) / f"{side}-{sha[:12]}" for side, sha in zip(("a", "b"), shas)]
        for sha, tree in zip(shas, trees):
            unpack(sha, tree)
        if args.failure_seeds:
            failure_baseline(shas, trees, args.failure_seeds, seconds)
            return 0
        facts = [tree_facts(tree) for tree in trees]
        runs = {w: ([], []) for w in workloads}
        check_runs = {name: ([], []) for name in CHECKS}
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(
                        run_once(trees[side], workload, args.seed, seconds))
                print(f"pair {k + 1}/{args.pairs} {workload} done", file=sys.stderr, flush=True)
            for name, command in CHECKS.items():
                for side in order:
                    check_runs[name][side].append(verify_once(trees[side], command))
        checks = [{name: verify_record(a) for name, (a, _) in check_runs.items()},
                  {name: verify_record(b, a) for name, (a, b) in check_runs.items()}]

        for workload in workloads:
            parent, change = (
                {**entry(sha, side_runs, tree, settings), **checked}
                for sha, side_runs, tree, checked in zip(shas, runs[workload], facts, checks)
            )
            change["compared_with"] = shas[0]
            change["comparison"] = {
                name: compare(parent["metrics"][name]["runs"], change["metrics"][name]["runs"],
                              metrics[name]["better"], metrics[name]["bound"])
                for name in metrics
            }
            write_entries(ROOT / f"BENCH_{workload}.json", [parent, change])
            print(f"{workload}: {shas[0][:10]} -> {shas[1][:10]}, failed "
                  f"{parent['failed']} -> {change['failed']}, digests "
                  f"{'equal' if parent['digest'] == change['digest'] else 'DIFFER'}, tier-1 "
                  f"{parent['tier1_passed']} -> {change['tier1_passed']} passed, "
                  f"{parent['tier1_failed']} -> {change['tier1_failed']} failed")
            for name, row in change["comparison"].items():
                a, b = parent["metrics"][name], change["metrics"][name]
                print(f"  {name:12s} {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] -> "
                      f"{b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  won "
                      f"{row['wins']}/{row['pairs']}, gap {row['relative_gap']:+.2%} vs parent "
                      f"IQR {row['parent_iqr']:.3g}: {'GAIN' if row['gain'] else 'no gain'}, "
                      f"{'within bound' if row['within_bound'] else 'OUTSIDE BOUND'}")
    for name in CHECKS:
        a, b = checks[0][name], checks[1][name]
        print(f"{name} {a['median']:.3f} [{a['q1']:.3f}, {a['q3']:.3f}] -> {b['median']:.3f} "
              f"[{b['q1']:.3f}, {b['q3']:.3f}]  won {b['pairs_won']}/{len(b['runs'])}, exit "
              f"codes {a['exit_codes']} -> {b['exit_codes']} (reported, not claimed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
