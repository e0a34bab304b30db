"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the independent checker catches a corrupted witness, a witness
the package vouches for wrongly and a wrong table entry; that every workload,
traced and untraced, emits exactly the metrics BENCHMARK.json names, with
their units; and that run.py fails without a result when the package source
is absent.  Takes about three minutes, most of it in the cold exact-tables passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402

from heislor.metrics import APPROX, Metric  # noqa: E402
from heislor.reduction import classify  # noqa: E402


def _sound_case():
    case = next(gen.stream("orbit-sweep", 5))
    form, _k, witness = classify(Metric(gram=case.gram, backend=APPROX))
    assert form.pair == case.truth
    return case, form.pair, witness


def _parts(w, left=None, right=None):
    return (w.left if left is None else left, w.right if right is None else right,
            w.start, w.m_factor, w.target)


def test_checker_catches_corruption() -> None:
    case, pair, w = _sound_case()
    assert check.witness_problems(case.gram, pair, *_parts(w))[0] == []
    right = [k.copy() for k in w.right]
    right[0][0, 0] += 1e-4
    assert check.witness_problems(case.gram, pair, *_parts(w, right=right))[0]
    left = [h.copy() for h in w.left]
    outside = np.argwhere(~gen.aut_mask(case.n).T)[0]
    left[0][tuple(outside)] = 1e-3
    assert check.witness_problems(case.gram, pair, *_parts(w, left=left))[0]
    other = next(p for p in gen.CLASSES if p != pair)
    assert not check.judge(case, other, _parts(w), None)[0]
    # a package that vouches for a bad witness is caught and counted as silent
    tally = sweep.Tally()
    w.right[0] = right[0]
    tally.record(case, 1e-3, pair, w, None, True)
    assert tally.failed == 1 and tally.silent == 1
    # outside the ambiguity band an exception is a failure, not a pass
    assert not check.judge(case, None, None, ValueError("x"))[0]


def test_block_is_whole_cycles() -> None:
    for specs, _make in gen.SWEEPS.values():
        assert sweep.BLOCK % (len(specs) * len(gen.N_VALUES)) == 0


def test_checker_catches_wrong_table_entry() -> None:
    good = check.expected_table_values(layers=True)
    assert check.table_mismatches(good, layers=True) == []
    bad = dict(good)
    bad["codimension/7/1,0"] = 4
    assert check.table_mismatches(bad, layers=True) == ["codimension/7/1,0: got 4, expected 5"]
    bad = dict(good)
    del bad["ricci_spectrum/6/2,2"]
    assert check.table_mismatches(bad, layers=True)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_every_workload_emits_its_metrics() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, names in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        want = {m["name"]: m["unit"] for m in names}
        assert want == (run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS)
        for workload in bench["workloads"]:
            done = _run(ROOT, "--workload", workload["name"], "--seed", "3",
                        "--seconds", "0.2", "--trace", str(trace))
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload["name"], trace)
            for name, metric in result["metrics"].items():
                # classify minus the replayed stages may dip below zero
                if name != "reduction.classify_self_us":
                    assert 0 <= metric["value"] < float("inf"), (workload["name"], name)
            print(f"ok  {workload['name']} --trace {trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")


def test_fails_without_package_source() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = _run(bare, "--workload", "orbit-sweep", "--seed", "1", "--seconds", "1")
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def main() -> int:
    tests = [test_checker_catches_corruption, test_checker_catches_wrong_table_entry,
             test_block_is_whole_cycles,
             test_fails_without_package_source, test_every_workload_emits_its_metrics]
    for test in tests:
        test()
        print(f"PASS {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
