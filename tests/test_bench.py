"""tools/bench.py's pairing rule on fixed numbers, how it keys its records, and what it counts."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_pairs_and_weighs_the_gap_against_the_parent_iqr():
    bench = _bench()
    parent = [0.086, 0.085, 0.087, 0.086, 0.088, 0.085, 0.086, 0.087, 0.086, 0.084]
    change = [0.080, 0.081, 0.080, 0.086, 0.081, 0.080, 0.082, 0.080, 0.081, 0.080]
    assert bench.quartiles(parent) == pytest.approx({"median": 0.086, "q1": 0.08525, "q3": 0.08675})
    row = bench.compare(parent, change, "lower", 0.25)
    # pair 4 is a tie, which counts for neither side
    assert (row["pairs"], row["wins"], row["gain"], row["within_bound"]) == (10, 9, True, True)
    assert row["median_gap"] == pytest.approx(0.0055)
    assert row["parent_iqr"] == pytest.approx(0.0015)
    assert row["relative_gap"] == pytest.approx(0.0055 / 0.086)
    # the same runs read as a higher-is-better metric: lost every decided pair, and
    # 6.4 % worse is inside a bound of 0.25 but outside one of 0.05
    flipped = bench.compare(parent, change, "higher", 0.25)
    assert (flipped["wins"], flipped["gain"], flipped["within_bound"]) == (0, False, True)
    assert not bench.compare(parent, change, "higher", 0.05)["within_bound"]
    # eight wins of ten is short of nine tenths, whatever the gap
    assert not bench.compare(parent, change[:8] + [0.09, 0.09], "lower", 0.25)["gain"]
    # nine wins, but a gap inside the parent's spread
    assert not bench.compare(parent, [p - 1e-4 for p in parent[:9]] + [0.09], "lower", 0.25)["gain"]
    with pytest.raises(ValueError):
        bench.compare(parent, change[:9], "lower", 0.25)


def test_verify_record_keeps_each_pairs_seconds_and_exit_code_and_counts_pairs_won(tmp_path):
    bench = _bench()
    parent = [(2.2, 0), (2.1, 0), (2.4, 0), (2.0, 0)]
    change = [(2.0, 0), (2.1, 0), (2.3, 1), (2.1, 0)]
    assert bench.verify_record(parent) == {
        "median": pytest.approx(2.15), "q1": pytest.approx(2.075), "q3": pytest.approx(2.25),
        "runs": [2.2, 2.1, 2.4, 2.0], "exit_codes": [0], "passed": True}
    # pair 2 is a tie and pair 4 a loss; a failed verify is kept among the exit codes
    record = bench.verify_record(change, parent)
    assert (record["pairs_won"], record["exit_codes"], record["passed"]) == (2, [0, 1], False)
    with pytest.raises(ValueError):
        bench.verify_record(change, parent[:3])
    # crit1_s runs criterion 1's loop, here a stand-in package whose checks pass or fail,
    # and exits 0 only when every check passes
    package = tmp_path / "src" / "heislor"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    for passed, code in ((True, 0), (False, 1)):
        (package / "verification.py").write_text(
            "from types import SimpleNamespace as Check\n"
            "def run_randomized_classification():\n"
            f"    return Check(passed=True), Check(passed={passed})\n"
        )
        seconds, exit_code = bench.verify_once(tmp_path, bench.CRIT1)
        assert exit_code == code and 0.0 < seconds < bench.CHILD_TIMEOUT_S


def test_write_entries_replaces_only_an_entry_of_the_same_trees_and_settings(tmp_path):
    bench = _bench()
    path = tmp_path / "BENCH_w.json"

    def entry(commit, src, seed, pairs=10):
        settings = {"pairs": pairs, "seconds": 20, "seed": seed}
        return {"commit": commit, "src_tree": src, "perfbench_tree": "p0", "settings": settings}

    bench.write_entries(path, [entry("parent", "s0", 1), entry("staged", "s1", 1)])
    # other seeds or pair counts on the same commits are added beside the record
    bench.write_entries(path, [entry("parent", "s0", 2), entry("staged", "s1", 1, pairs=1)])
    assert len(json.loads(path.read_text())) == 4
    # the landed commit of the staged tree takes over its entry, in the same settings only
    bench.write_entries(path, [entry("landed", "s1", 1)])
    rows = json.loads(path.read_text())
    assert [(e["commit"], e["settings"]["seed"], e["settings"]["pairs"]) for e in rows] == [
        ("parent", 1, 10), ("parent", 2, 10), ("staged", 1, 1), ("landed", 1, 10)]
    # a new perfbench/ measures something else, so it is added too
    bench.write_entries(path, [{**entry("landed", "s1", 1), "perfbench_tree": "p1"}])
    assert len(json.loads(path.read_text())) == 5


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    bench = _bench()
    package = tmp_path / "src" / "heislor"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline, which wc -l does not count
    (package / "notes.txt").write_text("not a module\n")
    (package / "sub" / "c.py").write_text("in a subpackage\n")
    assert bench.src_lines(tmp_path) == 3


def test_tier1_counts_read_pytests_closing_line():
    bench = _bench()
    assert bench.tier1_counts("....\n773 passed in 26.71s\n") == {
        "tier1_passed": 773, "tier1_failed": 0}
    closing = "FAILED tests/t.py::x\n2 failed, 770 passed, 1 skipped, 3 warnings, 1 error in 31.0s"
    assert bench.tier1_counts(closing) == {"tier1_passed": 770, "tier1_failed": 3}
    # a run that printed nothing, or no counts, records zeros
    assert bench.tier1_counts("") == {"tier1_passed": 0, "tier1_failed": 0}
    assert bench.tier1_counts("no tests ran in 0.01s") == {"tier1_passed": 0, "tier1_failed": 0}


def test_failure_seeds_parse_a_range_and_record_each_seeds_failures_per_label():
    bench = _bench()
    assert bench.seed_range("1-10") == list(range(1, 11))
    assert bench.seed_range("3") == [3]
    for bad in ("10-1", "-3", "1-", "a-b", "1-2-3", ""):
        with pytest.raises(bench.argparse.ArgumentTypeError, match="seed range"):
            bench.seed_range(bad)
    # parsed as the command line does, before any tree is unpacked or run
    with pytest.raises(SystemExit):
        bench.main(["--commits", "HEAD", "HEAD", "--failure-seeds", "10-1"])

    def run(reasons):
        return {"attempted": 5280, "failed": sum(reasons.values()), "failure_reasons": reasons}

    parent = bench.seed_failures({
        1: run({"l1+1e-05: ClassificationMismatch": 80, "l1+0.0001: ClassificationMismatch": 20,
                "l1+0.0001: chain misses the representative": 2}),
        2: run({}),
    })
    assert parent == {
        "1": {"attempted": 5280, "failed": 102, "by_label": {"l1+0.0001": 22, "l1+1e-05": 80},
              "failure_reasons": {"l1+1e-05: ClassificationMismatch": 80,
                                  "l1+0.0001: ClassificationMismatch": 20,
                                  "l1+0.0001: chain misses the representative": 2}},
        "2": {"attempted": 5280, "failed": 0, "by_label": {}, "failure_reasons": {}},
    }
    json.dumps(parent)  # the record is written as JSON
    change = bench.seed_failures({
        1: run({"l1+1e-05: ClassificationMismatch": 79, "l1+0.0001: ClassificationMismatch": 23}),
        2: run({"l2-1e-07: ValueError": 1}),
    })
    # fewer failures of a label, or the same, are no regression; a label new to a seed is
    assert bench.more_failures(parent, change) == [
        {"seed": 1, "label": "l1+0.0001", "parent": 22, "change": 23},
        {"seed": 2, "label": "l2-1e-07", "parent": 0, "change": 1},
    ]
    assert bench.more_failures(parent, parent) == []
