"""README.md stays true: its examples run, its claim -> check table names the checks that
`heislor verify` runs, and every constant it quotes has the value it gives."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import heislor.verification as verification
from heislor.cli import EXIT_OK, main
from heislor.verification import CheckResult, run_all

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")

#: modules searched for a constant README quotes without a module prefix
_CONSTANT_MODULES = ("reduction", "metrics", "numerics", "_linalg", "cli", "orbits")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _claim_rows():
    """(check, function, test) of each row of the claim -> check table."""
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|[^|]*\| `(\w+)` \| `(\w+)` \|$", README, flags=re.M)
    assert rows, "README has no claim -> check table"
    return rows


def test_python_sketch_runs_as_shown():
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})


def test_classify_example_prints_what_readme_shows(tmp_path, capsys):
    (metric_json,) = _blocks("json")
    (console,) = _blocks("console")
    command, *shown = console.splitlines()
    assert command == "$ heislor classify --input metric.json --format text"
    (tmp_path / "metric.json").write_text(metric_json)
    code = main(["classify", "--input", str(tmp_path / "metric.json"), "--format", "text"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == shown


def test_claim_table_names_every_check_with_its_function_and_test(monkeypatch):
    # the names, not the work: each check returns at once, and the randomized one runs
    # a single sample per class at n = 4
    monkeypatch.setattr(verification, "_timed", lambda name, fn: CheckResult(name, True, "", 0.0))
    names = [r.name for r in run_all(4, 4, samples=1)]
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    tests = {f.name for f in acceptance.body if isinstance(f, ast.FunctionDef)}
    rows = _claim_rows()
    assert [check for check, _, _ in rows] == names
    for check, function, test in rows:
        produced = getattr(verification, function)
        if function == "run_randomized_classification":
            results = produced(n_values=(4,), samples=1)
        else:
            results = (produced(),)
        assert check in [r.name for r in results], (check, function)
        assert test in tests, test


def test_quoted_constants_have_the_values_readme_gives():
    quoted = re.findall(r"`((?:[a-z_]+\.)?[A-Z][A-Z0-9_]+) = ([^`]+)`", README)
    names = {name for name, _ in quoted}
    assert {"WITNESS_TOL", "SNAP_LIMIT", "WALL_BAND", "MAX_RETRIES"} <= names
    assert {"cli.MAX_REPORT_N", "cli.MAX_VERIFY_N"} <= names
    for name, text in quoted:
        module, _, attr = name.rpartition(".")
        modules = (module,) if module else _CONSTANT_MODULES
        values = {
            getattr(m, attr)
            for m in (importlib.import_module(f"heislor.{mod}") for mod in modules)
            if hasattr(m, attr)
        }
        assert values == {ast.literal_eval(text)}, (name, values, text)


@pytest.mark.parametrize("unit", ["ns", "µs", "μs", "us", "ms", "s"])
def test_readme_quotes_no_timing(unit):
    assert not re.search(rf"\d\s*{unit}\b", README), unit
