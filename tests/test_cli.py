"""Command-line interface: exit codes, formats, round trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heislor
from heislor.cli import (
    EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_CODES, EXIT_OK, MAX_REPORT_N, main,
)
from heislor.liealg import aut_pattern
from heislor.metrics import (
    APPROX,
    CANONICAL_PAIRS,
    Metric,
    act,
    canonical_gram,
    canonical_metric,
    metric_from_json,
    xi_float,
)
from heislor.errors import EvidenceFailure, OracleMismatch
from heislor.numerics import QSqrt3
from heislor.reduction import Witness, restricted_signatures

from references import metric_to_json, verify_witness_by_side


def _write_metric(tmp_path, metric, name="metric.json"):
    path = tmp_path / name
    path.write_text(json.dumps(metric_to_json(metric)))
    return str(path)


def test_classify_canonical_sqrt3(tmp_path, capsys):
    metric, _ = canonical_metric(2, "sqrt3", 5)
    code = main(["classify", "--input", _write_metric(tmp_path, metric)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == 2 and payload["xi"] == "sqrt3"
    assert payload["witness_ok"] is True
    assert payload["k"] == pytest.approx(1.0, abs=1e-9)


def test_classify_minkowski(tmp_path, capsys):
    metric, _ = canonical_metric(0, "0", 4, backend="approx")
    code = main(["classify", "--input", _write_metric(tmp_path, metric), "--format", "text"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "(0, 0)" in out


def test_classify_rejects_positive_definite(tmp_path, capsys):
    path = tmp_path / "spd.json"
    path.write_text(json.dumps({"n": 4, "gram": np.eye(4).tolist(), "backend": "approx"}))
    code = main(["classify", "--input", str(path)])
    assert code == EXIT_BAD_INPUT
    assert "unsupported" in capsys.readouterr().err


def test_classify_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["classify", "--input", str(path)])
    assert code == EXIT_BAD_INPUT
    assert "error" in capsys.readouterr().err


def _write_gram(tmp_path, gram):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"n": gram.shape[0], "backend": "approx", "gram": gram.tolist()}))
    return str(path)


def test_classify_near_wall_disagreement_is_bad_input(tmp_path, capsys):
    # this close to the (2, sqrt3) wall the class cannot be decided: exit 2
    gram = canonical_gram(2, math.sqrt(3.0) + 1e-7, 5, exact=False)
    code = main(["classify", "--input", _write_gram(tmp_path, gram)])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "lam, xi, classes",
    [
        (2, math.sqrt(3.0) - 1e-7, ("(2, 0)", "(2, sqrt3)")),
        (2, math.sqrt(3.0) + 1e-7, ("(2, 2)", "(2, sqrt3)")),
        (1, 1e-7, ("(1, 1)", "(1, 0)")),
    ],
)
def test_classify_ambiguous_near_wall_names_both_classes(tmp_path, capsys, lam, xi, classes):
    gram = canonical_gram(lam, xi, 5, exact=False)
    assert main(["classify", "--input", _write_gram(tmp_path, gram)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ambiguous near the wall")
    assert all(name in captured.err for name in classes)


def test_classify_failed_witness_exits_check_failed(tmp_path, capsys):
    # lam=1 just outside the wall band: the factors grow like 1/xi and this
    # chain misses the representative by about 2.4e-7
    rng = np.random.default_rng(3)
    g = np.eye(5) + 0.3 * rng.standard_normal((5, 5)) * aut_pattern(5).mask
    gram = act(g, Metric(gram=canonical_gram(1, 5e-5, 5, exact=False))).gram
    code = main(["classify", "--input", _write_gram(tmp_path, gram)])
    assert code == EXIT_CHECK_FAILED
    assert json.loads(capsys.readouterr().out)["witness_ok"] is False


def test_classify_rejects_mismatched_n(tmp_path):
    metric, _ = canonical_metric(1, "1", 4, backend="approx")
    code = main(["classify", "--input", _write_metric(tmp_path, metric), "--n", "5"])
    assert code == EXIT_BAD_INPUT


def test_classify_backend_promotion(tmp_path, capsys):
    metric, _ = canonical_metric(1, "0", 4)  # exact file
    code = main(
        ["classify", "--input", _write_metric(tmp_path, metric), "--backend", "approx"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == 1 and payload["xi"] == 0


def test_classify_rejects_float_for_exact_backend(tmp_path, capsys):
    metric, _ = canonical_metric(1, "0", 4, backend="approx")
    code = main(
        ["classify", "--input", _write_metric(tmp_path, metric), "--backend", "exact"]
    )
    assert code == EXIT_BAD_INPUT


def test_curvature_flat_report(capsys):
    code = main(["curvature", "--lambda", "1", "--xi", "0", "--n", "4", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["curvature"]["flat"] is True
    assert payload["curvature"]["einstein"] == "0"
    assert payload["orbit"]["codimension"] == 2  # n - 2 at n = 4


def test_curvature_report_two_two(capsys):
    code = main(["curvature", "--lambda", "2", "--xi", "2", "--n", "7", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["orbit"]["codimension"] == 0
    assert sorted(payload["curvature"]["spectrum"]) == sorted(["3/2", "-3/2", "-3/2", "0"])


def test_curvature_rejects_non_representative(capsys):
    code = main(["curvature", "--lambda", "3", "--xi", "0", "--n", "4"])
    assert code == EXIT_BAD_INPUT


def test_curvature_rejects_bad_xi():
    with pytest.raises(SystemExit):
        main(["curvature", "--lambda", "2", "--xi", "7", "--n", "4"])


def test_orbits_text_and_dot(capsys):
    assert main(["orbits", "--n", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "codim" in out and "(1,0)" in out
    assert main(["orbits", "--n", "5", "--format", "dot"]) == EXIT_OK
    assert "digraph" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option",
    [
        ["orbits", "--n", "4", "--tol", "1e-2"],
        ["orbits", "--n", "4", "--dot"],
        ["classify", "--input", "-", "--tol", "1e-7"],
    ],
)
def test_orbits_rejects_retired_options(option, capsys):
    # the graph is a fixed object: no tolerance, and DOT is --format dot;
    # classify reads every metric at unit scale and takes no tolerance either
    with pytest.raises(SystemExit) as exc:
        main(option)
    assert exc.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


def test_orbits_rejects_small_n(capsys):
    assert main(["orbits", "--n", "3"]) == EXIT_BAD_INPUT


def test_verify_small_run(capsys):
    code = main(
        ["verify", "--n-min", "4", "--n-max", "4", "--samples", "3", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "six-class-randomized" in names and "witness-soundness" in names


def test_verify_rejects_bad_range(capsys):
    assert main(["verify", "--n-min", "3", "--n-max", "4"]) == EXIT_BAD_INPUT


def test_verify_detects_injected_table_error(monkeypatch, capsys):
    """Mutation smoke test: a corrupted curvature table must be caught by name."""
    import heislor.verification as verification
    from heislor.curvature import closed_form_riemann as real
    from heislor.numerics import QSqrt3

    def corrupted(lam, xi, n):
        ops = real(lam, xi, n)
        bad = ops[(0, 1)].copy()
        bad[1, 0] = bad[1, 0] + QSqrt3(1)
        ops[(0, 1)] = bad
        return ops

    monkeypatch.setattr(verification, "closed_form_riemann", corrupted)
    result = verification.check_curvature_oracle()
    assert not result.passed
    assert result.name == "curvature-tables-oracle"
    assert "mismatch" in result.detail


def test_classification_json_round_trip(tmp_path, capsys):
    metric, _ = canonical_metric(2, "2", 4, backend="approx")
    assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_OK
    blob = capsys.readouterr().out
    from heislor.cli import canonical_json

    assert canonical_json(json.loads(blob)) == blob.strip()


def test_classify_reads_stdin(monkeypatch, capsys):
    import io

    metric, _ = canonical_metric(1, "1", 4, backend="approx")
    payload = json.dumps(metric_to_json(metric))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["classify", "--input", "-"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == 1 and out["xi"] == 1


def test_curvature_json_round_trip(capsys):
    from heislor.cli import canonical_json

    assert main(["curvature", "--lambda", "0", "--xi", "0", "--n", "5", "--format", "json"]) == EXIT_OK
    blob = capsys.readouterr().out
    assert canonical_json(json.loads(blob)) == blob.strip()


def test_orbits_json_round_trip(capsys):
    from heislor.cli import canonical_json

    assert main(["orbits", "--n", "4", "--format", "json"]) == EXIT_OK
    blob = capsys.readouterr().out
    assert canonical_json(json.loads(blob)) == blob.strip()


def test_classify_payload_schema(tmp_path, capsys):
    metric, _ = canonical_metric(2, "0", 4, backend="approx")
    assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {"lambda", "xi", "k", "witness", "flags"} <= set(payload)
    assert {"left", "right", "start", "target", "m", "flags"} <= set(payload["witness"])


def _signature_subject(name):
    if name == "orbit":
        rng = np.random.default_rng(3)
        g = np.eye(6) + 0.3 * rng.standard_normal((6, 6)) * aut_pattern(6).mask
        return act(g, canonical_metric(2, "2", 6, backend=APPROX)[0])
    return canonical_metric(name[0], name[1], 5, backend=APPROX)[0]


@pytest.mark.parametrize("name", [*CANONICAL_PAIRS, "orbit"])
def test_classify_signatures_equal_restricted_signatures(name, tmp_path, capsys):
    # the CLI prints the table row classify matched, not a recomputation
    metric = _signature_subject(name)
    path = _write_metric(tmp_path, metric)
    assert main(["classify", "--input", path]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)["signatures"]
    center, derived = restricted_signatures(metric)
    assert printed == {"center": list(center), "derived": list(derived)}
    assert main(["classify", "--input", path, "--format", "text"]) == EXIT_OK
    assert (
        f"signature on center: {center}  on derived ideal: {derived}"
        in capsys.readouterr().out
    )


def _raise(exc):
    def fail(*_args, **_kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("error", [OracleMismatch, EvidenceFailure])
@pytest.mark.parametrize(
    "argv, patched",
    [
        (["curvature", "--lambda", "1", "--xi", "0", "--n", "4"], "orbit_report"),
        (["orbits", "--n", "4"], "orbit_report"),
        (["orbits", "--n", "4"], "degeneration_graph"),
    ],
    ids=["curvature", "orbits-report", "orbits-graph"],
)
def test_self_check_failures_exit_check_failed(argv, patched, error, monkeypatch, capsys):
    monkeypatch.setattr(f"heislor.orbits.{patched}", _raise(error("recomputation disagrees")))
    assert main(argv) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err == "error: recomputation disagrees\n" and captured.out == ""


_MINKOWSKI_4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]


def _exact_with(entry):
    gram = [[str(x) for x in row] for row in _MINKOWSKI_4]
    gram[0][0] = entry
    return json.dumps({"n": 4, "backend": "exact", "gram": gram})


def _approx(n=4, gram=_MINKOWSKI_4):
    return json.dumps({"n": n, "backend": "approx", "gram": gram})


def _boolean_entry(backend):
    return json.dumps({"n": 4, "backend": backend, "gram": [[True, 0, 0, 0], *_MINKOWSKI_4[1:]]})


#: --input contents that must end in exit 2, and a word the error must name;
#: None stands for a missing file, "" for a directory
BAD_INPUTS = {
    "missing-file": (None, "No such file"),
    "directory": ("", "directory"),
    "gram-not-rows": (_approx(gram=5), "gram"),
    "gram-ragged": (_approx(gram=[[1, 0, 0, 0], [0, 1, 0], [0, 0, 1, 0], [0, 0, 0, -1]]), "gram"),
    "zero-denominator": (_exact_with("1/0"), "gram[0][0]"),
    # once read as sqrt3 by skipping the "*2", and classified with exit 0
    "exact-not-read-whole": (_exact_with("sqrt3*2"), "gram[0][0] = 'sqrt3*2' is not a valid"),
    "exact-beyond-float": (_exact_with("1e400"), "the metric's scale is outside the float range"),
    "nan-entry": (_approx().replace("1, 0, 0, 0]", "NaN, 0, 0, 0]", 1), "gram[0][0]"),
    "infinite-entry": (_approx().replace("1, 0, 0, 0]", "1e400, 0, 0, 0]", 1), "gram[0][0]"),
    "entry-not-a-number": (_approx(gram=[[{}, 0, 0, 0], *_MINKOWSKI_4[1:]]), "gram[0][0]"),
    "approx-boolean": (_boolean_entry("approx"), "gram[0][0] = True is not a number"),
    # once read by Python's float syntax as -10, and classified with exit 0
    "approx-string": (_approx(gram=[*_MINKOWSKI_4[:3], [0, 0, 0, "-1_0"]]),
                      "gram[3][3] = '-1_0' is not a number"),
    "exact-boolean": (_boolean_entry("exact"), "gram[0][0] = True is not a number"),
    "n-not-integer": (_approx(n=4.7), "n = 4.7"),
    "n1": (_approx(n=1, gram=[[-1]]), "n >= 4"),
    "n2": (_approx(n=2, gram=[[1, 0], [0, -1]]), "n >= 4"),
    "n3-center-timelike": (_approx(n=3, gram=[[1, 0, 0], [0, -1, 0], [0, 0, 1]]), "n >= 4"),
    "n3-minkowski": (_approx(n=3, gram=[[1, 0, 0], [0, 1, 0], [0, 0, -1]]), "n >= 4"),
}


@pytest.mark.parametrize("text, named", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_classify_bad_input_exits_bad_input(text, named, tmp_path, capsys):
    path = tmp_path / "metric.json"
    if text == "":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert main(["classify", "--input", str(path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("s", [3e-308, 1e-308, 5e-309, 1e-309, 1e-312, 1e-318, 5e-324])
def test_classify_tiny_scale_exits_with_the_class_or_bad_input(s, tmp_path, capsys):
    for lam, key in CANONICAL_PAIRS:
        for n in (4, 6, 8):
            gram = s * canonical_gram(lam, xi_float(key), n, exact=False)
            code = main(["classify", "--input", _write_gram(tmp_path, gram)])
            captured = capsys.readouterr()
            if code == EXIT_OK:
                payload = json.loads(captured.out)
                assert (payload["lambda"], str(payload["xi"])) == (lam, key)
                assert payload["witness_ok"] is True
            else:
                assert code == EXIT_BAD_INPUT
                assert captured.err == "error: the metric's scale is outside the float range\n"


@pytest.mark.parametrize("backend", [[], ["--backend", "approx"]], ids=["exact", "approx"])
@pytest.mark.parametrize("e", [-400, -310, -300, 300, 310, 400])
def test_classify_exact_file_at_extreme_scale_exits_with_the_class_or_bad_input(
    e, backend, tmp_path, capsys
):
    metric, _ = canonical_metric(2, "2", 5)
    scaled = Metric(metric.gram * QSqrt3(Fraction(10) ** e), backend="exact")
    code = main(["classify", "--input", _write_metric(tmp_path, scaled), *backend])
    captured = capsys.readouterr()
    if abs(e) <= 300:
        assert code == EXIT_OK and json.loads(captured.out)["xi"] == 2
    else:
        assert code == EXIT_BAD_INPUT and captured.out == ""
        assert captured.err == "error: the metric's scale is outside the float range\n"


def test_missing_input_exit_status_of_the_process(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(heislor.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "heislor.cli", "classify", "--input", str(tmp_path / "absent.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_BAD_INPUT
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_samples_below_one(samples, capsys):
    assert main(["verify", "--n-min", "4", "--n-max", "4", "--samples", samples]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: need --samples >= 1, got {samples}\n" and captured.out == ""


@pytest.mark.parametrize("argv", [["curvature", "--lambda", "1", "--xi", "0", "--n", "3"],
                                  ["orbits", "--n", "3"]])
def test_small_n_report_is_bad_input(argv, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: need n >= 4, got 3\n"


def test_broken_pipe_exits_ok_quietly(monkeypatch, capsys):
    monkeypatch.setattr("heislor.orbits.degeneration_graph", _raise(BrokenPipeError()))
    assert main(["orbits", "--n", "4"]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_untyped_error_keeps_its_traceback(monkeypatch):
    # only the typed errors of the exit-code table are mapped; a bug propagates
    monkeypatch.setattr("heislor.orbits.degeneration_graph", _raise(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError, match="bug"):
        main(["orbits", "--n", "4"])


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    # json.load gives up with RecursionError; only the loader turns it into bad input
    path = tmp_path / "deep.json"
    path.write_text("[" * 2000 + "]" * 2000)
    assert main(["classify", "--input", str(path)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: the JSON document is nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["curvature", "--lambda", "1", "--xi", "0"], ["orbits"]],
                         ids=["curvature", "orbits"])
@pytest.mark.parametrize("n", [MAX_REPORT_N + 1, 10**20])
def test_large_n_report_is_bad_input(argv, n, monkeypatch, capsys):
    # the bound is checked before any report work starts
    for target in ("heislor.curvature.curvature_report", "heislor.orbits.orbit_report",
                   "heislor.orbits.degeneration_graph"):
        monkeypatch.setattr(target, _raise(AssertionError("report work started")))
    assert main([*argv, "--n", str(n)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: need n <= {MAX_REPORT_N}, got {n}\n" and captured.out == ""
    with pytest.raises(AssertionError, match="report work started"):
        main([*argv, "--n", str(MAX_REPORT_N)])


def test_every_typed_error_has_an_exit_code():
    from heislor import errors

    for kind in vars(errors).values():
        if isinstance(kind, type) and issubclass(kind, Exception):
            code = next((c for k, c in EXIT_CODES.items() if issubclass(kind, k)), None)
            assert code in (EXIT_CHECK_FAILED, EXIT_BAD_INPUT), kind


#: JSON values a gram entry or n may hold besides a finite number
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def _symmetric_documents(draw):
    """A symmetric float gram, n = 4..8, either a^T J a (Lorentzian) or any symmetric
    matrix, scaled by 10^e for e in -300..300."""
    n = draw(st.integers(4, 8))
    a = np.array(draw(st.lists(st.floats(-1, 1), min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        gram = a.T @ np.diag([1.0] * (n - 1) + [-1.0]) @ a
    else:
        gram = a + a.T
    gram = gram * 10.0 ** draw(st.integers(-300, 300))
    return {"n": n, "backend": "approx", "gram": gram.tolist()}


@st.composite
def _junk_documents(draw):
    """n from 0 to 9, gram entries that may be NaN, inf, strings, booleans or null,
    and keys that may be missing."""
    size = draw(st.integers(0, 9))
    entry = st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3), _JUNK)
    doc = {
        "n": draw(st.one_of(st.just(size), _JUNK)),
        "backend": draw(st.sampled_from(["approx", "exact", "float", None])),
        "gram": draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                              min_size=size, max_size=size)),
    }
    missing = draw(st.sets(st.sampled_from(sorted(doc))))
    return {key: value for key, value in doc.items() if key not in missing}


def _printed_witness(w: dict) -> Witness:
    def arr(x):
        return np.array(x, dtype=float)

    return Witness(
        left=[arr(h) for h in w["left"]], right=[arr(k) for k in w["right"]],
        start=arr(w["start"]), target=arr(w["target"]),
        m_factor=None if w["m"] is None else arr(w["m"]), flags=w["flags"],
    )


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.one_of(_symmetric_documents(), _junk_documents()))
def test_classify_any_json_document_exits_with_a_code(doc):
    """Every document ends in exit 0, 1 or 2 with no warning: exit 2 prints only an
    error line, and exit 0 comes exactly with a witness the by-side reference accepts."""
    text = json.dumps(doc)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["classify", "--input", "-"])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_INPUT)
    if code == EXIT_BAD_INPUT:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        payload = json.loads(out.getvalue())
        check = verify_witness_by_side(metric_from_json(doc), _printed_witness(payload["witness"]))
        assert check.ok == (code == EXIT_OK)
