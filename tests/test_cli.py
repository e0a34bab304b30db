"""Command-line interface: exit codes, formats, round trips."""

import json
import math

import numpy as np
import pytest

from heislor.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main
from heislor.metrics import canonical_gram, canonical_metric, metric_to_json


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
    # pipeline and invariant classifier disagree this close to the (2, sqrt3) wall
    gram = canonical_gram(2, math.sqrt(3.0) + 1e-7, 5, exact=False)
    code = main(["classify", "--input", _write_gram(tmp_path, gram)])
    assert code == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_failed_witness_exits_check_failed(tmp_path, capsys):
    gram = 1e6 * canonical_gram(1, 1, 5, exact=False)
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


@pytest.mark.parametrize("option", [["--tol", "1e-2"], ["--dot"]])
def test_orbits_rejects_retired_options(option, capsys):
    # the graph is a fixed object: no tolerance, and DOT is --format dot
    with pytest.raises(SystemExit) as exc:
        main(["orbits", "--n", "4", *option])
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

    def corrupted(lam, xi, n, exact=True):
        ops = real(lam, xi, n, exact)
        bad = ops[(0, 1)].copy()
        bad[1, 0] = bad[1, 0] + QSqrt3(1)
        ops[(0, 1)] = bad
        return ops

    monkeypatch.setattr(verification, "closed_form_riemann", corrupted)
    result = verification.check_curvature_oracle()
    assert not result.passed
    assert result.name == "curvature-tables-oracle"
    assert "mismatch" in result.detail


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("METRICLASS_TOL", "1e-7")
    metric, _ = canonical_metric(2, "0", 4, backend="approx")
    assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_OK
    for bad in ("-3", "abc", "nan", "inf", "0"):
        monkeypatch.setenv("METRICLASS_TOL", bad)
        assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: METRICLASS_TOL=") and "Traceback" not in err


def test_tol_flag_rejects_non_positive_and_non_finite(tmp_path, capsys):
    metric, _ = canonical_metric(2, "0", 4, backend="approx")
    path = _write_metric(tmp_path, metric)
    for bad in ("-1", "nan", "inf", "0"):
        assert main(["classify", "--input", path, "--tol", bad]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --tol=") and "symmetric" not in err
    assert main(["classify", "--input", path, "--tol", "1e-7"]) == EXIT_OK


def test_classification_json_round_trip(tmp_path, capsys):
    metric, _ = canonical_metric(2, "2", 4, backend="approx")
    assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_OK
    blob = capsys.readouterr().out
    from heislor.metrics import canonical_json

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
    from heislor.metrics import canonical_json

    assert main(["curvature", "--lambda", "0", "--xi", "0", "--n", "5", "--format", "json"]) == EXIT_OK
    blob = capsys.readouterr().out
    assert canonical_json(json.loads(blob)) == blob.strip()


def test_orbits_json_round_trip(capsys):
    from heislor.metrics import canonical_json

    assert main(["orbits", "--n", "4", "--format", "json"]) == EXIT_OK
    blob = capsys.readouterr().out
    assert canonical_json(json.loads(blob)) == blob.strip()


def test_classify_payload_schema(tmp_path, capsys):
    metric, _ = canonical_metric(2, "0", 4, backend="approx")
    assert main(["classify", "--input", _write_metric(tmp_path, metric)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {"lambda", "xi", "k", "witness", "flags"} <= set(payload)
    assert {"left", "right", "start", "target", "m", "flags"} <= set(payload["witness"])
