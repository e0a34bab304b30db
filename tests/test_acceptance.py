"""Acceptance suite: every published table and claim at its stated tolerance.

One test per criterion; each prints a PASS line so the suite doubles as a
report when run with `pytest -s tests/test_acceptance.py`.

 1. six-class classification of randomized orbit samples (both classifiers,
    1000 samples per class and dimension, n in 4..8, < 60 s)
 2. restricted-signature table, exact, n in 4..10
 3. closed-form curvature tables == generic structure-constant pipeline,
    exact, n in 4..10
 4. flat/Einstein/soliton trichotomy with exact certificates
 5. Ricci spectra of the corner block, exact
 6. codimension table + stabilizer rank oracle + derivation dimension
 7. degeneration diagram: six direct edges, obstructed non-edges, flat sink
 8. the closed-form lam=2 root that classify runs, for every t >= 0 off sqrt3:
    3 phi^2 = u^2 - 1 as an exact identity of degree <= 2 in t, exact spot roots
    at t = 0 and 2, and its float output's residuals, read exactly, within
    ROOT_RESIDUAL_EPS eps times their terms' sizes
 9. witness soundness for every witness from criterion 1
"""

import math
import time

import pytest

import heislor.verification as verification
from heislor.reduction import lambda2_closed_form
from heislor.verification import (
    CheckResult,
    check_codimension_table,
    check_curvature_oracle,
    check_degeneration_graph,
    check_flat_einstein_soliton,
    check_ivt_roots,
    check_ricci_spectra,
    check_signature_table,
    run_randomized_classification,
)

CRITERION_1_RUNTIME_LIMIT = 60.0


@pytest.fixture(scope="module")
def randomized_results():
    start = time.perf_counter()
    crit1, crit9 = run_randomized_classification(
        n_values=(4, 5, 6, 7, 8), samples=1000, seed=20240
    )
    elapsed = time.perf_counter() - start
    return crit1, crit9, elapsed


def _report(result: CheckResult):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_six_class_classification(randomized_results):
    crit1, _, elapsed = randomized_results
    _report(crit1)
    assert elapsed < CRITERION_1_RUNTIME_LIMIT, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_signature_table():
    _report(check_signature_table(tuple(range(4, 11))))


def test_criterion_3_curvature_tables():
    _report(check_curvature_oracle())


def test_criterion_4_flat_einstein_soliton():
    _report(check_flat_einstein_soliton())


def test_criterion_5_ricci_spectra():
    _report(check_ricci_spectra())


def test_criterion_6_codimension_table():
    _report(check_codimension_table(tuple(range(4, 11))))


def test_criterion_7_degeneration_diagram():
    _report(check_degeneration_graph((4, 5, 6)))


def test_criterion_8_ivt_equations():
    _report(check_ivt_roots())


@pytest.mark.parametrize("seed", [21, 25, 45])
def test_criterion_8_passes_at_seeds_that_reach_the_branch_point(monkeypatch, seed):
    # these seeds draw t close enough to 0 that a residual of the root equation itself,
    # ill-conditioned at its branch point s = 5/3, grows past any fixed absolute bound
    monkeypatch.setattr(verification, "_IVT_SEED", seed)
    _report(check_ivt_roots())


def _phi_of_t_plus_3(t):
    key, s, phi = lambda2_closed_form(t)
    return key, s, phi if key == "0" else phi * (t + 3) / (t + 2)


def _phi_negated_below_sqrt3(t):
    key, s, phi = lambda2_closed_form(t)
    return key, s, -phi if key == "0" else phi


def _key_2_just_below_sqrt3(t):
    key, s, phi = lambda2_closed_form(t)
    return "2" if 0 < math.sqrt(3) - t < 1e-6 else key, s, phi


@pytest.mark.parametrize(
    "mutant",
    [_phi_of_t_plus_3, _phi_negated_below_sqrt3, _key_2_just_below_sqrt3],
    ids=lambda mutant: mutant.__name__.lstrip("_"),
)
def test_criterion_8_fails_on_a_wrong_root(monkeypatch, mutant):
    monkeypatch.setattr(verification, "lambda2_closed_form", mutant)
    assert check_ivt_roots().passed is False


def test_criterion_9_witness_soundness(randomized_results):
    _, crit9, _ = randomized_results
    _report(crit9)
