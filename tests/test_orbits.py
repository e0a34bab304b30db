"""Stabilizer dimensions, codimensions, curves and the degeneration graph."""

import math

import numpy as np
import pytest

from heislor.metrics import CANONICAL_PAIRS, NotARepresentative, canonical_gram
from heislor.orbits import (
    CURVE_FAMILIES,
    ParameterOutOfRange,
    codimension,
    curve_sample,
    degeneration_graph,
    dims_UW,
    is_closed,
    orbit_report,
    stabilizer_dim,
)
from heislor.reduction import classify_by_invariants

SQRT3 = math.sqrt(3.0)


@pytest.mark.parametrize("n", (4, 6, 9))
def test_dims_uw_examples(n):
    assert dims_UW(1, "0", n) == (2, 2 * (n - 4))
    assert dims_UW(0, "0", n) == (0, n - 4)
    assert dims_UW(2, "2", n) == (0, n - 4)  # mixing constraint c = -(3/2) a
    assert dims_UW(2, "sqrt3", n) == (1, n - 4)
    assert dims_UW(1, "1", n) == (1, n - 4)
    assert dims_UW(2, "0", n) == (0, n - 4)


def test_stabilizer_examples():
    # closed form 1 + (n-4)(n-5)/2 + dimU + dimW
    assert stabilizer_dim(0, "0", 4) == 1
    assert stabilizer_dim(1, "0", 5) == 1 + 0 + 4


@pytest.mark.parametrize("n", range(4, 9))
def test_stabilizer_closed_form_matches_rank_oracle(n):
    # stabilizer_dim raises OracleMismatch internally when the two disagree
    for pair in CANONICAL_PAIRS:
        dim_u, dim_w = dims_UW(pair[0], pair[1], n)
        assert stabilizer_dim(pair[0], pair[1], n) == 1 + (n - 4) * (n - 5) // 2 + dim_u + dim_w


@pytest.mark.parametrize("n", [*range(4, 11), 12, 16])
def test_codimension_table(n):
    expected = {
        (0, "0"): 0,
        (1, "0"): n - 2,
        (1, "1"): 1,
        (2, "0"): 0,
        (2, "sqrt3"): 1,
        (2, "2"): 0,
    }
    for pair, want in expected.items():
        assert codimension(pair[0], pair[1], n) == want


def test_codimension_specific_examples():
    assert codimension(1, "0", 6) == 4
    assert codimension(2, "sqrt3", 5) == 1
    assert codimension(2, "0", 7) == 0


def test_curve_sample_interior_classes():
    # family A at t = 1/2 stays in the generic class
    assert classify_by_invariants(curve_sample("A", 0.5, 5)).pair == (0, "0")
    # family D at s = 3/2 rides the degenerate-center wall
    assert classify_by_invariants(curve_sample("D", 1.5, 5)).pair == (2, "sqrt3")


def test_curve_sample_endpoint_is_target_metric():
    # family A's limit parameter gives exactly the (1,1) representative
    metric = curve_sample("A", 1.0 - 1e-16, 4)  # just inside
    target = canonical_gram(1.0, 1.0, 4, exact=False)
    assert np.max(np.abs(metric.gram - target)) < 1e-12


def test_curve_sample_rejects_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        curve_sample("A", 1.0, 4)  # the limit itself is outside [0, 1)
    with pytest.raises(ParameterOutOfRange):
        curve_sample("B", 0.0, 4)
    with pytest.raises(ParameterOutOfRange):
        curve_sample("F", SQRT3, 4)
    with pytest.raises(KeyError):
        curve_sample("Z", 0.5, 4)


def test_curve_families_cover_expected_edges():
    got = {(fam.source, fam.target) for fam in CURVE_FAMILIES.values()}
    assert got == {
        ((0, "0"), (1, "1")),
        ((1, "1"), (1, "0")),
        ((2, "0"), (2, "sqrt3")),
        ((2, "sqrt3"), (1, "0")),
        ((2, "2"), (1, "1")),
        ((2, "2"), (2, "sqrt3")),
    }


@pytest.mark.parametrize("n", (4, 5, 6))
def test_degeneration_graph_structure(n):
    graph = degeneration_graph(n)
    # six direct edges plus the three transitive completions
    assert len(graph.direct_edges()) == 6
    transitive = {pair for pair, tag in graph.edges.items() if tag == "transitive"}
    assert transitive == {
        ((0, "0"), (1, "0")),
        ((2, "0"), (1, "0")),
        ((2, "2"), (1, "0")),
    }
    assert graph.is_acyclic()
    # every remaining ordered pair carries an obstruction
    assert len(graph.edges) + len(graph.non_edges) == 30
    assert set(graph.non_edges.values()) <= {"dimension", "signature-jump"}


def test_degeneration_graph_specific_obstructions():
    graph = degeneration_graph(5)
    assert graph.edges[((0, "0"), (1, "1"))] == "curve:A"
    assert graph.non_edges[((0, "0"), (2, "sqrt3"))] == "signature-jump"
    assert graph.non_edges[((2, "0"), (1, "1"))] == "signature-jump"
    assert graph.non_edges[((1, "1"), (0, "0"))] == "dimension"
    assert graph.non_edges[((1, "0"), (0, "0"))] == "dimension"


def test_degeneration_edges_increase_codimension():
    graph = degeneration_graph(6)
    for src, dst in graph.edges:
        assert graph.codimensions[src] < graph.codimensions[dst]


def test_near_limit_samples_are_flagged():
    graph = degeneration_graph(4)
    for evidence in graph.evidence.values():
        flagged = [s for s in evidence.samples if "NearDegenerate" in s[2]]
        assert len(flagged) == 1


def test_is_closed_unique_flat_orbit():
    assert is_closed(1, "0", 5)
    assert not is_closed(0, "0", 5)
    assert not is_closed(2, "2", 5)
    for pair in CANONICAL_PAIRS:
        assert is_closed(pair[0], pair[1], 4) == (pair == (1, "0"))


def test_orbit_report_contents():
    report = orbit_report(2, "sqrt3", 6)
    assert report.codim == 1
    assert report.stab_dim == 1 + 1 + (1 + 2)  # 1 + (n-4)(n-5)/2 + dimU + dimW
    assert report.sig_center.as_tuple() == (3, 0, 1)
    assert report.sig_derived.as_tuple() == (1, 0, 0)
    assert not report.closed
    blob = report.to_json()
    assert blob["xi"] == "sqrt3" and blob["codimension"] == 1


def test_orbit_report_rejects_non_representative():
    with pytest.raises(NotARepresentative):
        orbit_report(0, "2", 4)


def test_graph_dot_output():
    dot = degeneration_graph(4).to_dot()
    assert dot.startswith("digraph")
    assert '"(1,1)" -> "(1,0)"' in dot
    assert "curve:B" in dot


@pytest.mark.parametrize("n", (4, 5, 7))
def test_orbit_report_invariant_identities(n):
    for lam, key in CANONICAL_PAIRS:
        r = orbit_report(lam, key, n)
        assert r.codim == r.dim_u + r.dim_w - (n - 4)
        assert r.stab_dim == 1 + (n - 4) * (n - 5) // 2 + r.dim_u + r.dim_w
        assert r.codim >= 0
        assert r.closed == ((lam, key) == (1, "0"))
