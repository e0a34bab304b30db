"""Stabilizer dimensions, codimensions, curves and the degeneration graph."""

import math

import numpy as np
import pytest

from heislor import _linalg, metrics, orbits, reduction
from heislor._linalg import exact_inv, exact_zeros, minkowski_gram, rank_rows, rref_rows
from heislor.curvature import (
    closed_form_ricci,
    closed_form_riemann,
    curvature_report,
    frame_brackets,
    frame_signs,
    generic_curvature,
    ricci_spectrum,
    soliton_certificate,
)
from heislor.errors import DimensionNotInteger
from heislor.liealg import DimensionTooSmall, aut_pattern, derivation_space_dim
from heislor.metrics import (
    CANONICAL_PAIRS,
    Metric,
    NotARepresentative,
    canonical_gram,
    canonical_metric,
    shear_matrix,
    xi_exact,
)
from heislor.numerics import QSqrt3
from heislor.orbits import (
    CURVE_FAMILIES,
    OracleMismatch,
    acting_group_dim,
    codimension,
    degeneration_graph,
    dims_UW,
    is_closed,
    moduli_dim,
    orbit_report,
    stabilizer_dim,
)
from heislor.reduction import (
    classify,
    classify_by_invariants,
    classify_by_invariants_flagged,
    reduce_lambda0,
    reduce_lambda1,
    reduce_lambda2,
    reduce_last_row,
    reduce_to_t,
    representative_matrix,
    restricted_signatures,
    signature_table,
)
from heislor.verification import codimension_table

from references import curve_sample, stabilizer_system


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


@pytest.mark.parametrize("n", range(4, 11))
def test_stabilizer_system_equals_dense_formula(n):
    mask = aut_pattern(n).mask
    positions = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
    upper = [(r, s) for r in range(n) for s in range(r, n)]
    for lam, key in CANONICAL_PAIRS:
        # G = g^-T J g^-1, with g^-1 from the exact rref
        ginv = exact_inv(shear_matrix(QSqrt3(lam), xi_exact(key), n, exact=True))
        gram = ginv.T @ minkowski_gram(n, exact=True) @ ginv
        # one sparse column {row: value} per position; an absent row reads zero
        system = stabilizer_system(lam, key, n)
        assert list(system) == positions
        for (i, j), col in system.items():
            assert set(col) <= set(range(len(upper)))
            e = exact_zeros((n, n))
            e[i, j] = QSqrt3(1)
            dense = e.T @ gram + gram @ e
            for row, (r, s) in enumerate(upper):
                assert col.get(row, 0) == dense[r, s]


@pytest.mark.parametrize("n", range(4, 11))
def test_stabilizer_layout_and_corner_columns_are_the_full_system(n):
    """The oracle's input is the full system: the cached rows are those the off-corner
    columns span in every class, and the corner columns are the rest, in the basis
    E_rs + E_sr, whose diagonal element is 2 E_rr: zeros dropped and each diagonal row
    doubled, they are the upper triangles of E_ij^T G + G E_ij."""
    corner = {0, n - 2, n - 1}
    diagonal = {r * n - r * (r - 1) // 2 for r in range(n)}  # the row of {r, r}
    count, spanned, corner_positions = orbits._stabilizer_layout(n)
    assert isinstance(spanned, frozenset)
    for lam, key in CANONICAL_PAIRS:
        system = stabilizer_system(lam, key, n)
        assert count == len(system)
        assert spanned == {r for (i, _), col in system.items() if i not in corner for r in col}
        at_corner = [col for (i, _), col in system.items() if i in corner]
        assert [i for i, _ in corner_positions] == [i for i, _ in system if i in corner]
        columns = orbits._corner_columns(lam, key, n)
        assert [{r: x + x if r in diagonal else x for r, x in col if x} for col in columns] == at_corner
    # every oracle call shares the cached layout, and none changes it
    orbits._stabilizer_layout.cache_clear()
    assert orbits._stabilizer_layout(n) == (count, spanned, corner_positions)


@pytest.mark.parametrize("n", range(4, 11))
def test_stabilizer_columns_off_the_corner_have_one_entry(n):
    """The stabilizer step of the n-independence argument.  The gram's sparse rows put
    every off-diagonal entry on the rows and columns {0, n-2, n-1}, so the column of a
    position (i, j) with i off that corner is 2 E_jj or E_ij + E_ji: one entry."""
    corner = {0, n - 2, n - 1}
    for lam, key in CANONICAL_PAIRS:
        rows = metrics._gram_rows(QSqrt3(lam), xi_exact(key), n, QSqrt3(1))
        assert set(rows) == {(i,) for i in corner}
        off_diagonal = {(i, j) for (i,), row in rows.items() for j, x in row.items() if x and i != j}
        assert {j for _, j in off_diagonal} <= corner
        # the dense gram is those rows over the Minkowski base, with nothing else off the diagonal
        gram = canonical_gram(lam, xi_exact(key), n)
        assert {(i, j) for (i, j), x in np.ndenumerate(gram) if x and i != j} == off_diagonal
        system = stabilizer_system(lam, key, n)
        off_corner = [col for (i, _), col in system.items() if i not in corner]
        assert len(off_corner) == (n - 2) * (n - 3)  # 56 of the 77 positions at n = 10
        assert all(len(col) == 1 for col in off_corner)


#: per class, the columns of the stabilizer system with more than one entry, and their rank
#: once the rows of the one-entry columns are dropped, at n
_RESIDUAL = {
    (0, "0"): lambda n: (0, 0),
    (1, "0"): lambda n: (2, 1),
    (1, "1"): lambda n: (2 * n + 1, n + 3),
    (2, "0"): lambda n: (n + 2, n + 1),
    (2, "sqrt3"): lambda n: (2 * n + 1, n + 3),
    (2, "2"): lambda n: (2 * n + 1, n + 4),
}


@pytest.mark.parametrize("n", range(4, 11))
def test_stabilizer_residual_table(n):
    # what is left of the rank once the one-entry columns are counted, for the n-independence argument
    for pair in CANONICAL_PAIRS:
        system = stabilizer_system(*pair, n)
        singles = {r for col in system.values() if len(col) == 1 for r in col}
        longer = [col for col in system.values() if len(col) > 1]
        rest = rref_rows([(r, x) for r, x in col.items() if r not in singles] for col in longer)
        assert (len(longer), len(rest)) == _RESIDUAL[pair](n)
        assert orbits._stabilizer_rank_oracle(*pair, n) == len(system) - len(singles) - len(rest)


@pytest.mark.parametrize("n", range(4, 11))
def test_stabilizer_rank_equals_full_elimination(n):
    # rref_rows eliminates every column, so it does not use rank_rows' one-entry rule
    for lam, key in CANONICAL_PAIRS:
        system = stabilizer_system(lam, key, n).values()
        rank = len(rref_rows(col.items() for col in system))
        assert rank_rows(col.items() for col in system) == rank
        assert orbits._stabilizer_rank_oracle(lam, key, n) == len(system) - rank


def test_stabilizer_system_forms_no_inverse(count_calls):
    # the oracle reads the canonical gram, whose closed form needs no inverse of the shear
    calls = count_calls(_linalg, "exact_inv")
    for n in range(4, 11):
        for lam, key in CANONICAL_PAIRS:
            orbits._stabilizer_rank_oracle(lam, key, n)
    assert calls == []


def test_stabilizer_oracle_catches_planted_disagreement(monkeypatch):
    real_dims = orbits.dims_UW

    def planted(lam, xi, n):
        dim_u, dim_w = real_dims(lam, xi, n)
        return dim_u + 1, dim_w

    orbits._stabilizer_dim_cached.cache_clear()
    monkeypatch.setattr(orbits, "dims_UW", planted)
    try:
        with pytest.raises(OracleMismatch):
            stabilizer_dim(1, "0", 5)
    finally:
        orbits._stabilizer_dim_cached.cache_clear()


@pytest.mark.parametrize("n", [*range(4, 11), 12, 16, 24])
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
    with pytest.raises(KeyError):
        curve_sample("Z", 0.5, 4)


def test_curve_points_lie_inside_their_intervals():
    """Every source-class point the graph classifies lies strictly inside its family's
    (lo, hi), and every target point is the family's limit, one end of that interval."""
    points = orbits._curve_points()
    assert len(points) == len(CURVE_FAMILIES) * (orbits.CURVE_SAMPLES + 2)
    for name, fam in CURVE_FAMILIES.items():
        assert fam.limit in (fam.lo, fam.hi), name
        mine = [(t, expected) for f, t, expected in points if f is fam]
        inside = [t for t, expected in mine if expected == fam.source]
        assert len(inside) == orbits.CURVE_SAMPLES + 1, name
        assert all(fam.lo < t < fam.hi for t in inside), name
        assert [p for p in mine if p[1] != fam.source] == [(fam.limit, fam.target)], name


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


@pytest.mark.parametrize("n", range(4, 11))
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
    # the graph reads its points as one stack; each expected class is the one-gram reading
    for fam, t, expected in orbits._curve_points():
        metric = curve_sample(fam.name, t, n)
        assert classify_by_invariants_flagged(metric)[0].pair == expected, (fam.name, t)


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


def test_is_closed_unique_flat_orbit():
    assert is_closed(1, "0", 5)
    assert not is_closed(0, "0", 5)
    assert not is_closed(2, "2", 5)
    for pair in CANONICAL_PAIRS:
        assert is_closed(pair[0], pair[1], 4) == (pair == (1, "0"))


def test_is_closed_checks_flatness_at_its_own_n(monkeypatch):
    seen = []
    real = orbits.closed_form_riemann

    def recording(lam, xi, n):
        seen.append(n)
        return real(lam, xi, n)

    monkeypatch.setattr(orbits, "closed_form_riemann", recording)
    assert is_closed(1, "0", 6)
    assert seen == [6]


def test_orbit_report_contents():
    report = orbit_report(2, "sqrt3", 6)
    assert report.codim == 1
    assert report.stab_dim == 1 + 1 + (1 + 2)  # 1 + (n-4)(n-5)/2 + dimU + dimW
    assert report.sig_center == (3, 0, 1)
    assert report.sig_derived == (1, 0, 0)
    assert not report.closed
    blob = report.to_json()
    assert blob["xi"] == "sqrt3" and blob["codimension"] == 1


def test_orbit_report_rejects_non_representative():
    with pytest.raises(NotARepresentative):
        orbit_report(0, "2", 4)


def test_exact_lambda_reads_as_its_whole_rational_in_the_orbit_and_curvature_tables():
    # a QSqrt3 lam that is a whole rational gives what its int gives; any other is refused
    tables = (
        dims_UW,
        stabilizer_dim,
        codimension,
        is_closed,
        orbit_report,
        lambda lam, xi, n: curvature_report(lam, xi, n).to_json(),
    )
    for (lam, key), n in ((pair, n) for pair in CANONICAL_PAIRS for n in (4, 5)):
        for table in tables:
            assert table(QSqrt3(lam), key, n) == table(lam, key, n)
    for table in tables:
        with pytest.raises(NotARepresentative):
            table(QSqrt3(1, 1), "0", 5)


_NON_FINITE = (math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan))


@pytest.mark.parametrize("lam", _NON_FINITE, ids=["inf", "-inf", "nan", "np-inf", "np-nan"])
def test_non_finite_lambda_is_no_representative(lam):
    # int() raises on an infinite or NaN lam, so it must be refused before it is read
    tables = (
        lambda lam, xi, n: metrics.canonical_metric(lam, xi, n),
        lambda lam, xi, n: metrics.canonical_metric(lam, xi, n, metrics.APPROX),
        lambda lam, xi, n: metrics.canonical_pair(lam, xi),
        curvature_report,
        codimension,
        stabilizer_dim,
        dims_UW,
        orbit_report,
        is_closed,
    )
    for table in tables:
        with pytest.raises(NotARepresentative):
            table(lam, "0", 5)


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


#: every exported function that takes n, or an n x n gram or stage input, at n = 3
_AT_N3 = {
    "dims_UW": lambda: dims_UW(1, "0", 3),
    "stabilizer_dim": lambda: stabilizer_dim(1, "0", 3),
    "codimension": lambda: codimension(1, "0", 3),
    "orbit_report": lambda: orbit_report(1, "0", 3),
    "degeneration_graph": lambda: degeneration_graph(3),
    "is_closed": lambda: is_closed(1, "0", 3),
    "derivation_space_dim": lambda: derivation_space_dim(3),
    "canonical_gram": lambda: canonical_gram(2, 2, 3),
    "shear_matrix": lambda: shear_matrix(2, 2, 3),
    "canonical_metric": lambda: canonical_metric(2, 2, 3),
    "frame_brackets": lambda: frame_brackets(2, 2, 3),
    "generic_curvature": lambda: generic_curvature(2, 2, 3),
    "closed_form_ricci": lambda: closed_form_ricci(2, 2, 3),
    "closed_form_riemann": lambda: closed_form_riemann(2, 2, 3),
    "soliton_certificate": lambda: soliton_certificate(2, 2, 3),
    "ricci_spectrum": lambda: ricci_spectrum(2, 2, 3),
    "curvature_report": lambda: curvature_report(2, 2, 3),
    "restricted_signatures": lambda: restricted_signatures(Metric(np.diag([1.0, 1.0, -1.0]))),
    "signature_table": lambda: signature_table(3),
    "aut_pattern": lambda: aut_pattern(3),
    "moduli_dim": lambda: moduli_dim(3),
    "acting_group_dim": lambda: acting_group_dim(3),
    "reduce_last_row": lambda: reduce_last_row(np.eye(3)),
    "reduce_lambda0": lambda: reduce_lambda0(np.eye(3)),
    "reduce_to_t": lambda: reduce_to_t(np.eye(3) - np.eye(3, k=-2), 1),
    "reduce_lambda1": lambda: reduce_lambda1(0.3, 3),
    "reduce_lambda2": lambda: reduce_lambda2(0.3, 3),
}


@pytest.mark.parametrize("call", _AT_N3.values(), ids=_AT_N3.keys())
def test_orbit_functions_refuse_n_below_four(call):
    with pytest.raises(DimensionTooSmall, match="need n >= 4, got 3"):
        call()


#: entry points that take n, each as a comparable value; a float n once reached numpy, or
#: gave signature_table's counts, moduli_dim and acting_group_dim as floats
_AT_N = {
    "curvature_report": lambda n: curvature_report(2, "0", n).to_json(),
    "codimension": lambda n: codimension(2, "0", n),
    "generic_curvature": lambda n: generic_curvature(2, 0, n)[-1].tolist(),
    "degeneration_graph": lambda n: degeneration_graph(n).to_json(),
    "derivation_space_dim": derivation_space_dim,
    "signature_table": lambda n: dict(signature_table(n)),
    "aut_pattern": lambda n: aut_pattern(n).mask.tolist(),
    "moduli_dim": moduli_dim,
    "acting_group_dim": acting_group_dim,
}


@pytest.mark.parametrize("call", _AT_N.values(), ids=_AT_N.keys())
def test_entry_points_refuse_a_float_n_and_take_a_numpy_integer(call):
    from heislor.cli import EXIT_BAD_INPUT, EXIT_CODES

    want = call(5)
    for n in (np.int64(5), np.int32(5)):  # an untyped cache would hand their entries to 5.0
        assert call(n) == want
    with pytest.raises(DimensionNotInteger, match=r"^n must be an integer, got 5\.0$") as caught:
        call(5.0)
    assert isinstance(caught.value, TypeError)
    assert next(code for kind, code in EXIT_CODES.items() if isinstance(caught.value, kind)) == (
        EXIT_BAD_INPUT)


#: helpers that once took a float n, a wrong class or n = 3 to numpy's TypeError or to a
#: wrong value: frame_signs' list product, codimension_table's n - 2 = 3.0, or an n = 3 or a
#: non-canonical reduction target
_BAD_CALLS = {
    "frame_signs float n": (lambda: frame_signs(5.0), DimensionNotInteger),
    "codimension_table float n": (lambda: codimension_table(5.0), DimensionNotInteger),
    "representative_matrix float n": (lambda: representative_matrix(2, "2", 5.0), DimensionNotInteger),
    "representative_matrix class": (lambda: representative_matrix(7, "2", 5), NotARepresentative),
    "representative_matrix n = 3": (lambda: representative_matrix(2, "2", 3), DimensionTooSmall),
}


@pytest.mark.parametrize("call, error", _BAD_CALLS.values(), ids=_BAD_CALLS.keys())
def test_helpers_refuse_a_float_n_a_wrong_class_and_n_below_four(call, error):
    representative_matrix(2, "2", 5)  # a cached int n = 5 entry, which 5.0 must not read
    with pytest.raises(error):
        call()


def test_invariant_reads_are_stacked(count_calls, monkeypatch):
    """A cold graph reads all its curve grams with one eigvalsh on a 3-D stack, and
    a float classify reads its one gram with one eigvalsh: no per-gram loop.  The
    invariant classifier decomposes the whole gram once, and the graph reads its
    signature obstructions from the checked table, with no exact congruence."""
    calls = count_calls(_linalg, "eigvalsh")
    for module in (metrics, reduction):  # they bound the _linalg kernel at import
        monkeypatch.setattr(module, "eigvalsh", _linalg.eigvalsh)
    degeneration_graph.cache_clear()
    try:
        degeneration_graph(5)
    finally:
        degeneration_graph.cache_clear()
    assert [np.shape(a) for a, *_ in calls] == [(72, 3, 3)]
    calls.clear()
    classify(curve_sample("D", 1.5, 5))
    assert len(calls) == 1
    calls.clear()
    classify_by_invariants(curve_sample("D", 1.5, 5))
    assert [np.shape(a) for a, *_ in calls] == [(5, 5), (1, 3, 3)]

    def refuse(*args):
        raise AssertionError("the degeneration graph ran an exact congruence")

    monkeypatch.setattr("heislor.metrics.congruence_diagonal", refuse)
    for n in (4, 5, 6):
        degeneration_graph.__wrapped__(n)


@pytest.fixture
def graph_builds(monkeypatch):
    """The n of every degeneration graph built from here on, starting from an empty cache."""
    builds = []
    real = orbits.DegenerationGraph

    def counted(**fields):
        builds.append(fields["n"])
        return real(**fields)

    monkeypatch.setattr(orbits, "DegenerationGraph", counted)
    orbits.degeneration_graph.cache_clear()
    yield builds
    orbits.degeneration_graph.cache_clear()


def test_orbits_command_builds_one_graph(graph_builds):
    from heislor.cli import EXIT_OK, main

    assert main(["orbits", "--n", "5", "--format", "json"]) == EXIT_OK
    assert graph_builds == [5]


def test_degeneration_check_builds_one_graph_per_n(graph_builds):
    from heislor.verification import check_degeneration_graph

    assert check_degeneration_graph((4, 5, 6)).passed
    assert graph_builds == [4, 5, 6]


def test_shared_graph_is_read_only():
    import dataclasses

    graph = degeneration_graph(4)
    assert graph is degeneration_graph(4)
    with pytest.raises(TypeError):
        graph.edges[((1, "0"), (0, "0"))] = "curve:Z"
    with pytest.raises(TypeError):
        graph.codimensions[(1, "0")] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.nodes = ()
    assert isinstance(graph.nodes, tuple)
    assert ((1, "0"), (0, "0")) not in graph.edges
