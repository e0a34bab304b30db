"""Gram matrices, signatures, the group action and canonical representatives."""

import copy
import json
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

from heislor._linalg import congruence_diagonal, exact_array, exact_eye, minkowski_gram, to_float
from heislor.cli import canonical_json
from heislor.errors import DimensionTooSmall
from heislor.metrics import (
    APPROX,
    CANONICAL_PAIRS,
    EXACT,
    AsymmetricInput,
    Metric,
    NotARepresentative,
    SingularMatrix,
    WrongSignature,
    _factor_metric,
    act,
    canonical_gram,
    canonical_metric,
    canonical_pair,
    factor_metric,
    metric_from_json,
    shear_matrix,
    signature_of,
    xi_exact,
    xi_float,
    xi_key_of,
)
from heislor.numerics import SQRT3_F, QSqrt3
from heislor.reduction import restricted_signatures

from references import metric_to_json


def test_signature_identity_block():
    for n in (4, 7):
        sig = signature_of(minkowski_gram(n))
        assert sig == (n - 1, 1, 0)
        sig_exact = signature_of(minkowski_gram(n, exact=True))
        assert sig_exact == (n - 1, 1, 0)


def test_signature_one_by_one_zero():
    assert signature_of(np.array([[0.0]])) == (0, 0, 1)
    assert signature_of(exact_array([[0]])) == (0, 0, 1)


def _congruence_diagonal_reference(a):
    """The former dense symmetric elimination; it folds a coupled row into a zero diagonal."""
    m = a.copy()
    n = m.shape[0]
    diag = []
    for k in range(n):
        if not m[k, k]:
            j = next((j for j in range(k + 1, n) if m[j, j]), None)
            if j is not None:
                m[[k, j]] = m[[j, k]]
                m[:, [k, j]] = m[:, [j, k]]
            else:
                j = next((j for j in range(k + 1, n) if m[k, j]), None)
                if j is None:
                    diag.append(QSqrt3(0))
                    continue
                m[k] = m[k] + m[j]
                m[:, k] = m[:, k] + m[:, j]
        pivot = m[k, k]
        for i in range(k + 1, n):
            if m[i, k]:
                f = m[i, k] / pivot
                m[i] = m[i] - f * m[k]
                m[:, i] = m[:, i] - f * m[:, k]
        diag.append(pivot)
    return diag


def test_sparse_congruence_signs_match_dense_reference():
    rng = np.random.default_rng(11)
    hyperbolic = exact_array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # a zero diagonal only
    cases = [hyperbolic, exact_array([[0, 0], [0, 0]])]
    for _ in range(80):
        n = int(rng.integers(1, 9))
        b = rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.4)
        c = rng.integers(-2, 3, (n, n)) * (rng.random((n, n)) < 0.3)
        sym = b + b.T
        if rng.random() < 0.5:
            np.fill_diagonal(sym, 0)  # forces the 2 x 2 block pivots
        cases.append(exact_array([[QSqrt3(int(x), int(y)) for x, y in zip(r, s)]
                                  for r, s in zip(sym, c + c.T)]))
    for a in cases:
        got = congruence_diagonal(a)
        want = _congruence_diagonal_reference(a)
        assert len(got) == len(want) == a.shape[0]
        signs = sorted(x.sign() for x in got)
        assert signs == sorted(x.sign() for x in want)
        eigs = np.linalg.eigvalsh(to_float(a))
        scale = 1e-9 * max(1.0, float(np.abs(eigs).max()))
        assert signs == sorted(int(np.sign(e)) if abs(e) > scale else 0 for e in eigs)


def test_signature_rejects_asymmetric():
    with pytest.raises(AsymmetricInput):
        signature_of(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("m, message", [
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), r"gram\[0\]\[0\] = nan is not a finite number"),
    (np.array([[1.0, 0.0], [0.0, -np.inf]]), r"gram\[1\]\[1\] = -inf is not a finite number"),
    (np.zeros(3), r"gram must be a square matrix"),
    (np.zeros((2, 3)), r"gram must be a square matrix"),
], ids=["nan", "-inf", "1-d", "2x3"])
def test_signature_refuses_a_matrix_it_cannot_read(m, message):
    # a NaN compares false with every band, so it would count as a zero eigenvalue
    with pytest.raises(ValueError, match=f"^{message}$"):
        signature_of(m)


def _restrict(metric, b):
    """Gram matrix B^T gram B of the metric restricted to the span of B's columns."""
    return b.T @ metric.gram @ b


def test_derived_restriction_of_flat_class_is_null():
    metric, _ = canonical_metric(1, "0", 5)
    basis = exact_array([[0], [0], [0], [0], [1]])
    block = _restrict(metric, basis)
    assert signature_of(block) == (0, 0, 1)
    assert restricted_signatures(metric)[1] == (0, 0, 1)


def test_act_identity_and_isotropy():
    metric = Metric(gram=minkowski_gram(4), backend=APPROX)
    assert np.allclose(act(np.eye(4), metric).gram, metric.gram)
    # pseudo-orthogonal elements fix the canonical form
    theta = 0.37
    k = np.eye(4)
    k[0, 0] = k[3, 3] = np.cosh(theta)
    k[0, 3] = k[3, 0] = np.sinh(theta)
    assert np.allclose(act(k, metric).gram, metric.gram, atol=1e-12)


@pytest.mark.parametrize("backend", [APPROX, EXACT])
def test_act_refuses_a_singular_change_of_basis(backend):
    metric, _ = canonical_metric(0, 0, 4, backend)
    g = np.diag([1, 0, 1, 1])
    g = exact_array(g) if backend == EXACT else g.astype(float)
    with pytest.raises(SingularMatrix, match="change of basis is singular"):
        act(g, metric)


@pytest.mark.parametrize("g_backend, metric_backend", [(APPROX, EXACT), (EXACT, APPROX)])
def test_act_refuses_a_change_of_basis_of_the_other_backend(g_backend, metric_backend):
    metric, _ = canonical_metric(2, "0", 5, metric_backend)
    g = exact_eye(5) if g_backend == EXACT else np.eye(5)
    want = f"^g is 5x5 {g_backend}, the metric 5x5 {metric_backend}$"
    with pytest.raises(ValueError, match=want):
        act(g, metric)


@pytest.mark.parametrize("backend", [APPROX, EXACT])
def test_act_refuses_a_change_of_basis_of_another_size(backend):
    metric, _ = canonical_metric(2, "0", 5, backend)
    with pytest.raises(ValueError, match=f"^g is 4x4 {backend}, the metric 5x5 {backend}$"):
        act(minkowski_gram(4, exact=backend == EXACT), metric)


def test_act_matches_direct_multiplication_oracle():
    # oracle: plain g^-T I g^-1 for the (1, 0) shear at n = 4
    g = shear_matrix(1.0, 0.0, 4, exact=False)
    ginv = np.linalg.inv(g)
    expected = ginv.T @ minkowski_gram(4) @ ginv
    got = act(g, Metric(gram=minkowski_gram(4), backend=APPROX)).gram
    assert np.allclose(got, expected)
    assert np.allclose(
        got,
        np.array(
            [
                [1.0, 0, 0, -1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [-1, 0, 0, 0],
            ]
        ),
    )


def test_act_group_action_law():
    rng = np.random.default_rng(4)
    metric = Metric(gram=minkowski_gram(5), backend=APPROX)
    for _ in range(10):
        g1 = rng.uniform(-1, 1, (5, 5)) + 2 * np.eye(5)
        g2 = rng.uniform(-1, 1, (5, 5)) + 2 * np.eye(5)
        lhs = act(g1 @ g2, metric).gram
        rhs = act(g1, act(g2, metric)).gram
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_signature_invariant_under_action():
    rng = np.random.default_rng(5)
    for pair in CANONICAL_PAIRS:
        metric, _ = canonical_metric(pair[0], pair[1], 5, backend=APPROX)
        for _ in range(5):
            g = rng.uniform(-1, 1, (5, 5)) + 2 * np.eye(5)
            assert signature_of(act(g, metric).gram) == signature_of(metric.gram)


def test_restrict_center_direction_formula():
    """<y, y> = (xi^2+1)(lam^2-xi^2-1) for y = lam(x1 + xi x_(n-1)) - (xi^2+1) x_n."""
    n = 5
    for lam_i, key in CANONICAL_PAIRS:
        metric, shear = canonical_metric(lam_i, key, n)
        lam = QSqrt3(lam_i)
        xi = xi_exact(key)
        coeffs = np.empty(n, dtype=object)
        coeffs[:] = [QSqrt3(0)] * n
        coeffs[0] = lam
        coeffs[n - 2] = lam * xi
        coeffs[n - 1] = -(xi * xi + 1)
        y = shear @ coeffs  # frame vector in standard coordinates
        block = _restrict(metric, y.reshape(n, 1))
        expected = (xi * xi + 1) * (lam * lam - xi * xi - 1)
        assert block[0, 0] == expected


def test_restrict_derived_ideal_formula():
    """Restriction to the derived ideal is the 1x1 matrix [lam^2 - 1]."""
    e_n = exact_array([[0]] * 5 + [[1]])
    for lam_i, key in CANONICAL_PAIRS:
        metric, _ = canonical_metric(lam_i, key, 6)
        block = _restrict(metric, e_n)
        assert block[0, 0] == QSqrt3(lam_i * lam_i - 1)
        assert restricted_signatures(metric)[1] == signature_of(block)


def test_restrict_full_space_is_gram():
    metric, _ = canonical_metric(2, "2", 4, backend=APPROX)
    assert np.allclose(_restrict(metric, np.eye(4)), metric.gram)
    # restricted_signatures reads the center and the derived ideal as the
    # restrictions to their coordinate bases
    center, derived = np.eye(4)[:, 2:], np.eye(4)[:, 3:]
    want = (signature_of(_restrict(metric, center)), signature_of(_restrict(metric, derived)))
    assert restricted_signatures(metric) == want


def test_lambda_is_read_as_a_whole_number():
    # a whole float lam names its pair; any other lam is no representative
    exact, _ = canonical_metric(2.0, "sqrt3", 5)
    assert canonical_json(metric_to_json(exact)) == canonical_json(
        metric_to_json(canonical_metric(2, "sqrt3", 5)[0]))
    for lam, key in ((2.5, "2"), (1.9, "0"), (0.5, "0")):
        with pytest.raises(NotARepresentative):
            canonical_metric(lam, key, 5)
        with pytest.raises(NotARepresentative):
            canonical_metric(lam, key, 5, backend=APPROX)


def test_exact_lambda_is_read_as_its_whole_rational():
    # a QSqrt3 lam that is a whole rational names its pair, on both backends
    for backend in (EXACT, APPROX):
        metric, shear = canonical_metric(QSqrt3(1), "0", 5, backend)
        reference, reference_shear = canonical_metric(1, "0", 5, backend)
        assert canonical_json(metric_to_json(metric)) == canonical_json(metric_to_json(reference))
        assert np.array_equal(shear, reference_shear)
    pair = canonical_pair(QSqrt3(2), "sqrt3")
    assert pair == (2, "sqrt3") and type(pair[0]) is int
    for lam in (QSqrt3(1, 1), QSqrt3(Fraction(1, 2)), QSqrt3(0, 1), QSqrt3(3)):
        with pytest.raises(NotARepresentative):
            canonical_metric(lam, "0", 5)


@pytest.mark.parametrize("lam, xi, message", [
    (2, 3, "xi value 3 is not one of 0, 1, sqrt3, 2"),
    (2.5, "2", "(2.5, 2) is not a canonical pair"),
    (2, "1", "(2, 1) is not a canonical pair"),
    (QSqrt3(1, 1), "0", "(1+sqrt3, 0) is not a canonical pair"),
], ids=["bad-xi", "lam-not-whole", "not-canonical", "exact-lam"])
def test_canonical_pair_names_what_it_refuses(lam, xi, message):
    with pytest.raises(NotARepresentative, match=f"^{re.escape(message)}$"):
        canonical_pair(lam, xi)


def test_float_xi_matches_a_key_within_1e_12():
    # the match band, pinned by value: 5e-13 off a representative reads as it, 2e-12 off
    # reads as no representative
    for offset in (-5e-13, 5e-13):
        assert xi_key_of(SQRT3_F + offset) == "sqrt3"
    for value in (SQRT3_F + 2e-12, 2 + 2e-12):
        with pytest.raises(NotARepresentative):
            xi_key_of(value)


def test_canonical_metric_identity_pair():
    metric, shear = canonical_metric(0, 0, 5)
    assert np.array_equal(to_float(metric.gram), minkowski_gram(5))
    assert np.array_equal(to_float(shear), np.eye(5))


def test_canonical_metric_rejects_non_representative():
    with pytest.raises(NotARepresentative):
        canonical_metric(3, 3, 4)
    with pytest.raises(NotARepresentative):
        canonical_metric(0, 1, 4)


def test_canonical_metric_refuses_an_unknown_backend():
    # an unknown backend once fell through to an approx metric
    with pytest.raises(ValueError, match="unknown backend 'nope'"):
        canonical_metric(2, "sqrt3", 5, backend="nope")


def test_canonical_frame_entries():
    # the (2, sqrt3) frame sends e_(n-1) to sqrt3 e_1 + e_(n-1)
    for n in (4, 6):
        _, shear = canonical_metric(2, "sqrt3", n)
        col = shear[:, n - 2]
        assert col[0] == QSqrt3(0, 1)
        assert col[n - 2] == QSqrt3(1)


@pytest.mark.parametrize("n", range(4, 11))
def test_canonical_frames_pseudo_orthonormal_exact(n):
    ipq = minkowski_gram(n, exact=True)
    for pair in CANONICAL_PAIRS:
        metric, shear = canonical_metric(pair[0], pair[1], n)
        check = shear.T @ metric.gram @ shear
        assert all(
            check[i, j] == ipq[i, j] for i in range(n) for j in range(n)
        )


@pytest.mark.parametrize("n", (4, 7))
def test_float_canonical_gram_broadcasts(n):
    # a stack built at once is bit for bit the grams built one at a time
    lam = np.array([[0.0, 1.0, 2.0], [2.0, 1.5, -0.25]])
    xi = np.array([0.0, 1e-4, 1.7320508075688772])
    stack = canonical_gram(lam, xi, n, exact=False)
    assert stack.shape == (2, 3, n, n)
    for i, j in np.ndindex(2, 3):
        single = canonical_gram(float(lam[i, j]), float(xi[j]), n, exact=False)
        assert single.shape == (n, n)
        assert np.array_equal(stack[i, j], single)


def test_factor_metric_round_trip():
    rng = np.random.default_rng(6)
    for pair in CANONICAL_PAIRS:
        base = canonical_gram(pair[0], xi_float(pair[1]), 5, exact=False)
        g = rng.uniform(-1, 1, (5, 5)) + 2 * np.eye(5)
        metric = act(g, Metric(gram=base, backend=APPROX))
        m = factor_metric(metric)
        minv = np.linalg.inv(m)
        assert np.max(np.abs(minv.T @ minkowski_gram(5) @ minv - metric.gram)) < 1e-9


def _factor_metric_argsort_reference(metric):
    """_factor_metric's (m, (m^-1)^T, 2^-e) with the eigenpairs put in the order
    argsort(-eigvals), positives first, by fancy-index copies."""
    eigvals, q = np.linalg.eigh(to_float(metric.gram))
    order = np.argsort(-eigvals)
    eigvals, q = eigvals[order], q[:, order]
    log_det = sum(math.log(abs(v)) for v in eigvals.tolist() if v)
    prescale = math.ldexp(1.0, -round(log_det / (len(eigvals) * math.log(4.0))))
    size = np.abs(eigvals)
    return q * size**-0.5, q * np.sqrt(size), prescale


@pytest.mark.parametrize("n", range(4, 9))
def test_factor_metric_matches_argsort_reference_off_ties(n):
    # orbit samples at several scales have no two equal eigenvalues, so the reversed
    # eigh order is the argsort order and the factors agree bit for bit
    rng = np.random.default_rng(60 + n)
    for pair in CANONICAL_PAIRS:
        base = canonical_gram(pair[0], xi_float(pair[1]), n, exact=False)
        g = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        for scale in (1.0, 1e-3, 7e5):
            metric = act(g, Metric(gram=scale * base, backend=APPROX))
            eigvals = np.linalg.eigvalsh(metric.gram)
            assert np.all(np.diff(eigvals) > 0)
            got, want = _factor_metric(metric), _factor_metric_argsort_reference(metric)
            assert got[2] == want[2]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", range(4, 9))
def test_factor_metric_on_tied_eigenvalues_puts_the_timelike_direction_last(n):
    # canonical grams repeat eigenvalues (minkowski is 1, ..., 1, -1), where the order of
    # equal ones may differ from the reference's; m must still factor M with the
    # timelike column last: m^T M m = diag(1, ..., 1, -1)
    for pair in CANONICAL_PAIRS:
        metric = Metric(gram=canonical_gram(pair[0], xi_float(pair[1]), n, exact=False))
        m, start, prescale = _factor_metric(metric)
        assert prescale == 1.0
        assert np.max(np.abs(m.T @ metric.gram @ m - minkowski_gram(n))) < 1e-12
        assert np.max(np.abs(np.linalg.inv(m).T - start)) < 1e-12


def test_factor_metric_rejects_definite():
    with pytest.raises(WrongSignature):
        factor_metric(Metric(gram=np.eye(4), backend=APPROX))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_metric_rejects_a_non_finite_float_entry(value):
    gram = canonical_gram(2, 2, 5, exact=False)
    gram[1, 1] = value
    with pytest.raises(ValueError, match=rf"^gram\[1\]\[1\] = {value!r} is not a finite number$"):
        Metric(gram=gram, backend=APPROX)


@pytest.mark.parametrize("backend", [APPROX, EXACT])
def test_metric_keeps_a_read_only_copy_of_its_gram(backend):
    # the caller's array stays theirs to write; the metric's, and its copies', refuse writes
    gram = canonical_gram(2, 2, 5, exact=backend == EXACT)
    metric = Metric(gram=gram, backend=backend)
    gram[0, 0] = gram[0, 0] + 1
    want = canonical_gram(2, 2, 5, exact=backend == EXACT)
    for twin in (metric, copy.copy(metric), pickle.loads(pickle.dumps(metric))):
        assert twin.backend == backend and not twin.gram.flags.writeable
        assert np.array_equal(twin.gram, want)
        with pytest.raises(ValueError, match="read-only"):
            twin.gram[0, 1] = twin.gram[1, 0]


@pytest.mark.parametrize("backend", [APPROX, EXACT])
def test_metric_reads_a_nested_list_as_an_array(backend):
    metric, _ = canonical_metric(2, "sqrt3", 5, backend)
    again = Metric(gram=metric.gram.tolist(), backend=backend)
    assert again.gram.dtype == metric.gram.dtype and np.array_equal(again.gram, metric.gram)


@pytest.mark.parametrize(
    "gram",
    [[1.0, 1.0, 1.0, -1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1.0, np.zeros((4, 4, 4))],
    ids=["1-d", "2x3", "scalar", "3-d"],
)
def test_metric_refuses_a_gram_that_is_not_square(gram):
    with pytest.raises(ValueError, match="^gram must be a square matrix$"):
        Metric(gram=gram)


def test_metric_refuses_n_below_four():
    for n in (0, 3):
        with pytest.raises(DimensionTooSmall, match=f"^need n >= 4, got {n}$"):
            Metric(gram=minkowski_gram(n) if n else np.zeros((0, 0)))
    # symmetry is checked first, so an asymmetric 3x3 gram reports its asymmetry
    with pytest.raises(AsymmetricInput):
        Metric(gram=np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]))


def test_metric_json_round_trip_exact():
    metric, _ = canonical_metric(2, "sqrt3", 4)
    blob = canonical_json(metric_to_json(metric))
    again = metric_from_json(json.loads(blob))
    assert canonical_json(metric_to_json(again)) == blob
    assert again.backend == EXACT
    assert again.gram[0, 2] == -QSqrt3(0, 1)


def test_metric_json_round_trip_approx():
    metric, _ = canonical_metric(1, "1", 5, backend=APPROX)
    blob = canonical_json(metric_to_json(metric))
    again = metric_from_json(json.loads(blob))
    assert canonical_json(metric_to_json(again)) == blob


@pytest.mark.parametrize("backend", [EXACT, APPROX])
@pytest.mark.parametrize("i, j, value", [(0, 0, True), (0, 1, False)])
def test_metric_json_refuses_booleans(backend, i, j, value):
    # float() reads true as 1.0 and str() gives "True": both backends refuse alike
    payload = metric_to_json(canonical_metric(0, "0", 4, backend=backend)[0])
    payload["gram"][i][j] = value
    with pytest.raises(ValueError, match=re.escape(f"gram[{i}][{j}] = {value} is not a number")):
        metric_from_json(payload)


def test_metric_json_shape_validation():
    payload = metric_to_json(canonical_metric(0, "0", 4, backend=APPROX)[0])
    payload["n"] = 5
    with pytest.raises(ValueError):
        metric_from_json(payload)
