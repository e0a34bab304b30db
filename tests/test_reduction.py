"""The reduction pipeline, both classifiers, and witness verification."""

import math

import numpy as np
import pytest

from heislor._linalg import max_abs, minkowski_gram, to_float
from heislor.liealg import aut_pattern, hprime_pattern
from heislor.metrics import (
    APPROX,
    CANONICAL_PAIRS,
    Metric,
    WrongSignature,
    act,
    canonical_gram,
    canonical_metric,
    xi_float,
)
from heislor.reduction import (
    NegativeT,
    NoTableMatch,
    NotInG0,
    NotInGLambda,
    VerificationResult,
    ZeroVector,
    classify,
    classify_by_invariants,
    classify_by_invariants_flagged,
    o11_normalize,
    reduce_lambda0,
    reduce_lambda1,
    reduce_lambda2,
    reduce_last_row,
    reduce_to_t,
    representative_matrix,
    restricted_signatures,
    signature_table,
    verify_witness,
)

SQRT3 = math.sqrt(3.0)


# -- hyperbolic pair normalization ------------------------------------------------


def test_o11_already_normal():
    a, lam, g = o11_normalize(0.0, 1.0)
    assert (a, lam) == (1.0, 0)
    assert np.allclose(g, np.eye(2))


def test_o11_light_cone():
    a, lam, g = o11_normalize(1.0, 1.0)
    assert (a, lam) == (1.0, 1)
    assert np.allclose(g, np.diag([-1.0, 1.0]))


def test_o11_spacelike():
    # invariant x^2 - y^2 = 3 = 3 a^2 forces a = 1
    a, lam, g = o11_normalize(2.0, 1.0)
    assert lam == 2
    assert a == pytest.approx(1.0)
    assert np.allclose(np.array([2.0, 1.0]) @ g, [-2.0, 1.0])


def test_o11_random_contract():
    rng = np.random.default_rng(7)
    i11 = np.diag([1.0, -1.0])
    for _ in range(200):
        x, y = rng.uniform(-3, 3, 2)
        if x == 0 and y == 0:
            continue
        a, lam, g = o11_normalize(x, y)
        assert a > 0 and lam in (0, 1, 2)
        assert np.max(np.abs(g.T @ i11 @ g - i11)) < 1e-12  # O(1,1) membership
        out = np.array([x, y]) @ g
        assert out[1] == pytest.approx(a, rel=1e-9)
        assert out[0] == pytest.approx(-lam * a, rel=1e-9, abs=1e-9)


def test_o11_rejects_zero():
    with pytest.raises(ZeroVector):
        o11_normalize(0.0, 0.0)


# -- stagewise reduction ----------------------------------------------------------


def test_reduce_last_row_identity():
    g1, lam, witness = reduce_last_row(np.eye(4))
    assert lam == 0
    assert verify_witness(np.eye(4), witness).ok


def test_reduce_last_row_light_cone_row():
    # last row (1, 0, ..., 0, 1) has vanishing invariant: lam = 1
    g = np.eye(4)
    g[3, 0] = 1.0
    _, lam, witness = reduce_last_row(g)
    assert lam == 1
    assert verify_witness(g, witness).ok


def test_reduce_last_row_spacelike():
    n = 4
    g = np.eye(n)
    g[n - 1, 0] = -2.0  # invariant 4 - 1 = 3 > 0
    g1, lam, witness = reduce_last_row(g)
    assert lam == 2
    assert verify_witness(g, witness).ok
    assert np.allclose(g1[n - 1], [-2.0, 0, 0, 1])


def test_reduce_lambda0_identity():
    witness = reduce_lambda0(np.eye(4))
    assert witness.left == [] or verify_witness(np.eye(4), witness).ok
    assert np.allclose(witness.target, np.eye(4))


def test_reduce_lambda0_random_block():
    rng = np.random.default_rng(8)
    for _ in range(10):
        block = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        g = np.eye(4)
        g[:3, :3] = block
        witness = reduce_lambda0(g)
        res = verify_witness(g, witness)
        assert res.ok and np.allclose(witness.target, np.eye(4))
        # oracle: QR factorization says such a witness must exist with
        # an orthogonal right factor; check ours is orthogonal
        assert all(
            np.max(np.abs(k.T @ minkowski_gram(4) @ k - minkowski_gram(4))) < 1e-9
            for k in witness.right
        )


def test_reduce_lambda0_lower_triangular_block():
    g = np.eye(4)
    g[:3, :3] = np.array([[1.0, 0, 0], [2, 3, 0], [4, 5, 6]])
    witness = reduce_lambda0(g)
    assert verify_witness(g, witness).ok


def test_reduce_lambda0_rejects_bad_input():
    g = np.eye(4)
    g[3, 0] = -1.0
    with pytest.raises(NotInG0):
        reduce_lambda0(g)


def _t_form(n, lam, t):
    g = np.eye(n)
    g[n - 2, 0] = t
    g[n - 1, 0] = -float(lam)
    return g


def _random_hprime_stabilizer(n, rng):
    """H'-element with trivial last column, preserving the last-row form."""
    mask = hprime_pattern(n).mask
    while True:
        h = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
        h[:, n - 1] = 0.0
        h[n - 1, n - 1] = 1.0
        if abs(np.linalg.det(h)) > 0.05:
            return h


def _middle_rotation(n, rng):
    """Pseudo-orthogonal rotation fixing e_1 and e_n."""
    q, _ = np.linalg.qr(rng.standard_normal((n - 2, n - 2)))
    k = np.eye(n)
    k[1 : n - 1, 1 : n - 1] = q
    return k


@pytest.mark.parametrize("n", (4, 5, 7))
@pytest.mark.parametrize("lam,t_true", [(1, 2.0), (2, 0.8), (2, 2.4)])
def test_reduce_to_t_round_trip(n, lam, t_true):
    """Dressing the shear form by structure-preserving factors leaves t fixed."""
    rng = np.random.default_rng(100 * n + lam)
    g = _random_hprime_stabilizer(n, rng) @ _t_form(n, lam, t_true) @ _middle_rotation(n, rng)
    t, witness = reduce_to_t(g, lam)
    assert t == pytest.approx(t_true, rel=1e-9)
    assert verify_witness(g, witness).ok


def test_reduce_to_t_zero_corner_subcase():
    # row n-1 proportional to e_1 exercises the sqrt(lam^2+1) fix-up
    g = np.array(
        [
            [0.0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [-1, 0, 0, 1],
        ]
    )
    t, witness = reduce_to_t(g, 1)
    assert t >= 0 and math.isfinite(t)
    assert verify_witness(g, witness).ok


def test_reduce_to_t_rejects_wrong_lambda():
    with pytest.raises(NotInGLambda):
        reduce_to_t(np.eye(4), 0)
    with pytest.raises(NotInGLambda):
        reduce_to_t(np.eye(4), 1)  # last row says lam = 0, not 1


def test_reduce_lambda1_wall():
    xi, witness = reduce_lambda1(0.0, 4)
    assert xi == "0"
    assert witness.left == [] and witness.right == []


def test_reduce_lambda1_unit_parameter_trivial_rotation():
    # t = 1 gives shear parameter s = 0, so the pseudo-rotation is trivial
    xi, witness = reduce_lambda1(1.0, 4)
    assert xi == "1"
    assert all(np.allclose(k, np.eye(4)) for k in witness.right)
    assert verify_witness(witness.start, witness).ok


def test_reduce_lambda1_generic():
    for n in (4, 6):
        xi, witness = reduce_lambda1(3.0, n)
        assert xi == "1"
        res = verify_witness(witness.start, witness)
        assert res.ok and res.residual < 1e-12
        assert np.allclose(witness.target, representative_matrix(1, "1", n))


def test_reduce_lambda1_rejects_negative():
    with pytest.raises(NegativeT):
        reduce_lambda1(-0.5, 4)


def test_reduce_lambda2_wall():
    xi, witness = reduce_lambda2(SQRT3, 5)
    assert xi == "sqrt3"
    assert witness.left == [] and witness.right == []


def test_reduce_lambda2_below_wall():
    # t = 0: the root equation collapses to 3 s^2 - 8 s + 5 = 0, s = 5/3
    xi, witness = reduce_lambda2(0.0, 4)
    assert xi == "0"
    res = verify_witness(witness.start, witness)
    assert res.ok
    k1 = witness.right[0]
    assert k1[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-9)


def test_reduce_lambda2_above_wall():
    # t = 2: the branch equation squares to 3 s^2 - 8 s - 11 = 0, s = 11/3
    xi, witness = reduce_lambda2(2.0, 4)
    assert xi == "2"
    res = verify_witness(witness.start, witness)
    assert res.ok
    k1 = witness.right[0]
    assert k1[0, 0] == pytest.approx(11.0 / 3.0, abs=1e-9)


def test_reduce_lambda2_rejects_negative():
    with pytest.raises(NegativeT):
        reduce_lambda2(-1.0, 4)


# -- full classification ----------------------------------------------------------


@pytest.mark.parametrize("n", (4, 5, 6))
def test_classify_idempotent_on_representatives(n):
    for pair in CANONICAL_PAIRS:
        metric, _ = canonical_metric(pair[0], pair[1], n)
        form, k, witness = classify(metric)
        assert form.pair == pair
        assert k == pytest.approx(1.0, abs=1e-9)
        res = verify_witness(metric, witness)
        assert res.ok


def test_classify_fixed_point_exact_example():
    metric, _ = canonical_metric(2, "2", 5)
    form, k, _ = classify(metric)
    assert form.pair == (2, "2") and k == pytest.approx(1.0, abs=1e-9)


def test_classify_orbit_invariance():
    rng = np.random.default_rng(9)
    mask = aut_pattern(5).mask
    base = Metric(gram=canonical_gram(1, 1, 5, exact=False), backend=APPROX)
    for _ in range(25):
        phi = np.where(mask, rng.uniform(-1, 1, (5, 5)), 0.0)
        if abs(np.linalg.det(phi)) < 1e-3:
            continue
        c = rng.uniform(0.5, 2.0)
        metric = act(c * phi, base)
        form, _, witness = classify(metric)
        assert form.pair == (1, "1")
        assert verify_witness(metric, witness).ok


def test_classify_scale_recovery_on_rigid_class():
    # for classes with nonzero Ricci spectrum the scale is unique
    base = Metric(gram=canonical_gram(2, 0, 4, exact=False), backend=APPROX)
    scaled = Metric(gram=4.0 * base.gram, backend=APPROX)
    form, k, _ = classify(scaled)
    assert form.pair == (2, "0")
    assert k * 4.0 == pytest.approx(1.0, rel=1e-8)  # k = 1/c for input c*gram


def test_classify_agrees_with_invariants():
    rng = np.random.default_rng(10)
    mask = aut_pattern(4).mask
    for pair in CANONICAL_PAIRS:
        base = Metric(
            gram=canonical_gram(pair[0], xi_float(pair[1]), 4, exact=False),
            backend=APPROX,
        )
        for _ in range(20):
            phi = np.where(mask, rng.uniform(-1, 1, (4, 4)), 0.0)
            if abs(np.linalg.det(phi)) < 1e-3:
                continue
            metric = act(rng.choice([-1.5, 0.7, 2.0]) * phi, base)
            assert classify(metric)[0].pair == classify_by_invariants(metric).pair == pair


def test_classify_rejects_wrong_signature():
    with pytest.raises(WrongSignature):
        classify(Metric(gram=np.eye(5), backend=APPROX))


def test_invariant_classifier_table_rows():
    expectations = {
        (2, "sqrt3"): ((2, 0, 1), (1, 0, 0)),
        (0, "0"): ((2, 1, 0), (0, 1, 0)),
        (1, "0"): ((2, 0, 1), (0, 0, 1)),
    }
    from heislor.reduction import restricted_signatures

    for pair, sigs in expectations.items():
        metric, _ = canonical_metric(pair[0], pair[1], 5)
        center, derived = restricted_signatures(metric)
        assert (center.as_tuple(), derived.as_tuple()) == sigs
        assert classify_by_invariants(metric).pair == pair


def test_invariant_classifier_rejects_degenerate():
    # a degenerate gram fails the full-signature validation
    gram = np.diag([1.0, 1.0, 0.0, -1.0])
    with pytest.raises(WrongSignature):
        classify_by_invariants(Metric(gram=gram, backend=APPROX))
    # the unvalidated table lookup reports the inconsistency instead
    from heislor.reduction import classify_by_invariants_flagged

    with pytest.raises(NoTableMatch):
        classify_by_invariants_flagged(Metric(gram=gram, backend=APPROX))


# -- witness checking -------------------------------------------------------------


def test_verify_witness_trivial():
    from heislor.reduction import Witness

    w = Witness(left=[], right=[], start=np.eye(4), target=np.eye(4))
    res = verify_witness(np.eye(4), w)
    assert res.ok and res.residual == 0.0


def test_verify_witness_pipeline_self_check():
    metric, _ = canonical_metric(2, "0", 5)
    _, _, witness = classify(metric)
    res = verify_witness(metric, witness)
    assert res.ok and res.residual < 1e-8


def test_verify_witness_detects_corruption():
    metric, _ = canonical_metric(2, "0", 5)
    _, _, witness = classify(metric)
    witness.left[0] = witness.left[0].copy()
    witness.left[0][0, 0] += 1e-3
    res = verify_witness(metric, witness)
    assert not res.ok


def test_verify_witness_detects_pattern_violation():
    metric, _ = canonical_metric(0, "0", 4)
    _, _, witness = classify(metric)
    bad = witness.left[0].copy() if witness.left else np.eye(4)
    bad[3, 0] += 0.5  # outside the transposed pattern
    witness.left = [bad] + witness.left[1:]
    assert not verify_witness(metric, witness).ok


def test_near_wall_classification_is_flagged():
    # a metric one step off the degenerate-center wall classifies to the
    # nearest generic class and carries the near-degenerate warning
    gram = canonical_gram(2.0, SQRT3 - 1e-8, 5, exact=False)
    metric = Metric(gram=gram, backend=APPROX)
    form, _, witness = classify(metric)
    assert form.pair == (2, "sqrt3")
    assert "NearDegenerate" in witness.flags


# -- stacked checks against per-factor references ---------------------------------


def _verify_witness_reference(subject, witness, tol=1e-8):
    """The per-factor loop that verify_witness stacks; kept as its reference."""
    n = witness.n
    problems = []
    if isinstance(subject, Metric):
        if witness.m_factor is None:
            return VerificationResult(False, math.inf, "witness has no m-factor")
        m = witness.m_factor
        gram = to_float(subject.gram)
        minv = np.linalg.inv(m)
        gram_res = float(np.max(np.abs(minv.T @ minkowski_gram(n) @ minv - gram)))
        if gram_res > tol * max(1.0, float(np.max(np.abs(gram)))):
            problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
        start_res = float(np.max(np.abs(np.linalg.inv(m).T - witness.start)))
        if start_res > tol * max(1.0, max_abs(witness.start)):
            problems.append("start matrix is not the transpose-inverse of m")
    else:
        g = to_float(np.asarray(subject))
        if g.shape != witness.start.shape or float(np.max(np.abs(g - witness.start))) > tol * max(
            1.0, max_abs(g)
        ):
            problems.append("start matrix differs from the supplied element")
    pattern = hprime_pattern(n)
    ipq = minkowski_gram(n)
    for idx, h in enumerate(witness.left):
        outside = float(np.max(np.abs(to_float(h)[~pattern.mask]))) if n else 0.0
        if outside > tol:
            problems.append(f"left factor {idx} violates the pattern ({outside:.2e})")
        if abs(np.linalg.det(to_float(h))) < 1e-300:
            problems.append(f"left factor {idx} is singular")
    for idx, kmat in enumerate(witness.right):
        kf = to_float(kmat)
        dev = float(np.max(np.abs(kf.T @ ipq @ kf - ipq)))
        if dev > tol * max(1.0, float(np.max(np.abs(kf))) ** 2):
            problems.append(f"right factor {idx} is not pseudo-orthogonal ({dev:.2e})")
    residual = float(np.max(np.abs(witness.product() - witness.target)))
    if residual > tol:
        problems.append(f"chain product misses the target by {residual:.2e}")
    return VerificationResult(not problems, residual, "; ".join(problems))


def _orbit_sample(lam, xi_key, n, seed):
    rng = np.random.default_rng(seed)
    g = np.eye(n) + 0.3 * rng.standard_normal((n, n)) * aut_pattern(n).mask
    metric, _ = canonical_metric(lam, xi_key, n, backend=APPROX)
    return act(g, metric)


def _corrupt(witness, side, idx, fn):
    factors = list(getattr(witness, side))
    factors[idx] = fn(factors[idx].copy())
    setattr(witness, side, factors)
    return witness


def _outside_entry(h):
    h[h.shape[0] - 1, 0] += 0.5  # (n, 1) lies outside the transposed pattern
    return h


_CORRUPTIONS = {
    "intact": (lambda w: w, ""),
    "pattern": (
        lambda w: _corrupt(w, "left", 1, _outside_entry),
        "left factor 1 violates the pattern",
    ),
    "singular": (lambda w: _corrupt(w, "left", 0, lambda h: 0.0 * h), "left factor 0 is singular"),
    "lorentz": (
        lambda w: _corrupt(w, "right", 1, lambda k: 1.01 * k),
        "right factor 1 is not pseudo-orthogonal",
    ),
    "start": (
        lambda w: setattr(w, "start", w.start + 1e-3) or w,
        "start matrix is not the transpose-inverse of m",
    ),
    "no-m": (lambda w: setattr(w, "m_factor", None) or w, "witness has no m-factor"),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("pair, n", [((2, "0"), 5), ((1, "1"), 8), ((0, "0"), 4)])
def test_verify_witness_matches_per_factor_reference(pair, n, corruption):
    corrupt, expected = _CORRUPTIONS[corruption]
    metric = _orbit_sample(pair[0], pair[1], n, seed=n)
    _, _, witness = classify(metric)
    witness = corrupt(witness)
    got = verify_witness(metric, witness)
    ref = _verify_witness_reference(metric, witness)
    assert (got.ok, got.residual, got.detail) == (ref.ok, ref.residual, ref.detail)
    assert got.ok == (expected == "") and expected in got.detail


def test_verify_witness_stacks_match_reference_on_element_subjects():
    # an element subject, a wrong start, and a witness with no factors at all
    _, empty = reduce_lambda1(0.0, 5)
    assert empty.left == [] and empty.right == []
    g = np.eye(5)
    g[3, 0], g[4, 0] = 1.0, -2.0
    _, _, chain = reduce_last_row(g)
    for subject, witness in (
        (empty.start, empty),
        (empty.start + 1e-3, empty),
        (g, chain),
        (g + 1e-3, chain),
    ):
        got = verify_witness(subject, witness)
        ref = _verify_witness_reference(subject, witness)
        assert (got.ok, got.residual, got.detail) == (ref.ok, ref.residual, ref.detail)
    assert verify_witness(empty.start, empty).ok
    assert "start matrix differs" in verify_witness(g + 1e-3, chain).detail


def _invariants_reference(metric, tol=1e-9):
    """restricted_signatures plus one eigvalsh per block for the near-wall band."""
    def near_degenerate(block):
        if block.dtype == object:
            return False
        eigs = np.linalg.eigvalsh(block)
        band = tol * max(1.0, float(np.max(np.abs(eigs))))
        return bool(np.any((np.abs(eigs) > 0.01 * band) & (np.abs(eigs) < 100.0 * band)))

    center, derived = restricted_signatures(metric, tol)
    key = (center.as_tuple(), derived.as_tuple())
    pair = next((p for p, sigs in signature_table(metric.n).items() if sigs == key), None)
    near = near_degenerate(metric.gram[2:, 2:]) or near_degenerate(metric.gram[-1:, -1:])
    return pair, ["NearDegenerate"] if near else []


def _near_wall_metrics():
    for n in (4, 5, 8):
        # center eigenvalues from about 3e2 down to 3e-3 zero bands, and exact zeros
        for offset in (1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 0.0):
            for lam, xi in ((2, SQRT3 - offset), (2, SQRT3 + offset), (1, math.sqrt(offset))):
                yield Metric(gram=canonical_gram(lam, xi, n, exact=False), backend=APPROX)
        for lam, key in CANONICAL_PAIRS:
            gram = canonical_gram(lam, xi_float(key), n, exact=False)
            yield Metric(gram=1e6 * gram, backend=APPROX)
            yield _orbit_sample(lam, key, n, seed=lam + n)
            yield canonical_metric(lam, key, n)[0]


def test_invariant_classifier_matches_two_eigvalsh_reference():
    flagged = 0
    for metric in _near_wall_metrics():
        form, flags = classify_by_invariants_flagged(metric)
        assert (form.pair, flags) == _invariants_reference(metric)
        flagged += bool(flags)
    assert flagged  # the band is exercised, not only the clean side of it
