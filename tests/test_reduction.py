"""The reduction pipeline, both classifiers, and witness verification."""

import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from heislor._linalg import (
    SINGULAR_RATIO,
    embed,
    exact_array,
    exact_rank,
    householder,
    max_abs,
    minkowski_gram,
    right_triangularize,
    shared_minkowski_gram,
    to_float,
)
from heislor.liealg import aut_pattern
from heislor.metrics import (
    APPROX,
    CANONICAL_PAIRS,
    EXACT,
    AsymmetricInput,
    Metric,
    WrongSignature,
    _factor_metric,
    _unit_gram,
    act,
    canonical_gram,
    canonical_metric,
    signature_of,
    xi_float,
)
from heislor.numerics import QSqrt3
from heislor.orbits import _curve_points
import heislor._linalg as linalg
import heislor.metrics as metrics
import heislor.reduction as reduction
from heislor.reduction import (
    SNAP_LIMIT,
    WALL_BAND,
    AmbiguousNearWall,
    ClassificationMismatch,
    NegativeT,
    NoTableMatch,
    NotInGLambda,
    NumericalBreakdown,
    VerificationResult,
    ZeroVector,
    classify,
    classify_by_invariants,
    classify_by_invariants_flagged,
    lambda2_closed_form,
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
from heislor.verification import lambda2_equation, random_orbit_metric

from references import verify_witness_by_side

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


def _o11_matmul_form(x, y):
    """o11_normalize's lam and g, g formed as the product diag(d) @ [[c, s], [s, c]]."""
    q = x * x - y * y
    if q < -1e-9 * max(x * x, y * y):
        sigma = 1.0 if y > 0 else -1.0
        a = math.sqrt(y * y - x * x)
        lam, d, c, s = 0, (1.0, sigma), sigma * y / a, -x / a
    elif q > 1e-9 * max(x * x, y * y):
        sigma = -1.0 if x > 0 else 1.0
        a = math.sqrt(q / 3.0)
        xs = sigma * x
        lam, d, c, s = 2, (sigma, 1.0), -(2.0 * xs + y) / (3.0 * a), (xs + 2.0 * y) / (3.0 * a)
    else:
        e = 0.5 * (abs(x) + abs(y))
        lam, d = 1, (-1.0 if x > 0 else 1.0, 1.0 if y >= 0 else -1.0)
        c, s = 0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e)
    return lam, np.diag(d) @ np.array([[c, s], [s, c]])


def test_o11_blocks_match_matmul_form():
    # signed zeros in the grid give s = -0.0 (lam = 0), and (2, 1) and (1, 1) give
    # s = +0.0 (lam = 2 and 1): every zero entry must come out +0.0, as the product's
    values = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e-3, -3.0, 0.7, 1.0 + 1e-12)
    lams, zeros = set(), 0
    for x in values:
        for y in values:
            if x == 0.0 and y == 0.0:
                continue
            _, lam, g = o11_normalize(x, y)
            ref_lam, ref = _o11_matmul_form(x, y)
            assert lam == ref_lam
            assert np.array_equal(g, ref) and np.array_equal(np.signbit(g), np.signbit(ref)), (x, y)
            lams.add(lam)
            zeros += int((g == 0.0).sum())
    assert lams == {0, 1, 2} and zeros


# -- stagewise reduction ----------------------------------------------------------


def test_reduce_last_row_identity():
    g1, lam, witness = reduce_last_row(np.eye(4))
    assert lam == 0
    assert verify_witness_by_side(np.eye(4), witness).ok


def test_reduce_last_row_light_cone_row():
    # last row (1, 0, ..., 0, 1) has vanishing invariant: lam = 1
    g = np.eye(4)
    g[3, 0] = 1.0
    _, lam, witness = reduce_last_row(g)
    assert lam == 1
    assert verify_witness_by_side(g, witness).ok


def test_reduce_last_row_spacelike():
    n = 4
    g = np.eye(n)
    g[n - 1, 0] = -2.0  # invariant 4 - 1 = 3 > 0
    g1, lam, witness = reduce_last_row(g)
    assert lam == 2
    assert verify_witness_by_side(g, witness).ok
    assert np.allclose(g1[n - 1], [-2.0, 0, 0, 1])


def test_reduce_lambda0_identity():
    witness = reduce_lambda0(np.eye(4))
    assert witness.left == [] or verify_witness_by_side(np.eye(4), witness).ok
    assert np.allclose(witness.target, np.eye(4))


def test_reduce_lambda0_random_block():
    rng = np.random.default_rng(8)
    for _ in range(10):
        block = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        g = np.eye(4)
        g[:3, :3] = block
        witness = reduce_lambda0(g)
        res = verify_witness_by_side(g, witness)
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
    assert verify_witness_by_side(g, witness).ok


def test_reduce_lambda0_rejects_bad_input():
    g = np.eye(4)
    g[3, 0] = -1.0
    with pytest.raises(NotInGLambda):
        reduce_lambda0(g)


def _t_form(n, lam, t):
    g = np.eye(n)
    g[n - 2, 0] = t
    g[n - 1, 0] = -float(lam)
    return g


def _random_hprime_stabilizer(n, rng):
    """H'-element with trivial last column, preserving the last-row form."""
    mask = aut_pattern(n).mask.T
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


#: (lam, t) of the round-trip inputs
_ROUND_TRIP = [(1, 2.0), (2, 0.8), (2, 2.4)]


def _round_trip_input(n, lam, t_true):
    """The shear form dressed by structure-preserving factors on both sides."""
    rng = np.random.default_rng(100 * n + lam)
    return _random_hprime_stabilizer(n, rng) @ _t_form(n, lam, t_true) @ _middle_rotation(n, rng)


@pytest.mark.parametrize("n", (4, 5, 7))
@pytest.mark.parametrize("lam,t_true", _ROUND_TRIP)
def test_reduce_to_t_round_trip(n, lam, t_true):
    """Dressing the shear form by structure-preserving factors leaves t fixed."""
    g = _round_trip_input(n, lam, t_true)
    t, witness = reduce_to_t(g, lam)
    assert t == pytest.approx(t_true, rel=1e-9)
    assert verify_witness_by_side(g, witness).ok


#: a peel pivot this small relative to the working matrix breaks the reference down
_PEEL_PIVOT_TOL = 1e-12


def _reduce_to_t_peel_reference(g, lam):
    """Reduction to the t-form by back substitution written out step by step.

    After the Householder factor and the middle rotation it peels columns
    n-1 .. 4 to the identity with one factor each, clears the third column and
    cancels the top 2x2 block, snapping onto the known shape after every step.
    The library takes one left solve instead; this is its reference, and like
    the library it breaks down on a vanishing (3, 3) corner.
    """
    builder = reduction._Builder(g)
    n = builder.n
    if n >= 5:
        builder.apply_left(householder(builder.current[2 : n - 1, 0], 0, n, 2))
        ideal = builder.current.copy()
        ideal[3 : n - 1, 0] = 0.0
        builder.snap(ideal)
    builder.apply_right(right_triangularize(builder.current[1 : n - 1, 1 : n - 1], n, 1))
    ideal = builder.current.copy()
    for i in range(2, n - 1):
        ideal[i, 1:i] = 0.0
    builder.snap(ideal)
    for j in range(n - 2, 2, -1):
        pivot = float(builder.current[j, j])
        if abs(pivot) < _PEEL_PIVOT_TOL * max(1.0, max_abs(builder.current)):
            raise NumericalBreakdown(f"vanishing peel pivot at column {j}")
        h = np.eye(n)
        h[j, j] = 1.0 / pivot
        h[:j, j] = -builder.current[:j, j] / pivot
        builder.apply_left(h)
        ideal = builder.current.copy()
        ideal[:, j] = 0.0
        ideal[j, :] = 0.0
        ideal[j, j] = 1.0
        builder.snap(ideal)
    if abs(builder.current[2, 2]) <= reduction.CORNER_TOL * max(1.0, max_abs(builder.current[2])):
        raise NumericalBreakdown("vanishing (3, 3) corner")
    x = float(builder.current[2, 2])
    y = float(builder.current[2, 0])
    h4 = np.eye(n)
    h4[2, 2] = 1.0 / x
    h4[0, 2] = -builder.current[0, 2] / x
    h4[1, 2] = -builder.current[1, 2] / x
    builder.apply_left(h4)
    ideal = builder.current.copy()
    ideal[:, 2] = 0.0
    ideal[2, :] = 0.0
    ideal[2, 2] = 1.0
    ideal[2, 0] = y / x
    builder.snap(ideal)
    builder.apply_left(embed(np.linalg.inv(builder.current[0:2, 0:2]), n, (0, 1)))
    t_signed = y / x
    ideal = np.eye(n)
    ideal[2, 0] = t_signed
    ideal[n - 1, 0] = -float(lam)
    builder.snap(ideal)
    if abs(t_signed) > 0.0:
        v = np.zeros(n - 3)
        v[0] = t_signed
        h = householder(v, -1, n, 2)
        builder.apply_left(h)
        builder.apply_right(h.T)
    t = abs(t_signed)
    builder.snap(_t_form(n, lam, t))
    return t, builder.witness(builder.current)


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("lam,t_true", _ROUND_TRIP)
def test_reduce_to_t_matches_peel_reference(n, lam, t_true):
    g = _round_trip_input(n, lam, t_true)
    t, witness = reduce_to_t(g, lam)
    t_ref, ref = _reduce_to_t_peel_reference(g, lam)
    assert t == pytest.approx(t_ref, rel=1e-12)
    assert verify_witness_by_side(g, witness).ok and verify_witness_by_side(g, ref).ok


#: t-forms whose swap factor, built as a Householder reflection, came out one ulp off
#: (at n = 4, t = -2.3495076279764824 recorded [[-1.0000000000000004]] in the swap block)
_ROUNDED_SWAPS = {4: -2.3495076279764824, 5: 1.6745324044390673, 6: -0.7575887578016549,
                  8: -0.7452549879795987}


@pytest.mark.parametrize("n", range(4, 9))
def test_reduce_to_t_swap_is_an_exact_signed_permutation(n):
    # the stage's last factor pair moves the shear entry from (3, 1) to (n-1, 1): the
    # signed swap of coordinates 3 and n-1, on both sides, entries exactly 0 and +-1
    rng = np.random.default_rng(40 + n)
    for t in [*rng.uniform(-3.0, 3.0, 40), _ROUNDED_SWAPS.get(n, 1.0)]:
        g = _t_form(n, 1, t)
        t_out, witness = reduce_to_t(g, 1)
        swap = witness.left[0]
        sign = swap[2, n - 2]
        want = np.eye(n)
        want[2, 2] = want[n - 2, n - 2] = 0.0
        want[2, n - 2] = want[n - 2, 2] = sign
        assert sign in (-1.0, 1.0) and np.array_equal(swap, want), t
        assert np.array_equal(witness.right[-1], want)
        assert t_out == abs(t) and verify_witness_by_side(g, witness).ok


def test_stages_end_in_one_left_solve():
    rng = np.random.default_rng(8)
    g = np.eye(5)
    g[:4, :4] = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    assert len(reduce_lambda0(g).left) == 1
    for t in (0.8, 2.4):  # both sides of the sqrt3 wall
        _, witness = reduce_lambda2(t, 5)
        assert (len(witness.left), len(witness.right)) == (1, 1)
    for lam, t_true in _ROUND_TRIP:
        # the Householder factor, the solve and the shear's conjugation
        g = _round_trip_input(7, lam, t_true)
        assert len(reduce_to_t(g, lam)[1].left) <= 3


def _zero_corner_input(n, lam):
    """Rows e_2, e_3, e_1, e_4 .. e_(n-1), (-lam, 0, .., 0, 1): the middle block's
    first row is zero, so the (3, 3) corner vanishes after the rotation."""
    g = np.eye(n)
    g[:3, :3] = [[0.0, 1, 0], [0, 0, 1], [1, 0, 0]]
    g[n - 1, 0] = -float(lam)
    return g


@pytest.mark.parametrize("n", (4, 5, 7))
@pytest.mark.parametrize("lam", (1, 2))
def test_reduce_to_t_zero_corner_subcase(n, lam):
    # a vanishing corner fixes no t: the stage breaks down, and so does the reference
    g = _zero_corner_input(n, lam)
    with pytest.raises(NumericalBreakdown, match="vanishing"):
        reduce_to_t(g, lam)
    with pytest.raises(NumericalBreakdown, match="vanishing"):
        _reduce_to_t_peel_reference(g, lam)


def test_singular_input_breaks_down():
    # a singular element has no witness, so no t may come back for it
    g = np.eye(5)
    g[:4, :4] = [[-1.0, 0, 0, 0], [-1, 1, -1, 1], [1, -1, 0, 0], [-1, 0, 0, 0]]
    g[4, 0] = -1.0
    with pytest.raises(NumericalBreakdown):
        reduce_to_t(g, 1)
    rng = np.random.default_rng(0)
    tried = 0
    while tried < 40:
        lam = 1 + tried % 2
        g = np.eye(5)
        g[:4, :4] = rng.integers(-1, 2, (4, 4))
        g[2, 2] = 0.0
        g[4, 0] = -float(lam)
        if np.linalg.matrix_rank(g) == 5:
            continue
        tried += 1
        with pytest.raises(NumericalBreakdown):
            reduce_to_t(g, lam)


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
    assert verify_witness_by_side(witness.start, witness).ok


def test_reduce_lambda1_generic():
    for n in (4, 6):
        xi, witness = reduce_lambda1(3.0, n)
        assert xi == "1"
        res = verify_witness_by_side(witness.start, witness)
        assert res.ok and res.residual < 1e-12
        assert np.allclose(witness.target, representative_matrix(1, "1", n))


def test_reduce_lambda1_rejects_negative():
    with pytest.raises(NegativeT):
        reduce_lambda1(-0.5, 4)


#: shear parameters of the boost chain: long doubling and halving runs, one step, none
_BOOST_TS = (1e-5, 3e-4, 0.01, 0.3, 0.5, 2.0, 2.5, 37.0, 199.0)


@pytest.mark.parametrize("n", (4, 5, 7))
@pytest.mark.parametrize("t", _BOOST_TS)
def test_boost_chain_closed_form(t, n):
    # k boosts by e = 2 or 1/2 bring t into [1/2, 2], each with the right factor
    # embed([[5/4, 3/4 sgn], [3/4 sgn, 5/4]]) and a left factor in the pattern
    sign = 1 if t < 0.5 else -1
    k = max(0, math.ceil(math.log2(0.5 / t)), math.ceil(math.log2(t / 2.0)))
    builder = reduction._Builder(_t_form(n, 1, t))
    assert reduction._boost_t(builder, t) == math.ldexp(t, sign * k)
    assert len(builder.left_app) == len(builder.right_app) == k
    boost = np.eye(n)
    boost[np.ix_((0, n - 1), (0, n - 1))] = [[1.25, 0.75 * sign], [0.75 * sign, 1.25]]
    assert all(np.array_equal(factor, boost) for factor in builder.right_app)
    outside = ~aut_pattern(n).mask.T
    assert all(not h[outside].any() for h in builder.left_app)
    _, witness = reduce_lambda1(t, n)
    assert verify_witness_by_side(witness.start, witness).ok


def test_boost_chain_checks_every_step(monkeypatch):
    # with no snap tolerance any rounding in a step breaks down: doubling is exact,
    # and so is halving a t of few mantissa bits, so only the three halving runs
    # added to the grid round, at every n
    monkeypatch.setattr(reduction, "SNAP_TOL", 0.0)
    broken = set()
    for n in (4, 5, 7):
        for t in _BOOST_TS + (3.14159, 7.7, 1234.5678):
            try:
                reduction._boost_t(reduction._Builder(_t_form(n, 1, t)), t)
            except NumericalBreakdown as exc:
                assert re.fullmatch(r"snap deviation \S+ exceeds tolerance", str(exc))
                broken.add((n, t))
    assert broken == {(n, t) for n in (4, 5, 7) for t in (3.14159, 7.7, 1234.5678)}


def test_snap_refuses_a_nan_deviation():
    # `dev > bound` is False for a NaN deviation; the snap must break down instead
    builder = reduction._Builder(np.eye(5))
    builder.current[1, 1] = np.nan
    with pytest.raises(NumericalBreakdown, match="nan"):
        builder.snap(np.eye(5))


def test_boost_chain_refuses_a_nan_t_form():
    # t = 40 takes five halvings; a NaN anywhere in the t-form fails the first step's snap
    n = 5
    builder = reduction._Builder(_t_form(n, 1, 40.0))
    builder.current[1, 1] = np.nan
    with pytest.raises(NumericalBreakdown, match="nan"):
        reduction._boost_t(builder, 40.0)


def test_boost_chain_adds_no_calls(count_calls):
    # 1e-4 takes 13 doublings and 0.3 one: the chain builds its boost once either way
    calls = count_calls(reduction, "embed")
    for n in (4, 6):
        calls.clear()
        reduce_lambda1(1e-4, n)
        long_chain = len(calls)
        calls.clear()
        reduce_lambda1(0.3, n)
        assert long_chain == len(calls) == 2


def test_reduce_lambda2_wall():
    xi, witness = reduce_lambda2(SQRT3, 5)
    assert xi == "sqrt3"
    assert witness.left == [] and witness.right == []


def test_reduce_lambda2_below_wall():
    # t = 0: the root equation collapses to 3 s^2 - 8 s + 5 = 0, s = 5/3
    xi, witness = reduce_lambda2(0.0, 4)
    assert xi == "0"
    res = verify_witness_by_side(witness.start, witness)
    assert res.ok
    k1 = witness.right[0]
    assert k1[0, 0] == pytest.approx(5.0 / 3.0, abs=1e-9)


def test_reduce_lambda2_above_wall():
    # t = 2: the branch equation squares to 3 s^2 - 8 s - 11 = 0, s = 11/3
    xi, witness = reduce_lambda2(2.0, 4)
    assert xi == "2"
    res = verify_witness_by_side(witness.start, witness)
    assert res.ok
    k1 = witness.right[0]
    assert k1[0, 0] == pytest.approx(11.0 / 3.0, abs=1e-9)


def test_reduce_lambda2_rejects_negative():
    with pytest.raises(NegativeT):
        reduce_lambda2(-1.0, 4)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", [reduce_lambda1, reduce_lambda2], ids=["lambda1", "lambda2"])
def test_t_stages_reject_non_finite_t(stage, t, monkeypatch):
    # without the entry check a NaN t snaps onto the wall, and +inf halves forever in
    # the boost chain, so the chain is made to raise rather than run
    def no_chain(*args):
        raise AssertionError("a non-finite t reached the boost chain")

    monkeypatch.setattr(reduction, "_boost_t", no_chain)
    with pytest.raises(NegativeT, match="t must be finite and >= 0"):
        stage(t, 5)


@pytest.mark.parametrize(
    "side, problem",
    [("left", "left factor 0 is singular"), ("right", "right factor 0 is not pseudo-orthogonal")],
)
def test_verify_witness_fails_a_nan_factor_entry(side, problem):
    def nan_corner(factor):
        factor[0, 0] = math.nan  # an entry the pattern allows
        return factor

    metric = _orbit_sample(2, "0", 5, seed=3)
    _, _, witness = classify(metric)
    assert verify_witness(metric, witness).ok
    got = verify_witness(metric, _corrupt(witness, side, 0, nan_corner))
    assert not got.ok and math.isnan(got.residual)
    assert problem in got.detail and "misses the target by nan" in got.detail


@pytest.mark.parametrize("entry", [1e155, 1e200, 1e308, -1e200, math.inf])
def test_verify_witness_fails_a_right_factor_whose_bound_overflows(entry):
    # the pseudo-orthogonality bound WITNESS_TOL * size^2 is inf from |entry| ~ 1.3e154 on;
    # an infinite bound passes nothing, and the check returns a verdict rather than raising
    def huge_corner(factor):
        factor[0, 0] = entry
        return factor

    metric, _ = canonical_metric(2, "0", 5, backend=APPROX)
    witness = _corrupt(classify(metric)[2], "right", 0, huge_corner)
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = verify_witness(metric, witness), verify_witness_by_side(metric, witness)
    assert not got.ok and "right factor 0 is not pseudo-orthogonal" in got.detail
    assert _bits(got) == _bits(ref)


# -- the closed-form lam=2 root against a bisection reference ---------------------


def _bisect_reference(f, lo, hi):
    """Midpoint bisection of a sign-changing bracket down to its last bit."""
    flo = f(lo)
    if flo == 0:
        return lo
    assert flo * f(hi) < 0, "bracket does not straddle a root"
    while True:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return mid
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid


def _lambda2_reference(t):
    """The root s >= 5/3 of the lam=2 root equation, bisected in long double."""
    xi_key = "0" if t < SQRT3 else "2"
    f = lambda2_equation(xi_key, t)
    lo, hi = np.longdouble(5) / 3, np.longdouble(2)
    if f(lo) >= 0:  # the root sits on the branch point within long-double rounding
        return xi_key, lo
    while f(hi) <= 0:
        hi *= 2
    return xi_key, _bisect_reference(f, lo, hi)


def test_bisect_reference_sqrt2():
    root = _bisect_reference(lambda s: s * s - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_bisect_reference_stays_in_bracket():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = sorted(rng.uniform(-3, 3, 2))
        if (a - 1.3) * (b - 1.3) < 0:
            root = _bisect_reference(lambda s: s - 1.3, a, b)
            assert a <= root <= b and abs(root - 1.3) < 1e-15


def test_bisect_reference_rejects_bad_bracket():
    with pytest.raises(AssertionError):
        _bisect_reference(lambda s: s * s + 1.0, 0.0, 1.0)


def test_closed_form_branch_point_root():
    # t = 0: 3 phi(s) = 0 forces 3 s^2 - 8 s + 5 = 0, i.e. s = 5/3, phi = 0
    assert lambda2_closed_form(0.0) == ("0", 5.0 / 3.0, 0.0)
    assert float(_lambda2_reference(0.0)[1]) == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_closed_form_quadratic_oracle():
    # t = 2: 7 phi = 4 (3s - 4) squares to 3 s^2 - 8 s - 11 = 0, root 11/3
    xi_key, s, phi = lambda2_closed_form(2.0)
    assert xi_key == "2"
    assert s == pytest.approx((8 + math.sqrt(64 + 4 * 3 * 11)) / 6, abs=1e-14)
    assert s == pytest.approx(11.0 / 3.0, abs=1e-14)
    assert phi == pytest.approx(4.0, abs=1e-14)
    assert float(_lambda2_reference(2.0)[1]) == pytest.approx(11.0 / 3.0, abs=1e-14)


#: both branches: the branch point, t within 1e-5 of sqrt3 on either side, large t
_CLOSED_FORM_TS = sorted(
    [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 1.7, 2.0, 5.0, 20.0, 200.0, 1e4]
    + [SQRT3 + sign * 10.0**-k for sign in (-1, 1) for k in (1, 2, 3, 4, 5)]
    + [SQRT3 + d for d in np.random.default_rng(11).uniform(-1e-5, 1e-5, 20)]
    + list(np.random.default_rng(12).uniform(0.0, 20.0, 200))
)


def test_closed_form_matches_bisection_reference():
    for t in _CLOSED_FORM_TS:
        xi_key, s, phi = lambda2_closed_form(t)
        ref_key, ref_s = _lambda2_reference(t)
        assert xi_key == ref_key, t
        assert s == pytest.approx(float(ref_s), rel=1e-11), t
        # phi^2 = (u^2 - 1)/3 with u = 3s - 4; the reference's phi cancels near
        # the branch point u = 1, so there phi is checked in 40 digits only
        u = 3 * ref_s - 4
        if t >= 1e-3:
            assert phi == pytest.approx(float(np.sqrt((u * u - 1) / 3)), rel=1e-10), t
        assert phi == pytest.approx(_phi_digits(t), rel=1e-14), t


def _phi_digits(t):
    """phi of the closed form in 40 digits: t / sqrt(3 (3 - t^2)) or (t + 2) / sqrt(t^2 - 3)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = decimal.Decimal(t)
        if d * d < 3:
            return float(d / (3 * (3 - d * d)).sqrt())
        return float((d + 2) / (d * d - 3).sqrt())


def test_closed_form_residual_in_root_equation():
    # at the branch point the equation's slope 3u/phi ~ 9/t turns the rounding
    # of s itself into a residual of about 1e-15/t, so that end is left to the
    # reference comparison above
    for t in _CLOSED_FORM_TS:
        if t < 1e-2:
            continue
        xi_key, s, _ = lambda2_closed_form(t)
        assert abs(float(lambda2_equation(xi_key, t)(np.longdouble(s)))) <= 1e-12, t


def test_reduce_lambda2_witness_is_sound_across_both_branches():
    for t in _CLOSED_FORM_TS:
        if abs(t - SQRT3) <= WALL_BAND:
            continue
        for n in (4, 7):
            xi_key, witness = reduce_lambda2(t, n)
            assert xi_key == ("0" if t < SQRT3 else "2")
            # factors grow like |t - sqrt3|^(-1/2): still sound at the band edge
            res = verify_witness_by_side(witness.start, witness)
            assert res.ok, (t, n, res.detail)


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


#: Lorentzian grams below the paper's range: at n = 3 there are three classes, not six
SMALL_N_GRAMS = {
    "n1": [[-1.0]],
    "n2": [[1.0, 0.0], [0.0, -1.0]],
    "n3-center-timelike": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
    "n3-minkowski": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
}


@pytest.mark.parametrize("gram", SMALL_N_GRAMS.values(), ids=SMALL_N_GRAMS)
@pytest.mark.parametrize(
    "classifier", [classify, classify_by_invariants, classify_by_invariants_flagged]
)
def test_classifiers_refuse_n_below_four(classifier, gram):
    from heislor.liealg import DimensionTooSmall

    with pytest.raises(DimensionTooSmall, match="need n >= 4"):
        classifier(Metric(gram=np.array(gram), backend=APPROX))


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
        assert (center, derived) == sigs
        assert classify_by_invariants(metric).pair == pair


def test_invariant_classifier_rejects_degenerate():
    # a degenerate gram fails the full-signature validation
    gram = np.diag([1.0, 1.0, 0.0, -1.0])
    with pytest.raises(WrongSignature):
        classify_by_invariants(Metric(gram=gram, backend=APPROX))
    # the unvalidated table lookup reports the inconsistency instead
    from heislor.reduction import classify_by_invariants_flagged

    with pytest.raises(NoTableMatch, match=re.escape("signatures ((0, 1, 1), (0, 1, 0))")):
        classify_by_invariants_flagged(Metric(gram=gram, backend=APPROX))


# -- witness checking -------------------------------------------------------------


@pytest.mark.parametrize("n", (4, 6, 8))
def test_every_chart_starts_from_the_transpose_inverse_of_its_m(n):
    # the first chart reads (m^-1)^T off the eigendecomposition, and a retry chart m R
    # starts from it times R^-T = J R J; neither may stray from the LU inverse
    rng = np.random.default_rng(n)
    g = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
    metric = act(g, Metric(gram=canonical_gram(2, 2.0, n, exact=False), backend=APPROX))
    m, start, _ = _factor_metric(metric)
    charts = [(m, start)] + [
        (m @ r, start @ jrj)
        for r, jrj in (reduction._chart(n, a) for a in range(1, reduction.MAX_RETRIES + 1))
    ]
    for m_a, start_a in charts:
        assert max_abs(start_a - np.linalg.inv(m_a).T) <= 1e-13 * max_abs(start_a)


def test_per_n_constants_are_shared_and_read_only():
    # built once per n and handed to every caller, so no caller may write them
    n = 6
    arrays = {
        "minkowski": (shared_minkowski_gram(n), minkowski_gram(n)),
        "outside": (reduction._outside_index(n), np.flatnonzero(~aut_pattern(n).mask.T)),
        "retry": (reduction._chart(n, 3)[0], reduction._chart.__wrapped__(n, 3)[0]),
        "retry start": (reduction._chart(n, 3)[1], reduction._chart.__wrapped__(n, 3)[1]),
        "aut mask": (aut_pattern(n).mask, aut_pattern.__wrapped__(n).mask),
    }
    for name, (shared, fresh) in arrays.items():
        assert np.array_equal(shared, fresh), name
        with pytest.raises(ValueError):
            shared[...] = fresh
    assert shared_minkowski_gram(n) is shared_minkowski_gram(n)
    with pytest.raises(TypeError):
        signature_table(n)[(0, "0")] = None
    with pytest.raises(TypeError):
        reduction._forms_by_signatures(n)[((0, 0, 0), (0, 0, 0))] = None


def test_verify_witness_trivial():
    from heislor.reduction import Witness

    w = Witness(left=[], right=[], start=np.eye(4), target=np.eye(4))
    res = verify_witness_by_side(np.eye(4), w)
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
    # xi = sqrt3 -/+ 5e-10 puts t about 1.3e-9 from the wall on this chart:
    # inside SNAP_LIMIT, so it snaps onto (2, sqrt3), is flagged, and the
    # witness, which misses its target by that distance, still verifies
    for offset in (-5e-10, 5e-10):
        metric = Metric(gram=canonical_gram(2.0, SQRT3 + offset, 5, exact=False), backend=APPROX)
        form, _, witness = classify(metric)
        assert form.pair == (2, "sqrt3")
        assert "NearDegenerate" in witness.flags
        assert verify_witness(metric, witness).ok


def test_in_band_lambda2_input_is_ambiguous():
    # xi = sqrt3 - 1e-8 puts t about 2.5e-8 below the wall: a snap would
    # leave that residual, above 1e-8, and t cannot tell (2, 0) from (2, sqrt3)
    metric = Metric(gram=canonical_gram(2.0, SQRT3 - 1e-8, 5, exact=False), backend=APPROX)
    with pytest.raises(AmbiguousNearWall) as info:
        classify(metric)
    assert info.value.candidates == ((2, "0"), (2, "sqrt3"))
    assert -WALL_BAND <= info.value.statistic < -SNAP_LIMIT
    assert isinstance(info.value, ValueError)


# -- chart retries and near-wall sweeps ------------------------------------------


def _float_metric(gram):
    return Metric(gram=gram, backend=APPROX)


@pytest.mark.parametrize("n", (5, 8))
@pytest.mark.parametrize("offset", (1e-3, -1e-3, 1e-5, -1e-5))
def test_sqrt3_neighbourhood_classifies_on_first_chart(n, offset, count_calls):
    # the distance from t to sqrt3 is the same on every chart: no redraw
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    metric = _float_metric(canonical_gram(2, SQRT3 + offset, n, exact=False))
    form, _, witness = classify(metric)
    assert len(charts) == 1
    assert form.pair == ((2, "2") if offset > 0 else (2, "0"))
    assert "RetriesExhausted" not in witness.flags
    assert verify_witness(metric, witness).ok


def test_lambda1_mismatch_stops_after_one_chart(count_calls):
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    with pytest.raises(ClassificationMismatch):
        classify(_float_metric(canonical_gram(1, 1e-5, 5, exact=False)))
    assert len(charts) == 1


def _breaking_charts(monkeypatch, broken):
    """Wrap _reduce_last_row, one call per chart, so that its first `broken` calls raise
    NumericalBreakdown; returns the list of builders the wrapper was handed."""
    charts = []
    real = reduction._reduce_last_row

    def reduce_or_break(builder):
        charts.append(builder)
        if len(charts) <= broken:
            raise NumericalBreakdown(f"chart {len(charts)} broke down")
        return real(builder)

    monkeypatch.setattr(reduction, "_reduce_last_row", reduce_or_break)
    return charts


def test_classify_redraws_the_chart_after_a_breakdown(monkeypatch):
    # an orbit sample's first chart holds, so it is made to break down here; the
    # vanishing-corner inputs below break down on their own
    metric = _orbit_sample(2, "2", 6, seed=11)
    m, _, _ = _factor_metric(metric)
    charts = _breaking_charts(monkeypatch, 1)
    form, _, witness = classify(metric)
    assert len(charts) == 2 and form.pair == (2, "2")
    # the witness is chart 2's: its m-factor is m R for the first redraw's R
    assert np.array_equal(witness.m_factor, m.dot(reduction._chart(6, 1)[0]))
    assert verify_witness(metric, witness).ok


def test_classify_raises_the_last_breakdown_when_every_chart_breaks(monkeypatch):
    charts = _breaking_charts(monkeypatch, math.inf)
    last = reduction.MAX_RETRIES + 1
    with pytest.raises(NumericalBreakdown, match=f"^chart {last} broke down$"):
        classify(_orbit_sample(2, "2", 6, seed=11))
    assert len(charts) == last


def _sheared_gram(lam, xi, n, entry, at=(2, 0)):
    """The canonical Gram matrix pushed forward by I + entry E_at, E_31 by default
    (|det| = 1)."""
    g = np.eye(n)
    g[at] = entry
    return act(g, _float_metric(canonical_gram(lam, xi, n, exact=False))).gram


#: (1, 1) at n = 4 pushed by I + 100 E_13: its first chart's witness misses by 2.7e-2
_UNSOUND_FIRST_CHART = _sheared_gram(1, 1.0, 4, 100.0, at=(0, 2))


@pytest.mark.parametrize(
    "gram",
    [_sheared_gram(1, 1.0, 5, 100.0), _UNSOUND_FIRST_CHART],
    ids=["large-t", "large-t-unsound-first-chart"],
)
def test_chart_dependent_t_still_redraws(gram, count_calls):
    # t above T_RETRY_MAX depends on the chart; a unit-determinant shear keeps
    # the input scale at 1, so the scale normalization cannot remove it
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    metric = _float_metric(gram)
    _, _, witness = classify(metric)
    assert len(charts) > 1
    assert verify_witness(metric, witness).ok


def test_large_t_redraw_is_what_makes_the_witness_sound(monkeypatch):
    # without the redraw the first chart's witness is returned, flagged, and fails
    monkeypatch.setattr(reduction, "MAX_RETRIES", 0)
    metric = _float_metric(_UNSOUND_FIRST_CHART)
    form, _, witness = classify(metric)
    assert form.pair == (1, "1") and witness.flags == ["RetriesExhausted"]
    assert not verify_witness(metric, witness).ok


def _corner_inputs():
    """Inputs whose first chart leaves a vanishing (3, 3) corner, each with its class:
    diag(1, ..., -1, ..., 1) with the -1 at position 3 .. n-1, n = 4..12, and the
    canonical (0, 0) Gram matrix pushed by I + c E_(i,n), i = 3 .. n-1, n = 4..10."""
    for n in range(4, 13):
        for pos in range(2, n - 1):
            d = np.ones(n)
            d[pos] = -1.0
            yield f"diag n={n} -1 at {pos + 1}", _float_metric(np.diag(d)), (2, "2")
    for n in range(4, 11):
        for c, pair in ((1.0, (1, "1")), (-1.0, (1, "1")), (2.0, (2, "2"))):
            for i in range(2, n - 1):
                gram = _sheared_gram(0, 0.0, n, c, at=(i, n - 1))
                yield f"(0, 0) n={n} c={c} E_{i + 1}{n}", _float_metric(gram), pair


def test_a_vanishing_corner_redraws_the_chart(monkeypatch, count_calls):
    inputs = list(_corner_inputs())
    assert len(inputs) == 129
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    for label, metric, pair in inputs:
        before = len(charts)
        form, _, witness = classify(metric)
        assert form.pair == pair, label
        assert verify_witness(metric, witness).ok, label
        assert len(charts) - before == 2, label
    # the first chart breaks down on the corner itself
    monkeypatch.setattr(reduction, "MAX_RETRIES", 0)
    for label, metric, _ in inputs:
        with pytest.raises(NumericalBreakdown, match="vanishing"):
            classify(metric)


@pytest.mark.parametrize("n", (4, 5, 8))
def test_lambda2_branch_point_classifies_on_first_chart(n, count_calls):
    # the closed-form root has no steep equation to solve near t = 0
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    for k in range(3, 10):
        metric = _float_metric(canonical_gram(2, 10.0**-k, n, exact=False))
        form, _, witness = classify(metric)
        assert form.pair == (2, "0"), k
        assert verify_witness(metric, witness).ok, k
        assert len(charts) == k - 2, k


#: scaled light-cone classes: their t grows with the input scale unless classify removes it
_SCALED_LAMBDA1 = [(1, xi, (1, key), 10.0**e) for key, xi in (("0", 0.0), ("1", 1.0))
                   for e in range(3, 7)]

_NEAR_WALLS = (
    [(2, SQRT3 - 10.0**-k, (2, "0"), 1.0) for k in range(1, 6)]
    + [(2, SQRT3 + 10.0**-k, (2, "2"), 1.0) for k in range(1, 6)]
    + [(1, 10.0**-k, (1, "1"), 1.0) for k in range(1, 4)]
    + [(2, SQRT3 - 1e-6, (2, "0"), 1.0), (2, SQRT3 + 1e-6, (2, "2"), 1.0)]
    + _SCALED_LAMBDA1
)


def _near_wall_id(i, lam, xi, scale):
    # the unscaled cases keep the ids they had before the scaled ones were added
    return f"{lam}-{xi}-truth{i}" if scale == 1.0 else f"{lam}-{xi}-x{scale:.0e}"


@pytest.mark.parametrize(
    "lam, xi, truth, scale",
    _NEAR_WALLS,
    ids=[_near_wall_id(i, lam, xi, scale) for i, (lam, xi, _, scale) in enumerate(_NEAR_WALLS)],
)
def test_near_wall_sweep_gives_true_class_and_sound_witness(lam, xi, truth, scale):
    for n in range(4, 9):
        base = _float_metric(scale * canonical_gram(lam, xi, n, exact=False))
        for seed in range(3):
            metric = act(_pattern_element(n, seed), base)
            form, _, witness = classify(metric)
            assert form.pair == truth, (n, seed)
            assert verify_witness(metric, witness).ok, (n, seed)


@pytest.mark.parametrize("lam, xi, truth, scale", _SCALED_LAMBDA1)
def test_scaled_lambda1_inputs_take_one_chart(lam, xi, truth, scale, count_calls):
    # the input scale is normalized before the reduction, so it no longer
    # pushes t above T_RETRY_MAX on every chart
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    for n in range(4, 9):
        base = _float_metric(scale * canonical_gram(lam, xi, n, exact=False))
        for seed in range(3):
            charts.clear()
            form, _, _ = classify(act(_pattern_element(n, seed), base))
            assert form.pair == truth, (n, seed)
            assert len(charts) == 1, (n, seed)


#: classes whose scale k is unique (their orbits do not absorb rescaling)
_RIGID = ((0, "0"), (2, "0"), (2, "2"))


#: 10^-100 ... 10^100 in steps of ten decades
_SCALES = [10.0**e for e in range(-100, 101, 10)]


def test_classify_is_scale_invariant():
    # c * M has the class of M for both classifiers, the flagged reader and
    # the restricted signatures, and a sound witness, and its k is k(M) / c:
    # 6 classes x n in (4, 6, 8) x 3 elements x 21 scales
    wrong = []
    for pair in CANONICAL_PAIRS:
        for n in (4, 6, 8):
            sigs = signature_table(n)[pair]
            for seed in range(3):
                metric = _orbit_sample(pair[0], pair[1], n, seed)
                form1, k1, _ = classify(metric)
                assert form1.pair == pair
                for c in _SCALES:
                    scaled = _float_metric(c * metric.gram)
                    try:
                        form, k, witness = classify(scaled)
                        got = (
                            form.pair,
                            classify_by_invariants(scaled).pair,
                            classify_by_invariants_flagged(scaled)[0].pair,
                        )
                        center, derived = restricted_signatures(scaled)
                        ok = verify_witness(scaled, witness)
                    except (ValueError, RuntimeError) as exc:
                        wrong.append((pair, n, seed, c, repr(exc)))
                        continue
                    if (
                        got != (pair, pair, pair)
                        or (center, derived) != sigs
                        or not ok
                    ):
                        wrong.append((pair, n, seed, c, got, ok.detail))
                    elif pair in _RIGID and abs(k * c - k1) > 1e-12 * k1:
                        wrong.append((pair, n, seed, c, k * c, k1))
    assert not wrong, (len(wrong), wrong[:5])


#: scaled inputs that absolute thresholds get wrong: a singularity test reading
#: the 2^-e the first left factor carries (n = 8, unsound witness), and a zero
#: band refusing a small metric (n = 4, WrongSignature)
_SCALE_DEFECTS = {"n8-x1e79": (8, 1e79), "n8-x1e80": (8, 1e80),
                  "n4-x1e-9": (4, 1e-9), "n4-x1e-10": (4, 1e-10)}


@pytest.mark.parametrize("n, c", _SCALE_DEFECTS.values(), ids=_SCALE_DEFECTS)
def test_scaled_canonical_gram_classifies_soundly(n, c):
    metric = _float_metric(c * canonical_gram(2, 2.0, n, exact=False))
    form, _, witness = classify(metric)
    assert form.pair == classify_by_invariants(metric).pair == (2, "2")
    assert verify_witness(metric, witness).ok


#: gram scales at the floor of the float range: 3e-308 is a normal float, the rest subnormal
_TINY_SCALES = (3e-308, 1e-308, 5e-309, 1e-309, 1e-312, 1e-318, 5e-324)


def _or_out_of_range(read):
    """read(), or None when it refuses the metric's scale."""
    try:
        return read()
    except ValueError as exc:
        assert str(exc) == "the metric's scale is outside the float range", exc
        return None


@pytest.mark.parametrize("s", _TINY_SCALES)
def test_tiny_scale_gives_the_class_or_scale_out_of_range(s):
    # an overflowing 4^-e or k would warn (an error under pytest), and a subnormal gram
    # has lost the digits its class is read from: each reader answers right or refuses
    classified = 0
    for pair in CANONICAL_PAIRS:
        for n in (4, 6, 8):
            metric = _float_metric(s * canonical_gram(pair[0], xi_float(pair[1]), n, exact=False))
            result = _or_out_of_range(lambda: classify(metric))
            if result is not None:
                classified += 1
                assert result[0].pair == pair and verify_witness(metric, result[2]).ok
            assert _or_out_of_range(lambda: classify_by_invariants(metric).pair) in (pair, None)
            sigs = signature_table(n)[pair]
            assert _or_out_of_range(lambda: restricted_signatures(metric)) in (sigs, None)
    if s == _TINY_SCALES[0]:
        assert classified == len(CANONICAL_PAIRS) * 3


#: powers of ten on the exact canonical grams: inside the float range, and beyond it
_EXACT_EXPONENTS_IN, _EXACT_EXPONENTS_OUT = (-300, -200, 200, 300, 305), (-400, -310, 310, 400)


@pytest.mark.parametrize("e", _EXACT_EXPONENTS_IN + _EXACT_EXPONENTS_OUT)
def test_exact_metric_at_extreme_scale_gives_the_class_or_scale_out_of_range(e):
    # the exact invariant reader is scale-free; classify and the float copy need the
    # float range, and beyond it raise the typed error a float gram gets
    scale = QSqrt3(Fraction(10) ** e)
    for pair in CANONICAL_PAIRS:
        for n in (4, 6, 8):
            metric = Metric(canonical_metric(pair[0], pair[1], n)[0].gram * scale, backend=EXACT)
            assert classify_by_invariants(metric).pair == pair
            if e in _EXACT_EXPONENTS_IN:
                form, _, witness = classify(metric)
                assert form.pair == pair and verify_witness(metric, witness).ok
                continue
            for read in (lambda: classify(metric), lambda: classify(metric.to_approx())):
                with pytest.raises(ValueError, match="^the metric's scale is outside the float"):
                    read()


@pytest.mark.parametrize("pair", _RIGID)
def test_overflowing_scale_k_is_refused(pair):
    # 4^-e is finite here, so the invariant reader answers, but k ~ 1e308 is not
    metric = _float_metric(1e-308 * _orbit_sample(pair[0], pair[1], 4, 0).gram)
    assert classify_by_invariants(metric).pair == pair
    with pytest.raises(ValueError, match="scale is outside the float range"):
        classify(metric)


def _rational_pattern_element(n, seed):
    """Exact I plus entries k/6, |k| <= 3, on the automorphism pattern."""
    ks = np.random.default_rng(seed).integers(-3, 4, (n, n)) * aut_pattern(n).mask
    return exact_array([[Fraction(int(k), 6) + (i == j) for j, k in enumerate(row)]
                        for i, row in enumerate(ks)])


@pytest.mark.parametrize("n", range(4, 9))
def test_classify_is_invariant_under_exact_action(n):
    # the truth is exact: an exact pattern element pushes the exact canonical
    # Gram matrix forward, and only the result is rounded to float
    elements = [_rational_pattern_element(n, seed) for seed in range(10)]
    elements = [g for g in elements if exact_rank(g) == n][:3]
    assert len(elements) == 3
    for pair in CANONICAL_PAIRS:
        exact, _ = canonical_metric(pair[0], pair[1], n)
        for g in elements:
            metric = _float_metric(to_float(act(g, exact).gram))
            form, _, witness = classify(metric)
            assert form.pair == pair
            assert verify_witness(metric, witness).ok


def test_approx_metric_of_a_qsqrt3_gram_classifies_as_its_float_copy():
    # the approx backend holds float64 whatever it is given, as the exact one holds QSqrt3
    exact, _ = canonical_metric(2, "2", 5)
    approx = Metric(gram=exact.gram, backend=APPROX)
    assert approx.gram.dtype == np.float64
    form, k, witness = classify(approx)
    ref_form, ref_k, ref = classify(exact.to_approx())
    assert form.pair == ref_form.pair == (2, "2") and k == ref_k
    for name in ("left", "right", "start", "target", "m_factor"):
        assert np.array_equal(getattr(witness, name), getattr(ref, name)), name
    assert verify_witness(approx, witness).ok
    assert classify_by_invariants(approx).pair == (2, "2")
    assert restricted_signatures(approx) == restricted_signatures(exact)


_IN_BAND = (
    [(2, SQRT3 + sign * d, ((2, key), (2, "sqrt3")))
     for d in (1e-7, 1e-8) for sign, key in ((-1, "0"), (1, "2"))]
    + [(1, d, ((1, "1"), (1, "0"))) for d in (1e-7, 1e-8)]
)


@pytest.mark.parametrize("lam, xi, candidates", _IN_BAND)
def test_in_band_wall_inputs_raise_ambiguous(lam, xi, candidates, count_calls):
    # t between SNAP_LIMIT and WALL_BAND from the wall: decided on the first
    # chart, never retried
    charts = count_calls(reduction, "_reduce_last_row")  # one call per chart
    for n in range(4, 9):
        base = _float_metric(canonical_gram(lam, xi, n, exact=False))
        for seed in range(3):
            with pytest.raises(AmbiguousNearWall) as info:
                classify(act(_pattern_element(n, seed), base))
            assert info.value.candidates == candidates, (n, seed)
            assert SNAP_LIMIT < abs(info.value.statistic) <= WALL_BAND, (n, seed)
    assert len(charts) == 15


@pytest.mark.parametrize("pair", [(2, "sqrt3"), (1, "0")])
def test_exact_wall_samples_are_never_ambiguous(pair):
    for n in range(4, 9):
        for seed in range(10):
            metric = _orbit_sample(pair[0], pair[1], n, seed)
            form, _, witness = classify(metric)
            assert form.pair == pair, (n, seed)
            assert verify_witness(metric, witness).ok, (n, seed)


# -- stacked checks against per-factor references ---------------------------------


def _verify_witness_reference(metric, witness, tol=1e-8):
    """The per-factor loop that verify_witness stacks; kept as its reference.

    Each size test is relative to what it compares, and a factor is singular
    when |det|^(1/n) falls below float64's unit roundoff times its largest entry.
    """
    n = witness.n
    problems = []
    if witness.m_factor is None:
        return VerificationResult(False, math.inf, "witness has no m-factor")
    m = witness.m_factor
    gram = to_float(metric.gram)
    minv = np.linalg.inv(m)
    gram_res = float(np.max(np.abs(minv.T @ minkowski_gram(n) @ minv - gram)))
    if gram_res > tol * float(np.max(np.abs(gram))):
        problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
    start_res = float(np.max(np.abs(np.linalg.inv(m).T - witness.start)))
    if start_res > tol * max_abs(witness.start):
        problems.append("start matrix is not the transpose-inverse of m")
    mask = aut_pattern(n).mask.T
    ipq = minkowski_gram(n)
    for idx, h in enumerate(witness.left):
        outside = float(np.max(np.abs(to_float(h)[~mask]))) if n else 0.0
        if outside > tol:
            problems.append(f"left factor {idx} violates the pattern ({outside:.2e})")
        hf = to_float(h)
        det = abs(np.linalg.det(hf))
        if det == 0.0 or det ** (1.0 / n) < 2.0**-52 * float(np.max(np.abs(hf))):
            problems.append(f"left factor {idx} is singular")
    for idx, kmat in enumerate(witness.right):
        kf = to_float(kmat)
        dev = float(np.max(np.abs(kf.T @ ipq @ kf - ipq)))
        if dev > tol * float(np.max(np.abs(kf))) ** 2:
            problems.append(f"right factor {idx} is not pseudo-orthogonal ({dev:.2e})")
    residual = float(np.max(np.abs(witness.product() - witness.target)))
    if residual > tol:
        problems.append(f"chain product misses the target by {residual:.2e}")
    return VerificationResult(not problems, residual, "; ".join(problems))


def _pattern_element(n, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) + 0.3 * rng.standard_normal((n, n)) * aut_pattern(n).mask


def _orbit_sample(lam, xi_key, n, seed):
    metric, _ = canonical_metric(lam, xi_key, n, backend=APPROX)
    return act(_pattern_element(n, seed), metric)


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


def _long_lambda1_chain(n, t=2.0**-17):
    """The lam=1 stage's witness from the t-form at t, m and the metric read off its exact
    start, so that it checks as a classified metric does.  t = 2^-17 takes 16 boosts, more
    than classify reaches before the invariant band; every boosted t is a power of 2, so
    the chain is exact, where near t = 1e-5 it misses its target by up to 2e-7."""
    _, witness = reduce_lambda1(t, n)
    witness.m_factor = np.linalg.inv(witness.start).T
    gram = witness.start @ shared_minkowski_gram(n) @ witness.start.T
    return Metric(gram=gram, backend=APPROX), witness


@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@pytest.mark.parametrize(
    "pair, n", [((2, "0"), 5), ((1, "1"), 8), ((0, "0"), 4), ("l1-chain", 6)]
)
def test_verify_witness_matches_per_factor_reference(pair, n, corruption):
    corrupt, expected = _CORRUPTIONS[corruption]
    if pair == "l1-chain":
        metric, witness = _long_lambda1_chain(n)
        assert len(witness.right) >= 16  # the boosts and the final rotation
    else:
        metric = _orbit_sample(pair[0], pair[1], n, seed=n)
        _, _, witness = classify(metric)
    witness = corrupt(witness)
    got = verify_witness(metric, witness)
    ref = _verify_witness_reference(metric, witness)
    assert (got.ok, got.residual, got.detail) == (ref.ok, ref.residual, ref.detail)
    assert got.ok == (expected == "") and expected in got.detail


def _with_nan(i, j):
    """A corruption that writes a NaN at (i, j) of a factor."""

    def write(factor):
        factor[i, j] = math.nan
        return factor

    return write


def _bits(result):
    """A verification result as data that tells every residual bit apart, a NaN included."""
    return result.ok, type(result.residual), np.float64(result.residual).tobytes(), result.detail


def _at_singular_ratio(margin):
    """A corruption that scales the row of a left factor with the smallest largest entry,
    so that |det|^(1/n) reads margin * SINGULAR_RATIO * (largest entry): the zeros of the
    pattern stay zero, and another row keeps the largest entry."""

    def scale(h):
        n, rows = len(h), np.abs(h).max(axis=1)
        root = math.exp(np.linalg.slogdet(h)[1] / n)
        h[int(np.argmin(rows))] *= (margin * SINGULAR_RATIO * rows.max() / root) ** n
        return h

    return scale


_ONE_PASS_CORRUPTIONS = {
    **_CORRUPTIONS,
    # |det|^(1/n) a relative 1e-6 below and above the singularity threshold
    "singular-threshold-below": (
        lambda w: _corrupt(w, "left", 0, _at_singular_ratio(1.0 - 1e-6)),
        "left factor 0 is singular; chain product misses the target",
    ),
    "singular-threshold-above": (
        lambda w: _corrupt(w, "left", 0, _at_singular_ratio(1.0 + 1e-6)),
        "chain product misses the target",
    ),
    "m": (
        lambda w: setattr(w, "m_factor", w.m_factor + 1e-3) or w,
        "m-factor does not reproduce the metric",
    ),
    # (n, 1) lies outside the transposed pattern, so this left factor fails both its tests
    "nan-left": (
        lambda w: _corrupt(w, "left", 0, _with_nan(-1, 0)),
        "left factor 0 violates the pattern (nan); left factor 0 is singular; ",
    ),
    "nan-right": (
        lambda w: _corrupt(w, "right", 0, _with_nan(0, 0)),
        "right factor 0 is not pseudo-orthogonal (nan); chain product misses the target by nan",
    ),
    "nan-both": (
        lambda w: _corrupt(_corrupt(w, "left", 1, _with_nan(0, 0)), "right", 1, _with_nan(0, 0)),
        "left factor 1 is singular; right factor 1 is not pseudo-orthogonal (nan); chain",
    ),
    "no-factors": (
        lambda w: setattr(w, "left", []) or setattr(w, "right", []) or w,
        "chain product misses the target",
    ),
    # inv raises on it, where a NaN m-factor reads as a miss
    "singular-m": (
        lambda w: setattr(w, "m_factor", np.zeros_like(w.m_factor)) or w,
        "m-factor is singular",
    ),
}


@pytest.mark.parametrize("corruption", sorted(_ONE_PASS_CORRUPTIONS))
def test_verify_witness_matches_the_by_side_reference(corruption):
    """The one-pass verify_witness gives the by-side reference's ok, residual bits and
    detail, on orbit samples of the six classes at n = 4..8."""
    corrupt, expected = _ONE_PASS_CORRUPTIONS[corruption]
    rng = np.random.default_rng(2400)
    for pair in CANONICAL_PAIRS:
        for n in range(4, 9):
            metric = random_orbit_metric(pair, n, rng)
            witness = corrupt(classify(metric)[2])
            got = verify_witness(metric, witness)
            assert _bits(got) == _bits(verify_witness_by_side(metric, witness))
            assert expected in got.detail



def test_singular_verdict_turns_at_the_threshold():
    """A left factor at |det|^(1/n) = SINGULAR_RATIO * (largest entry) * (1 -+ 1e-6) reads
    singular below the threshold and not above it, in every class at n = 4..8."""
    rng = np.random.default_rng(2400)
    for pair in CANONICAL_PAIRS:
        for n in range(4, 9):
            witness = classify(random_orbit_metric(pair, n, rng))[2]
            for margin, singular in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
                h = _at_singular_ratio(margin)(witness.left[0].copy())
                assert linalg.is_singular(h[None]) == [singular]
                assert linalg.is_singular(np.stack([witness.left[-1], h])) == [False, singular]


def test_classify_shares_one_read_only_target():
    """Every witness of a class and size carries the one read-only representative: a write
    to it raises, and 100 classifications leave its bytes as built."""
    rng = np.random.default_rng(2700)
    targets = {}
    for i in range(100):
        pair, n = CANONICAL_PAIRS[i % 6], 4 + i % 5
        target = classify(random_orbit_metric(pair, n, rng))[2].target
        assert target is representative_matrix(*pair, n) and not target.flags.writeable
        targets[pair, n] = target
    for (pair, n), target in targets.items():
        with pytest.raises(ValueError, match="read-only"):
            target[0, 0] = 2.0
        assert target.tobytes() == reduction._t_form(pair[0], xi_float(pair[1]), n).tobytes()


#: the float LAPACK kernels by the modules that call them
_LAPACK = {linalg: ("inv", "eigh", "eigvalsh", "det", "slogdet", "_nan_slogdet", "_qr_r_raw",
                    "_qr_reduced"), reduction: ("inv", "eigvalsh", "qr_q")}


def test_classify_builds_reflectors_and_rotations_at_full_size(count_calls):
    """One classify of each class at n = 6 calls embed for the O(1, 1) block and the lam
    stages' blocks alone: its reflectors and rotations are built at full size.  Its
    verify_witness makes two LAPACK calls, the m-factor's inverse and one stacked slogdet."""
    n = 6
    o11, stage = (0, n - 1), (0, 1, n - 2, n - 1)
    embeds = count_calls(reduction, "embed")
    lapack = {(m.__name__, k): count_calls(m, k) for m, names in _LAPACK.items() for k in names}
    rng = np.random.default_rng(2800)
    for pair in CANONICAL_PAIRS:
        metric = random_orbit_metric(pair, n, rng)
        embeds.clear()
        form, _, witness = classify(metric)
        assert form.pair == pair
        coords = [tuple(args[2]) for args in embeds]
        assert coords[0] == o11 and set(coords) <= {o11, stage}, (pair, coords)
        for calls in lapack.values():
            calls.clear()
        assert verify_witness(metric, witness).ok
        made = {key: len(calls) for key, calls in lapack.items() if calls}
        assert made == {("heislor.reduction", "inv"): 1, ("heislor._linalg", "_nan_slogdet"): 1}


def test_exact_invariant_readers_check_the_gram_once(count_calls):
    """An exact gram is checked when its Metric is made; classify and the invariant readers
    then read its blocks unchecked, where signature_of keeps refusing bad input."""
    made = [canonical_metric(*pair, n, backend=EXACT)[0] for pair in CANONICAL_PAIRS
            for n in (4, 6)]
    checks = count_calls(metrics, "_check_symmetric")
    for metric in made:
        pair = classify(metric)[0].pair
        assert classify_by_invariants(metric).pair == pair
        assert classify_by_invariants_flagged(metric)[0].pair == pair
        assert restricted_signatures(metric) == signature_table(metric.n)[pair]
    assert checks == []
    with pytest.raises(ValueError, match="not a finite number"):
        signature_of(np.array([[1.0, 0.0], [0.0, np.nan]]))
    for asymmetric in (np.array([[0.0, 1.0], [0.0, 0.0]]), exact_array([[0, 1], [0, 0]])):
        with pytest.raises(AsymmetricInput):
            signature_of(asymmetric)
    assert len(checks) == 3


def test_verify_witness_fails_a_size_mismatch_naming_both_sizes():
    """A metric, factor, start, target or m-factor that is not n x n for the witness's n
    fails the check with both sizes named, where numpy's broadcast ValueError escaped."""
    rng = np.random.default_rng(2500)
    metric4, metric5 = (random_orbit_metric((2, "0"), n, rng) for n in (4, 5))
    witness = classify(metric5)[2]
    assert verify_witness(metric5, witness).ok
    got = verify_witness(metric4, witness)
    assert (got.ok, got.residual) == (False, math.inf)
    assert got.detail == "metric is 4x4, the witness 5x5"
    # a 4x4 left factor in the 5x5 chain
    short = classify(metric5)[2]
    short.left[1] = np.eye(4)
    got = verify_witness(metric5, short)
    assert (got.ok, got.residual) == (False, math.inf)
    assert got.detail == "left factor 1 is 4x4, the witness 5x5"
    # every factor 4x4, so they stack: the stack's shape tells them apart from the start
    for side in ("left", "right"):
        whole = classify(metric5)[2]
        assert getattr(whole, side)
        setattr(whole, side, [np.eye(4)] * len(getattr(whole, side)))
        assert verify_witness(metric5, whole).detail == "; ".join(
            f"{side} factor {i} is 4x4, the witness 5x5" for i in range(len(getattr(whole, side)))
        )
    for name in ("target", "m_factor"):
        bad = classify(metric5)[2]
        setattr(bad, name, np.eye(5)[:, :4])
        label = name.replace("_", "-")
        assert verify_witness(metric5, bad).detail == f"{label} is 5x4, the witness 5x5"
    bad = classify(metric5)[2]
    bad.start = bad.start[:, :4]
    assert verify_witness(metric5, bad).detail == "start is 5x4, the witness 5x5"


def _reference_read(gram, tol=1e-9, margin=100.0):
    """Restricted signatures of a unit-scale float gram, and whether it is near-degenerate,
    read vectorized in numpy, independently of the package's float reader: one eigvalsh
    per block, each eigenvalue zero within tol * max(1, spectral radius) of its block,
    and near-degenerate strictly within a factor `margin` of that band.

    tol and margin are the library's fixed DEFAULT_TOL and NEAR_DEGENERATE_MARGIN.
    """
    sigs, near = [], False
    for block in (gram[2:, 2:], gram[-1:, -1:]):
        eigs = np.linalg.eigvalsh(block)
        mags = np.abs(eigs)
        band = tol * mags.max(initial=1.0)
        signs = (np.sign(eigs) * (mags > band)).astype(int).tolist()
        sigs.append((signs.count(1), signs.count(-1), signs.count(0)))
        near |= bool(((mags > band / margin) & (mags < band * margin)).any())
    return tuple(sigs), near


def _invariants_reference(metric):
    """The table row and flags of a metric: exact signs for an exact one (congruence,
    no band), _reference_read of the unit-scale gram for a float one."""
    if metric.backend == EXACT:
        key, near = restricted_signatures(metric), False
    else:
        key, near = _reference_read(_unit_gram(metric)[0])
    pair = next((p for p, sigs in signature_table(metric.n).items() if sigs == key), None)
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


_BAND = 1e-9  # DEFAULT_TOL * max(1, spectral radius) for a center whose largest |eigenvalue| is 1
#: center eigenvalues on the edges of that band: on it, on its near-degenerate margins, and 0
_BAND_EDGES = tuple(
    sign * v for v in (_BAND, _BAND / 100.0, _BAND * 100.0, 0.0) for sign in (1.0, -1.0)
)


def _band_edge_grams(n):
    """Diagonal unit-scale grams whose center is all ones but for one entry on a band
    edge, first in the center or last (the derived ideal); the (1, 1) entry keeps
    |det| at 1, so the unit scale leaves every entry as it is."""
    grams = []
    for edge in _BAND_EDGES:
        for slot in (2, n - 1):
            diag = np.ones(n)
            diag[slot] = edge
            diag[0] = 1.0 / abs(edge) if edge else 1.0
            grams.append(np.diag(diag))
    return np.stack(grams)


def _reader_stacks():
    """Stacks of unit-scale grams, one n and one backend each: the degeneration
    graph's curve grams, the near-wall metrics, orbit samples and band-edge grams."""
    for n in range(4, 11):
        grams = [canonical_gram(*fam.params(t), n, exact=False) for fam, t, _ in _curve_points()]
        assert len(grams) == 72
        yield f"curves-n{n}", APPROX, np.stack(grams)
    groups = {}
    for metric in _near_wall_metrics():
        groups.setdefault((metric.n, metric.backend), []).append(_unit_gram(metric)[0])
    for (n, backend), grams in groups.items():
        yield f"near-wall-n{n}-{backend}", backend, np.stack(grams)
    for n in range(4, 9):
        grams = [
            _unit_gram(_orbit_sample(lam, key, n, seed))[0]
            for lam, key in CANONICAL_PAIRS
            for seed in range(5)
        ]
        yield f"orbit-n{n}", APPROX, np.stack(grams)
    for n in (5, 8):
        yield f"band-edges-n{n}", APPROX, _band_edge_grams(n)


def test_stacked_reader_matches_reference_per_gram():
    flagged = 0
    for name, backend, grams in _reader_stacks():
        got = [(form.pair, flags) for form, flags in reduction._classify_grams(grams)]
        want = [_invariants_reference(Metric(gram=gram, backend=backend)) for gram in grams]
        assert got == want, name
        flagged += sum(bool(flags) for _, flags in got)
    assert flagged  # the band is exercised, not only the clean side of it


def _degenerate_stack(backend):
    """The six canonical grams at n = 5, with grams 2 and 4 matching no class."""
    grams = [canonical_metric(lam, key, 5, backend=backend)[0].gram for lam, key in CANONICAL_PAIRS]
    diag = np.diag([1, 1, 0, 1, -1]).tolist()  # a zero center eigenvalue beside a timelike one
    for i in (2, 4):
        grams[i] = exact_array(diag) if backend == EXACT else np.array(diag, dtype=float)
    return np.stack(grams)


@pytest.mark.parametrize("backend", [APPROX, EXACT])
def test_stacked_reader_names_the_first_bad_gram(backend):
    with pytest.raises(NoTableMatch, match=r"^gram 2: signatures \(\(1, 1, 1\), \(0, 1, 0\)\)"):
        reduction._classify_grams(_degenerate_stack(backend))


def test_band_edges_read_as_the_numpy_reference():
    """Eigenvalues exactly on the zero band's edges: on the band is zero and flagged,
    on a margin is not flagged, and beyond the band keeps its sign.  The stacked
    reader, the flagged reader and signature_of each agree with the reference."""
    for n in (5, 8):
        grams = _band_edge_grams(n)
        centers = np.linalg.eigvalsh(grams[:, 2:, 2:])
        assert np.array_equal(centers, np.sort(np.diagonal(grams[:, 2:, 2:], axis1=1, axis2=2)))
        assert all(np.linalg.eigvalsh(g[2:, 2:]).tolist() == c.tolist() for g, c in zip(grams, centers))
        stacked = reduction._classify_grams(grams)
        for gram, edge, (form, flags) in zip(grams, np.repeat(_BAND_EDGES, 2), stacked):
            key, near = _reference_read(gram)
            pair = next(p for p, sigs in signature_table(n).items() if sigs == key)
            assert (form.pair, flags) == (pair, ["NearDegenerate"] if near else [])
            assert classify_by_invariants_flagged(Metric(gram=gram)) == (form, flags)
            assert tuple(signature_of(b) for b in (gram[2:, 2:], gram[-1:, -1:])) == key
            assert near == (abs(edge) == _BAND)
            assert sum(key[0][:2]) == n - 2 - (abs(edge) <= _BAND)


def test_each_gram_reads_alone_as_in_its_stack():
    """One path for every batch size: each gram read as a batch of one gives its
    stacked read's class and flags, and a stack with a bad gram raises the NoTableMatch
    of its first bad gram."""
    def read(grams):
        try:
            return [(form.pair, flags) for form, flags in reduction._classify_grams(grams)]
        except NoTableMatch as exc:
            return str(exc)

    stacks = [(name, grams) for name, _, grams in _reader_stacks()]
    stacks += [(f"degenerate-{backend}", _degenerate_stack(backend)) for backend in (APPROX, EXACT)]
    raised = 0
    for name, grams in stacks:
        alone = [read(grams[i : i + 1]) for i in range(len(grams))]
        bad = [i for i, got in enumerate(alone) if isinstance(got, str)]
        if bad:
            want = alone[bad[0]].replace("gram 0:", f"gram {bad[0]}:", 1)
            raised += 1
        else:
            want = [got[0] for got in alone]
        assert read(grams) == want, name
    assert raised == 2


@pytest.mark.parametrize(
    "backend, offset",
    [(APPROX, 0.5), (EXACT, QSqrt3(Fraction(1, 2))), (EXACT, QSqrt3(Fraction(1, 10**12)))],
    ids=["approx", "exact", "exact-tiny"],
)
@pytest.mark.parametrize("entry", [(0, 1), (2, 3)], ids=["outside-center", "in-center"])
def test_readers_refuse_an_asymmetric_gram(entry, backend, offset):
    # the (2, 0) gram at n = 5 with one entry off; outside the center both restricted
    # blocks stay symmetric, so only the check of the whole gram sees it.  An exact
    # gram must be exactly symmetric, also below the float tolerance.  The Metric
    # refuses it when it is made, and a made Metric's gram refuses a write, so no
    # reader can be handed an asymmetric gram.
    valid = canonical_metric(2, "0", 5, backend=backend)[0]
    gram = valid.gram.copy()
    gram[entry] = gram[entry] + offset
    with pytest.raises(AsymmetricInput):
        Metric(gram=gram, backend=backend)
    with pytest.raises(ValueError, match="read-only"):
        valid.gram[entry] = gram[entry]
    assert valid.gram[entry] == valid.gram[entry[::-1]]


@pytest.mark.parametrize("pair", CANONICAL_PAIRS)
def test_float_gram_asymmetric_within_the_tolerance_still_classifies(pair):
    # a float gram is symmetric within DEFAULT_TOL relative; one entry off by 1e-12 of the
    # largest must read as the symmetric gram does, off by 1e-7 it is refused when the
    # Metric is made
    metric = _orbit_sample(pair[0], pair[1], 6, seed=11)
    for offset, readable in ((1e-12, True), (1e-7, False)):
        gram = metric.gram.copy()
        gram[0, 3] += offset * np.abs(gram).max()
        if not readable:
            with pytest.raises(AsymmetricInput):
                Metric(gram=gram, backend=APPROX)
            continue
        skewed = Metric(gram=gram, backend=APPROX)
        form, _, witness = classify(skewed)
        assert form.pair == pair and verify_witness(skewed, witness).ok
        assert classify_by_invariants(skewed).pair == pair
        assert restricted_signatures(skewed) == restricted_signatures(metric)


def test_a_metric_is_checked_symmetric_once_when_it_is_made(count_calls):
    """The symmetry check runs once per Metric built, on the gram it keeps, and not
    again in the float readers, which take a Metric's gram as checked."""
    calls = count_calls(metrics, "_check_symmetric")
    for (lam, key), n in ((pair, n) for pair in CANONICAL_PAIRS for n in (4, 6)):
        metric = _orbit_sample(lam, key, n, seed=3)  # canonical_metric's Metric, then act's
        assert len(calls) == 2 and calls[-1][0] is metric.gram
        form, _, witness = classify(metric)
        assert form.pair == (lam, key) and verify_witness(metric, witness).ok
        assert classify_by_invariants(metric).pair == (lam, key)
        assert classify_by_invariants_flagged(metric)[0].pair == (lam, key)
        assert restricted_signatures(metric) == signature_table(n)[lam, key]
        assert len(calls) == 2
        calls.clear()
