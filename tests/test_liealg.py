"""Lie algebra structure: brackets, center, derivations, block pattern."""

import numpy as np
import pytest

from heislor.liealg import (
    DimensionTooSmall,
    aut_pattern,
    bracket_vec,
    build_algebra,
    center_and_derived,
    derivation_basis,
    derivation_space_dim,
    hprime_pattern,
    pattern_decomposition,
)
from heislor._linalg import exact_array, exact_rank, to_float


def test_build_algebra_examples():
    for n in (4, 5):
        alg = build_algebra(n)
        e1 = np.eye(n)[0]
        e2 = np.eye(n)[1]
        out = bracket_vec(alg, e1, e2)
        expected = np.zeros(n)
        expected[n - 1] = 1.0
        assert np.array_equal(out, expected)
    with pytest.raises(DimensionTooSmall):
        build_algebra(3)


def test_bracket_antisymmetry_and_bilinearity():
    alg = build_algebra(5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, (2, 5))
        assert np.allclose(bracket_vec(alg, x, x), 0.0)
        assert np.allclose(bracket_vec(alg, x, y), -bracket_vec(alg, y, x))
        a, b = rng.uniform(-2, 2, 2)
        z = rng.uniform(-2, 2, 5)
        lhs = bracket_vec(alg, a * x + b * z, y)
        rhs = a * bracket_vec(alg, x, y) + b * bracket_vec(alg, z, y)
        assert np.allclose(lhs, rhs)


def test_bracket_central_shift():
    # e3 is central, so [e1 + e3, e2] = [e1, e2] = e_n
    alg = build_algebra(4)
    e = np.eye(4)
    out = bracket_vec(alg, e[0] + e[2], e[1])
    assert np.array_equal(out, e[3])


def test_jacobi_identity():
    alg = build_algebra(6)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x, y, z = rng.uniform(-1, 1, (3, 6))
        total = (
            bracket_vec(alg, bracket_vec(alg, x, y), z)
            + bracket_vec(alg, bracket_vec(alg, y, z), x)
            + bracket_vec(alg, bracket_vec(alg, z, x), y)
        )
        assert np.allclose(total, 0.0)


def test_two_step_nilpotency():
    alg = build_algebra(5)
    rng = np.random.default_rng(2)
    x, y, z = rng.uniform(-1, 1, (3, 5))
    assert np.allclose(bracket_vec(alg, bracket_vec(alg, x, y), z), 0.0)


@pytest.mark.parametrize("n,expected_center", [(4, 2), (6, 4)])
def test_center_and_derived_dims(n, expected_center):
    center, derived = center_and_derived(build_algebra(n))
    assert center.dim == expected_center == n - 2
    assert derived.dim == 1
    # canonical bases: center = span(e3..en), derived = span(en)
    c = to_float(center.basis)
    assert np.allclose(c[:2, :], 0.0)
    assert np.linalg.matrix_rank(c) == n - 2
    d = to_float(derived.basis)
    assert np.allclose(d.reshape(-1)[:-1], 0.0) and d[n - 1, 0] == 1.0


def test_derived_inside_center():
    center, derived = center_and_derived(build_algebra(5))
    stacked = np.concatenate([center.basis.T, derived.basis.T], axis=0)
    assert exact_rank(stacked) == center.dim


@pytest.mark.parametrize("n,expected", [(4, 11), (5, 17)])
def test_derivation_space_dimension_small(n, expected):
    assert derivation_space_dim(n) == expected == n * n - 3 * n + 7


@pytest.mark.parametrize("n", [*range(4, 11), 12, 16])
def test_derivation_space_dimension_formula(n):
    assert derivation_space_dim(n) == n * n - 3 * n + 7


@pytest.mark.parametrize("n", (4, 5, 7))
def test_derivations_match_constrained_pattern(n):
    """Der(g) = block pattern with D_nn = D_11 + D_22: both inclusions by rank."""
    basis = derivation_basis(n)
    mask = aut_pattern(n).mask
    # every derivation lies in the pattern and satisfies the trace constraint
    for d in basis:
        df = to_float(d)
        assert np.all(np.abs(df[~mask]) == 0.0)
        assert d[n - 1, n - 1] == d[0, 0] + d[1, 1]
    # conversely: constrained-pattern dimension equals the computed dimension
    positions = [(i, j) for i in range(n) for j in range(n) if mask[i, j]]
    constrained_dim = len(positions) - 1  # one linear trace constraint
    assert len(basis) == constrained_dim == n * n - 3 * n + 6
    # and every constrained pattern matrix already lies in the computed span
    rows = [d.reshape(-1) for d in basis]
    rng = np.random.default_rng(9)
    for _ in range(6):
        cand = np.where(mask, rng.integers(-3, 4, (n, n)), 0)
        cand[n - 1, n - 1] = cand[0, 0] + cand[1, 1]
        rows_aug = rows + [exact_array(cand).reshape(-1)]
        assert exact_rank(np.stack(rows_aug)) == len(basis)


def test_pattern_masks():
    pat = aut_pattern(5)
    assert pat.sizes == (2, 2, 1)
    m = pat.mask
    assert not m[0, 2] and not m[0, 4] and not m[2, 4]
    assert m[4, 0] and m[2, 1] and m[0, 1]
    assert np.array_equal(hprime_pattern(5).mask, m.T)


def test_pattern_decomposition_scale():
    n = 4
    rng = np.random.default_rng(3)
    mask = aut_pattern(n).mask
    phi = np.where(mask, rng.uniform(-1, 1, (n, n)), 0.0)
    phi[n - 1, n - 1] = 1.7
    c, auto = pattern_decomposition(phi)
    assert np.allclose(c * auto, phi)
    det2 = auto[0, 0] * auto[1, 1] - auto[0, 1] * auto[1, 0]
    assert auto[n - 1, n - 1] == pytest.approx(det2)  # automorphism constraint
