"""Lie algebra structure: brackets, derivations, block pattern."""

import numpy as np
import pytest

from heislor.liealg import (
    DimensionTooSmall,
    aut_pattern,
    bracket_vec,
    build_algebra,
    derivation_basis,
    derivation_space_dim,
    hprime_pattern,
)
from heislor._linalg import exact_array, exact_rank, to_float
from heislor.numerics import QSqrt3

from exact_helpers import exact_nullspace


def test_build_algebra_examples():
    for n in (4, 5):
        alg = build_algebra(n)
        e1 = np.eye(n)[0]
        e2 = np.eye(n)[1]
        out = bracket_vec(alg, e1, e2)
        expected = np.zeros(n)
        expected[n - 1] = 1.0
        assert np.array_equal(out, expected)
        # computed once per algebra; bracket_vec's exact path reads it on every call
        assert alg.nonzero_terms is alg.nonzero_terms
        assert alg.nonzero_terms == ((0, 1, n - 1, 1), (1, 0, n - 1, -1))
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


@pytest.mark.parametrize("n,expected", [(4, 11), (5, 17)])
def test_derivation_space_dimension_small(n, expected):
    assert derivation_space_dim(n) == expected == n * n - 3 * n + 7


@pytest.mark.parametrize("n", [*range(4, 11), 12, 16, 24])
def test_derivation_space_dimension_formula(n):
    assert derivation_space_dim(n) == n * n - 3 * n + 7


def _leibniz_system_reference(n):
    """The Leibniz rows built densely, one n x n coefficient array per (i < j, k)."""
    c = build_algebra(n).structure.astype(int)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                coeff = np.zeros((n, n), dtype=int)
                # D applied to the bracket value
                for l in range(n):
                    coeff[k, l] += c[i, j, l]
                # minus bracket with D on each slot
                for l in range(n):
                    coeff[l, i] -= c[l, j, k]
                    coeff[l, j] -= c[i, l, k]
                if np.any(coeff):
                    rows.append([QSqrt3(int(v)) for v in coeff.reshape(-1)])
    return np.array(rows, dtype=object)


@pytest.mark.parametrize("n", range(4, 11))
def test_derivation_basis_matches_dense_leibniz_reference(n):
    want = exact_nullspace(_leibniz_system_reference(n))
    got = derivation_basis(n)
    assert len(got) == len(want)
    for d, v in zip(got, want):
        assert d.shape == (n, n)
        assert all(x == y for x, y in zip(d.reshape(-1), v))


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
    m = aut_pattern(5).mask
    assert not m[0, 2] and not m[0, 4] and not m[2, 4]
    assert m[4, 0] and m[2, 1] and m[0, 1]
    assert np.array_equal(hprime_pattern(5).mask, m.T)
