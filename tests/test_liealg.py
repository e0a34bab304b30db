"""Lie algebra structure: the bracket table, derivations, block pattern."""

from fractions import Fraction

import numpy as np
import pytest

from heislor.curvature import frame_brackets
from heislor.liealg import (
    _bracket_terms,
    aut_pattern,
    derivation_space_dim,
)
from heislor._linalg import exact_array, exact_rank, exact_zeros, to_float
from heislor.numerics import QSqrt3

from references import derivation_basis, leibniz_system


def _bracket(terms, x, y):
    """[x, y] from the sparse table, summed over its nonzero terms."""
    out = exact_zeros(len(x))
    for (i, j), row in terms.items():
        for k, c in row.items():
            out[k] = out[k] + c * x[i] * y[j]
    return out


def _is_zero(v):
    return all(x == 0 for x in v)


def _random_scalar(rng):
    def frac():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))

    return QSqrt3(frac(), frac())


def _random_vectors(rng, count, n):
    return [exact_array([_random_scalar(rng) for _ in range(n)]) for _ in range(count)]


def _random_tables(seed, sizes, count):
    """(lam, xi, n, table) for random exact (lam, xi) in Q(sqrt3), and the
    standard basis (0, 0) first at each n."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        pairs = [(QSqrt3(0), QSqrt3(0))]
        pairs += [(_random_scalar(rng), _random_scalar(rng)) for _ in range(count)]
        for lam, xi in pairs:
            yield lam, xi, n, _bracket_terms(lam, xi, n)


def test_bracket_table_examples():
    for n in (4, 5):
        e = exact_array(np.eye(n, dtype=int))
        assert frame_brackets(0, 0, n)[0, 1].tolist() == e[n - 1].tolist()
        assert _bracket(_bracket_terms(0, 0, n), e[0], e[1]).tolist() == e[n - 1].tolist()
        assert _bracket_terms(0, 0, n) == {(0, 1): {n - 1: 1}, (1, 0): {n - 1: -1}}


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(0)
    for lam, xi, n, terms in _random_tables(10, (4, 5, 7), 3):
        dense = frame_brackets(lam, xi, n)
        for _ in range(5):
            x, y, z = _random_vectors(rng, 3, n)
            assert _is_zero(_bracket(terms, x, x))
            assert _is_zero(_bracket(terms, x, y) + _bracket(terms, y, x))
            a, b = _random_scalar(rng), _random_scalar(rng)
            lhs = _bracket(terms, a * x + b * z, y)
            rhs = a * _bracket(terms, x, y) + b * _bracket(terms, z, y)
            assert _is_zero(lhs - rhs)
            # the dense table is the same bilinear map
            assert _is_zero(np.einsum("ijk,i,j->k", dense, x, y) - _bracket(terms, x, y))


def test_bracket_central_shift():
    # e3 is central, so [e1 + e3, e2] = [e1, e2] = e_n
    e = exact_array(np.eye(4, dtype=int))
    out = _bracket(_bracket_terms(0, 0, 4), e[0] + e[2], e[1])
    assert out.tolist() == e[3].tolist()
    # off the standard basis the middle directions x_3, ..., x_(n-2) stay central
    rng = np.random.default_rng(3)
    for lam, xi, n, terms in _random_tables(11, (5, 6, 7), 3):
        e = exact_array(np.eye(n, dtype=int))
        for _ in range(3):
            (y,) = _random_vectors(rng, 1, n)
            for m in range(2, n - 2):
                assert _is_zero(_bracket(terms, e[m], y))


def test_jacobi_identity():
    rng = np.random.default_rng(1)
    for lam, xi, n, terms in _random_tables(12, (4, 6), 3):
        for _ in range(8):
            x, y, z = _random_vectors(rng, 3, n)
            total = (
                _bracket(terms, _bracket(terms, x, y), z)
                + _bracket(terms, _bracket(terms, y, z), x)
                + _bracket(terms, _bracket(terms, z, x), y)
            )
            assert _is_zero(total)


def test_two_step_nilpotency():
    rng = np.random.default_rng(2)
    for lam, xi, n, terms in _random_tables(13, (4, 5, 7), 3):
        x, y, z = _random_vectors(rng, 3, n)
        assert not _is_zero(_bracket(terms, x, y))  # not abelian
        assert _is_zero(_bracket(terms, _bracket(terms, x, y), z))


@pytest.mark.parametrize("n,expected", [(4, 11), (5, 17)])
def test_derivation_space_dimension_small(n, expected):
    assert derivation_space_dim(n) == expected == n * n - 3 * n + 7


@pytest.mark.parametrize("n", [*range(4, 17), 24])
def test_derivation_space_dimension_formula(n):
    assert derivation_space_dim(n) == n * n - 3 * n + 7


@pytest.mark.parametrize("n", range(4, 11))
def test_derivation_basis_matches_dense_leibniz_reference(n):
    """The tests' basis of Der(g) solves the dense Leibniz system and spans its nullspace,
    and the package's rank count is the rank of that basis and the identity."""
    want = leibniz_system(n)
    basis = derivation_basis(n)
    assert len(basis) == n * n - exact_rank(want)
    for d in basis:
        assert all(not x for x in want @ d.reshape(-1))
    rows = [d.reshape(-1) for d in basis]
    assert exact_rank(np.stack(rows)) == len(basis)
    identity = exact_array(np.eye(n, dtype=int)).reshape(-1)
    assert derivation_space_dim(n) == exact_rank(np.stack([*rows, identity]))


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
