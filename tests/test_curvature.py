"""Curvature tables, their generic oracle, and the soliton machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import heislor as hl
from heislor import _linalg, curvature
from heislor.curvature import (
    EvidenceFailure,
    _charpoly,
    _closed_forms,
    _memo_spectrum,
    _nabla_terms,
    _ricci_terms,
    _riemann_terms,
    _split,
    _u_terms,
    closed_form_nabla,
    closed_form_ricci,
    closed_form_riemann,
    closed_form_u,
    curvature_report,
    derivation_identity_residual,
    einstein_test,
    frame_brackets,
    frame_signs,
    generic_curvature,
    is_flat,
    ricci_spectrum,
    soliton_certificate,
)
from heislor._linalg import exact_eye, exact_inv, exact_zeros, to_float
from heislor.errors import DimensionNotInteger
from heislor.liealg import _bracket_terms
from heislor.metrics import CANONICAL_PAIRS, NotARepresentative, shear_matrix, xi_exact
from heislor.numerics import QSqrt3

from references import (
    corner_spectrum,
    dense_charpoly,
    derivation_basis,
    exact_rref,
    riemann_terms_full,
)

HALF = QSqrt3(Fraction(1, 2))


def _exact_frame(pair, n):
    return QSqrt3(pair[0]), xi_exact(pair[1])


def _inner(u, v, eps):
    return sum(e * a * b for e, a, b in zip(eps, u, v))


def _riemann_apply(ops, i, j, k):
    """R(x_i, x_j) x_k with the antisymmetry filled in."""
    if i == j:
        return exact_zeros(next(iter(ops.values())).shape[0])
    if (i, j) in ops:
        return ops[(i, j)][:, k]
    return -ops[(j, i)][:, k]


def _equal(a, b):
    return a.reshape(-1).tolist() == b.reshape(-1).tolist()


# -- U-map ------------------------------------------------------------------------


def test_u_map_defining_identity_random():
    """2 <U(x,y), z> = <[z,x], y> + <x, [z,y]> on random frame triples."""
    lam, xi = QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5))
    n = 5
    brackets = frame_brackets(lam, xi, n)
    eps = frame_signs(n)
    u = generic_curvature(lam, xi, n)[1]
    eye = np.eye(n, dtype=int)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j, k = rng.integers(0, n, 3)
        lhs = 2 * _inner(u[i, j], eye[k], eps)
        rhs = _inner(brackets[k, i], eye[j], eps) + _inner(eye[i], brackets[k, j], eps)
        assert lhs == rhs


def test_u_component_examples():
    n = 4
    # (1, 0): U(x1, x1) = lam x2
    u = closed_form_u(QSqrt3(1), QSqrt3(0), n)
    assert u[0, 0, 1] == QSqrt3(1)
    # any pair: U(x2, x2) = 0
    for pair in CANONICAL_PAIRS:
        u = closed_form_u(*_exact_frame(pair, n), n)
        assert all(not x for x in u[1, 1])


def test_u_middle_directions_inert():
    # central orthogonal directions contribute nothing for n >= 6
    u = generic_curvature(QSqrt3(2), QSqrt3(2), 6)[1]
    for j in range(6):
        assert all(not x for x in u[2, j])
        assert all(not x for x in u[3, j])


def test_u_symmetry():
    values = generic_curvature(QSqrt3(2), xi_exact("sqrt3"), 5)[1]
    assert (values == values.transpose(1, 0, 2)).all()


# -- connection --------------------------------------------------------------------


def test_nabla_component_examples():
    n = 4
    # (2, 2): nabla_{x1} x1 = lam x2 = 2 x2
    nb = closed_form_nabla(QSqrt3(2), QSqrt3(2), n)
    assert nb[0, 0, 1] == QSqrt3(2)
    # (0, 0): nabla_{x2} x2 = 0
    nb = closed_form_nabla(QSqrt3(0), QSqrt3(0), n)
    assert all(not x for x in nb[1, 1])


def test_torsion_free():
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, 5)
        brackets = frame_brackets(lam, xi, 5)
        nabla = generic_curvature(lam, xi, 5)[2]
        for i in range(5):
            for j in range(5):
                diff = nabla[i, j] - nabla[j, i] - brackets[i, j]
                assert all(not x for x in diff)


def test_metric_compatibility():
    """<nabla_X Y, Z> + <Y, nabla_X Z> = 0 for frame directions (ad-invariance)."""
    lam, xi = QSqrt3(2), xi_exact("sqrt3")
    n = 5
    eps = frame_signs(n)
    nabla = generic_curvature(lam, xi, n)[2]
    eye = np.eye(n, dtype=int)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = _inner(nabla[i, j], eye[k], eps) + _inner(eye[j], nabla[i, k], eps)
                assert not QSqrt3.coerce(val)


def test_first_bianchi():
    lam, xi = QSqrt3(1), QSqrt3(1)
    n = 4
    ops = generic_curvature(lam, xi, n)[3]
    rng = np.random.default_rng(1)
    for _ in range(15):
        i, j, k = rng.integers(0, n, 3)
        total = (
            _riemann_apply(ops, i, j, k)
            + _riemann_apply(ops, j, k, i)
            + _riemann_apply(ops, k, i, j)
        )
        assert all(not x for x in total)


# -- curvature tensor ----------------------------------------------------------------


def test_riemann_flat_class_vanishes():
    ops = closed_form_riemann(QSqrt3(1), QSqrt3(0), 5)
    assert is_flat(ops)
    _, _, _, ops_g, _ = generic_curvature(QSqrt3(1), QSqrt3(0), 5)
    assert is_flat(ops_g)


def test_riemann_component_example_origin():
    # (0, 0): 4 R(x1, x2) x1 = (lam^4 - lam^2(xi^2-2) - 3) x2 = -3 x2
    ops = closed_form_riemann(QSqrt3(0), QSqrt3(0), 4)
    col = ops[(0, 1)][:, 0]
    assert col[1] == -3 * HALF * HALF
    assert col[1] == QSqrt3(Fraction(-3, 4))


def test_riemann_component_example_light_cone():
    # (1, 1): 4 R(x2, x_{n-1}) x_{n-1} = -3 xi^2 (lam^2 - 1) x2 = 0
    ops = closed_form_riemann(QSqrt3(1), QSqrt3(1), 6)
    assert all(not x for x in ops[(1, 4)][:, 4])


def test_closed_form_operators_hold_n_squared_cells():
    # each operator owns its n x n table, not a view into one n^4 array
    n = 12
    for pair in CANONICAL_PAIRS:
        for op in closed_form_riemann(*_exact_frame(pair, n), n).values():
            assert op.base.size == n * n


def test_riemann_antisymmetry():
    ops = closed_form_riemann(QSqrt3(2), QSqrt3(2), 4)
    got = _riemann_apply(ops, 1, 0, 0)
    assert all(not (a + b) for a, b in zip(got, ops[(0, 1)][:, 0]))
    assert all(not x for x in _riemann_apply(ops, 1, 1, 0))


# -- Ricci ---------------------------------------------------------------------------


def test_ricci_component_examples():
    n = 4
    # (1, 1): 2 Ric(x2) = (1 - 3 + 1 + 1) x2 = 0
    ric = closed_form_ricci(QSqrt3(1), QSqrt3(1), n)
    assert all(not x for x in ric[:, 1])
    # (0, 0): Ric = diag(1/2, 1/2, 0, ..., 0, -1/2)
    ric = closed_form_ricci(QSqrt3(0), QSqrt3(0), 6)
    diag_expected = [HALF, HALF, QSqrt3(0), QSqrt3(0), QSqrt3(0), -HALF]
    for i in range(6):
        for j in range(6):
            expected = diag_expected[i] if i == j else QSqrt3(0)
            assert ric[i, j] == expected
    # (1, 0): Ric = 0
    ric = closed_form_ricci(QSqrt3(1), QSqrt3(0), 4)
    assert all(not x for x in ric.reshape(-1))


def test_ricci_example_two_zero():
    # (2, 0): 2 Ric(x1) = -15 x1 + 12 x_n  (lam^4 - lam^2 xi^2 - 1 = 15, etc.)
    ric = closed_form_ricci(QSqrt3(2), QSqrt3(0), 5)
    assert ric[0, 0] == -15 * HALF
    assert ric[4, 0] == 12 * HALF
    assert 2 * 2 ** 3 - 2 * (0 + 2) == 12  # coefficient oracle


def test_ricci_self_adjointness():
    # I_(n-1,1) * Ric is symmetric for every class
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, 5)
        ric = closed_form_ricci(lam, xi, 5)
        eps = frame_signs(5)
        for i in range(5):
            for j in range(5):
                assert eps[i] * ric[i, j] == eps[j] * ric[j, i]


def _assert_generic_equals_closed_forms(lam, xi, n):
    _, u_g, nb_g, ops_g, ric_g = generic_curvature(lam, xi, n)
    assert _equal(u_g, closed_form_u(lam, xi, n))
    assert _equal(nb_g, closed_form_nabla(lam, xi, n))
    ops_c = closed_form_riemann(lam, xi, n)
    assert len(ops_g) == n * (n - 1) // 2 and set(ops_c) <= set(ops_g)
    for key, op in ops_g.items():
        # pairs touching the inert middle directions vanish
        assert _equal(op, ops_c.get(key, exact_zeros((n, n))))
    assert _equal(ric_g, closed_form_ricci(lam, xi, n))


def test_generic_equals_closed_forms_exactly():
    for n in (4, 6):
        for pair in CANONICAL_PAIRS:
            _assert_generic_equals_closed_forms(*_exact_frame(pair, n), n)


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=10)
_field = st.builds(QSqrt3, _small_fractions, _small_fractions)


# the closed forms hold for every (lam, xi), not just the six representatives;
# the examples are fixed to keep the suite repeatable
@settings(deadline=None, derandomize=True, max_examples=25)
@given(_field, _field, st.sampled_from((4, 5, 7)))
@example(QSqrt3(Fraction(-3, 7)), QSqrt3(1, 2), 4)
@example(QSqrt3(Fraction(-3, 7)), QSqrt3(1, 2), 5)
@example(QSqrt3(Fraction(-3, 7)), QSqrt3(1, 2), 7)
@example(QSqrt3(Fraction(5, 3), Fraction(1, 2)), QSqrt3(Fraction(2, 5)), 4)
@example(QSqrt3(Fraction(5, 3), Fraction(1, 2)), QSqrt3(Fraction(2, 5)), 5)
@example(QSqrt3(Fraction(5, 3), Fraction(1, 2)), QSqrt3(Fraction(2, 5)), 7)
@example(QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5)), 4)
@example(QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5)), 5)
@example(QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5)), 7)
def test_generic_equals_closed_forms_off_the_representatives(lam, xi, n):
    _assert_generic_equals_closed_forms(lam, xi, n)


#: the three off-representative (lam, xi) of the examples above
_OFF_REPRESENTATIVES = (
    (QSqrt3(Fraction(-3, 7)), QSqrt3(1, 2)),
    (QSqrt3(Fraction(5, 3), Fraction(1, 2)), QSqrt3(Fraction(2, 5))),
    (QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5))),
)


_PAIRS_AND_OFF_REPRESENTATIVES = [_exact_frame(pair, 4) for pair in CANONICAL_PAIRS] + list(
    _OFF_REPRESENTATIVES
)


def _sparse_terms(lam, xi, n):
    """The generic route's sparse brackets, U, nabla, R columns and Ric columns."""
    br = _bracket_terms(lam, xi, n)
    eps = frame_signs(n)
    u = _u_terms(br, eps)
    nabla = _nabla_terms(u, br)
    ops = _riemann_terms(nabla, br, n)
    return br, u, nabla, ops, _ricci_terms(ops, eps)


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_curvature_tables_live_on_the_corner(n):
    """Every index of the generic route's sparse terms, key and entry alike, and every
    nonzero entry of the four closed forms is a corner coordinate 0, 1, n-2 or n-1."""
    corner = {0, 1, n - 2, n - 1}
    for lam, xi in _PAIRS_AND_OFF_REPRESENTATIVES:
        for terms in _sparse_terms(lam, xi, n)[1:]:
            for key, row in terms.items():
                assert set(key) | set(row) <= corner, (lam, xi, key, row)
        ops_c = closed_form_riemann(lam, xi, n)
        assert set(np.ravel(list(ops_c))) <= corner
        closed = (closed_form_u, closed_form_nabla, closed_form_ricci)
        for table in [f(lam, xi, n) for f in closed] + list(ops_c.values()):
            support = {index for at, x in np.ndenumerate(table) if x for index in at}
            assert support <= corner, (lam, xi)


@pytest.mark.parametrize("n", range(5, 11))
def test_curvature_tables_do_not_depend_on_n(n):
    """Relabelled from the corner (0, 1, n-2, n-1) to (0, 1, 2, 3), the generic route's
    sparse terms at n are those at n = 4, so an identity of the n = 4 tables holds at
    every n.  A middle index has no label and fails the relabelling."""
    to4 = {0: 0, 1: 1, n - 2: 2, n - 1: 3}
    for lam, xi in _PAIRS_AND_OFF_REPRESENTATIVES:
        for at4, at_n in zip(_sparse_terms(lam, xi, 4), _sparse_terms(lam, xi, n)):
            relabelled = {
                tuple(to4[i] for i in key): {to4[k]: x for k, x in row.items()}
                for key, row in at_n.items()
            }
            assert relabelled == at4, (lam, xi)


@pytest.mark.parametrize("n", range(4, 11))
def test_riemann_terms_loop_over_the_support_only(n):
    """The loop over the indices in a key of nabla or br gives the columns of the loop
    over every triple, key for key and in the same order."""
    pairs = [_exact_frame(pair, n) for pair in CANONICAL_PAIRS] + list(OFF_REPRESENTATIVE_SPECTRA)
    for lam, xi in pairs:
        br = _bracket_terms(lam, xi, n)
        nabla = _nabla_terms(_u_terms(br, frame_signs(n)), br)
        got, want = _riemann_terms(nabla, br, n), riemann_terms_full(nabla, br, n)
        assert list(got.items()) == list(want.items()), (lam, xi)


@pytest.mark.parametrize("n", (4, 6))
def test_generic_ricci_in_the_benchmark_contract(n):
    # the exact call and comparison the exact-tables benchmark makes; a change
    # to generic_curvature's return shape fails here first
    for pair in CANONICAL_PAIRS:
        lam, xi = QSqrt3(pair[0]), hl.metrics.xi_exact(pair[1])
        ric = hl.generic_curvature(lam, xi, n, exact=True)[-1]
        closed = hl.curvature_report(pair[0], pair[1], n, backend=hl.EXACT).ric
        assert all(
            a == b for a, b in zip(ric.reshape(-1).tolist(), closed.reshape(-1).tolist())
        )
        assert len(ric.reshape(-1).tolist()) == n * n


# -- flat / Einstein / soliton --------------------------------------------------------


def test_flat_only_at_one_zero():
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, 4)
        assert is_flat(closed_form_riemann(lam, xi, 4)) == (pair == (1, "0"))


def test_einstein_only_at_flat_class():
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, 5)
        c = einstein_test(closed_form_ricci(lam, xi, 5))
        if pair == (1, "0"):
            assert c == QSqrt3(0)
        else:
            assert c is None


def test_einstein_rejects_nilpotent_ricci():
    # (1, 1): Ric(x1) = (1/2) x1 - (1/2) x_n is not a multiple of x1
    ric = closed_form_ricci(QSqrt3(1), QSqrt3(1), 4)
    assert ric[0, 0] == HALF and ric[3, 0] == -HALF
    assert einstein_test(ric) is None


def test_soliton_flat_class_trivial():
    c, d = soliton_certificate(QSqrt3(1), QSqrt3(0), 4)
    assert c == QSqrt3(0)
    assert all(not x for x in d.reshape(-1))


def test_soliton_origin_class_constant():
    # derivation constraint D_nn = D_11 + D_22 forces -1/2 - c = 2 (1/2 - c)
    c, d = soliton_certificate(QSqrt3(0), QSqrt3(0), 5)
    assert c == QSqrt3(Fraction(3, 2))
    assert d[4, 4] == d[0, 0] + d[1, 1]
    brackets = frame_brackets(QSqrt3(0), QSqrt3(0), 5)
    assert derivation_identity_residual(d, brackets) == 0.0


def test_soliton_exists_for_all_classes_exactly():
    for n in (4, 6):
        for pair in CANONICAL_PAIRS:
            lam, xi = _exact_frame(pair, n)
            cert = soliton_certificate(lam, xi, n)
            assert cert is not None
            c, d = cert
            ric = closed_form_ricci(lam, xi, n)
            recon = d.copy()
            for i in range(n):
                recon[i, i] = recon[i, i] + c
            assert all(a == b for a, b in zip(recon.reshape(-1), ric.reshape(-1)))
            assert derivation_identity_residual(d, frame_brackets(lam, xi, n)) == 0.0


def test_soliton_middle_block_is_minus_c():
    """Off the corner Ric vanishes, so D = Ric - cI is -cI there.  At n = 5 the middle
    direction x_3 has D[2, 2] = -c and nothing else in its row and column, and D keeps
    the Leibniz rule on every pair (x_3, x_j)."""
    n = 5
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, n)
        c, d = soliton_certificate(lam, xi, n)
        assert d[2, 2] == -c, pair
        assert all(not d[2, j] and not d[j, 2] for j in range(n) if j != 2), pair
        brackets = frame_brackets(lam, xi, n)
        for j in range(n):
            # D[x_3, x_j] - [D x_3, x_j] - [x_3, D x_j]
            defect = d @ brackets[2, j] - d[:, 2] @ brackets[:, j] - d[:, j] @ brackets[2]
            assert not any(defect), (pair, j)


def _dense_conjugate_solve(lam, xi, n, ric):
    """The elimination reference: solve Ric = c*id + sum_k a_k g^-1 b_k g over the
    derivation basis b_k by a dense rref, as (c, D) or None."""
    basis = derivation_basis(n)
    g = shear_matrix(lam, xi, n, exact=True)
    conj = [exact_inv(g) @ b @ g for b in basis]
    system = np.stack([exact_eye(n).reshape(-1)] + [m.reshape(-1) for m in conj], axis=1)
    rref, pivots = exact_rref(np.concatenate([system, ric.reshape(-1, 1)], axis=1))
    if pivots[-1] == system.shape[1]:
        return None  # the right-hand side is outside the span
    # id and the conjugated basis are independent: one solution, every column a pivot
    assert pivots == list(range(system.shape[1]))
    coeffs = rref[: system.shape[1], -1]
    d = exact_zeros((n, n))
    for coeff, m in zip(coeffs[1:], conj):
        d = d + coeff * m
    return coeffs[0], d


def _assert_same_certificate(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0]
        assert all(a == b for a, b in zip(got[1].reshape(-1), want[1].reshape(-1)))


@pytest.mark.parametrize("n", range(4, 11))
def test_exact_soliton_matches_dense_conjugate_solve(n):
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, n)
        ric = closed_form_ricci(lam, xi, n)
        want = _dense_conjugate_solve(lam, xi, n, ric)
        assert want is not None
        _assert_same_certificate(soliton_certificate(lam, xi, n, ric), want)


_nonzero_fractions = _small_fractions.filter(bool)
_irrational = st.builds(QSqrt3, _small_fractions, _nonzero_fractions)


# off the representatives Ric is mostly a soliton's too; a perturbed entry moves
# Ric off the span of id and Der or along it, and both routes must agree either way
@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    _irrational,
    _irrational,
    st.integers(4, 7),
    st.one_of(st.none(), st.tuples(st.integers(0, 99), st.integers(0, 99), _irrational)),
)
@example(QSqrt3(1, 1), QSqrt3(Fraction(1, 2), -1), 4, (0, 3, QSqrt3(0, 1)))
@example(QSqrt3(Fraction(-3, 7), 2), QSqrt3(1, Fraction(1, 3)), 6, (2, 0, QSqrt3(2, -1)))
@example(QSqrt3(2, Fraction(-1, 2)), QSqrt3(0, 1), 7, (6, 6, QSqrt3(0, Fraction(5, 3))))
def test_soliton_certificate_matches_elimination_off_the_representatives(lam, xi, n, bump):
    ric = closed_form_ricci(lam, xi, n)
    if bump is not None:
        i, j, delta = bump
        ric[i % n, j % n] = ric[i % n, j % n] + delta
    _assert_same_certificate(
        soliton_certificate(lam, xi, n, ric), _dense_conjugate_solve(lam, xi, n, ric)
    )


@settings(deadline=None, derandomize=True, max_examples=25)
@given(_field, _field, st.integers(4, 7))
def test_frame_brackets_are_the_sheared_algebra(lam, xi, n):
    # x_i = g e_i for the shear g, so [x_i, x_j] has frame coordinates g^-1 [g e_i, g e_j]
    c = np.zeros((n, n, n), dtype=int)  # the standard basis: [e_1, e_2] = e_n
    c[0, 1, n - 1], c[1, 0, n - 1] = 1, -1
    g = shear_matrix(lam, xi, n, exact=True)
    g_inv = exact_inv(g)
    brackets = frame_brackets(lam, xi, n)
    for i in range(n):
        for j in range(n):
            want = g_inv @ np.einsum("ijk,i,j->k", c, g[:, i], g[:, j])
            assert _equal(brackets[i, j], want)


def test_soliton_certificate_forms_no_inverse(count_calls):
    # the certificate reads the Leibniz defect of Ric: no inverse and no elimination
    calls = [count_calls(_linalg, name) for name in ("exact_inv", "rref_rows", "_echelon")]
    for n in range(4, 11):
        for pair in CANONICAL_PAIRS:
            lam, xi = _exact_frame(pair, n)
            assert soliton_certificate(lam, xi, n) is not None
    assert calls == [[], [], []]


def test_soliton_none_outside_span():
    n = 5
    for pair in CANONICAL_PAIRS:
        lam, xi = _exact_frame(pair, n)
        ric = closed_form_ricci(lam, xi, n)
        ric[0, n - 1] = ric[0, n - 1] + QSqrt3(1)
        assert soliton_certificate(lam, xi, n, ric) is None


def test_exact_false_is_refused():
    lam, xi = QSqrt3(2), QSqrt3(2)
    calls = (
        lambda: generic_curvature(lam, xi, 5, exact=False),
        lambda: closed_form_ricci(lam, xi, 5, exact=False),
        lambda: soliton_certificate(lam, xi, 5, exact=False),
        lambda: ricci_spectrum(lam, xi, 5, exact=False),
    )
    for call in calls:
        with pytest.raises(ValueError, match="exact only"):
            call()


# -- spectra and reports ---------------------------------------------------------------


def test_ricci_spectra_exact_values():
    expected = {
        (0, "0"): [HALF, HALF, QSqrt3(0), -HALF],
        (1, "0"): [QSqrt3(0)] * 4,
        (1, "1"): [QSqrt3(0)] * 4,
        (2, "0"): [QSqrt3(Fraction(9, 2)), QSqrt3(Fraction(9, 2)), QSqrt3(0), QSqrt3(Fraction(-9, 2))],
        (2, "sqrt3"): [QSqrt3(0)] * 4,
        (2, "2"): [QSqrt3(Fraction(3, 2)), QSqrt3(0), QSqrt3(Fraction(-3, 2)), QSqrt3(Fraction(-3, 2))],
    }
    for pair, want in expected.items():
        for n in (4, 7):
            got = ricci_spectrum(QSqrt3(pair[0]), xi_exact(pair[1]), n)
            assert got == want


def _poly_from_roots(roots):
    """Coefficients of prod (x - r), highest degree first."""
    poly = [QSqrt3(1)]
    for r in roots:
        poly = [a - b * r for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _corner(ric, n):
    idx = [0, 1, n - 2, n - 1]
    return ric[np.ix_(idx, idx)]


def _rows(a):
    """The sparse rows {column: value} of a dense matrix, as _charpoly takes them."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _mu(x):
    return [x, x, QSqrt3(0), -x]


# off the representatives the corner spectrum is {mu, mu, 0, -mu} with mu in Q(sqrt3);
# a lift of float eigenvalues onto small fractions refused all four of these
OFF_REPRESENTATIVE_SPECTRA = {
    (QSqrt3(Fraction(1, 3)), QSqrt3(0)): _mu(QSqrt3(Fraction(32, 81))),
    (QSqrt3(1, 1), QSqrt3(0)): _mu(QSqrt3(Fraction(21, 2), 6)),
    (QSqrt3(Fraction(-3, 7)), QSqrt3(1, 2)): _mu(QSqrt3(Fraction(13540, 2401), Fraction(80, 49))),
    (QSqrt3(Fraction(13, 10)), QSqrt3(Fraction(2, 5))): _mu(QSqrt3(Fraction(3657, 20000))),
}


def test_ricci_spectrum_off_the_representatives():
    for (lam, xi), want in OFF_REPRESENTATIVE_SPECTRA.items():
        got = ricci_spectrum(lam, xi, 5)
        assert got == want
        assert got == sorted(got, reverse=True)


def _sqrt2_ricci(n):
    """A Ricci matrix whose corner block has eigenvalues +-sqrt2, 0, 0."""
    ric = exact_zeros((n, n))
    ric[0, 1], ric[1, 0] = QSqrt3(2), QSqrt3(1)
    return ric


@pytest.fixture
def fresh_spectrum_memo():
    """An empty spectrum memo before and after the test, so no entry it makes outlives it."""
    _memo_spectrum.cache_clear()
    yield
    _memo_spectrum.cache_clear()


def test_ricci_spectrum_refuses_a_charpoly_that_does_not_split(monkeypatch, fresh_spectrum_memo):
    from heislor.cli import EXIT_CHECK_FAILED, EXIT_CODES

    # the sqrt2 corner's polynomial, and one with complex roots, split over Q(sqrt3) to nothing
    ric = _sqrt2_ricci(5)
    for entry, coeffs in ((1, ["1", "0", "-2", "0", "0"]), (-1, ["1", "0", "2", "0", "0"])):
        ric[1, 0] = QSqrt3(entry)
        p = _charpoly(_rows(_corner(ric, 5)))
        assert [c.format() for c in p] == coeffs and _split(p) is None

    # ricci_spectrum refuses a class table whose Ricci rows are that corner, naming the polynomial
    table = {(0,): {1: QSqrt3(2)}, (1,): {0: QSqrt3(1)}, (2,): {}, (3,): {}}
    monkeypatch.setattr(curvature, "_closed_forms", lambda lam, xi: (None, None, None, table))
    with pytest.raises(EvidenceFailure, match=r"\[1, 0, -2, 0, 0\] does not split over Q\(sqrt3\)"):
        ricci_spectrum(QSqrt3(2), QSqrt3(2), 5)
    # complex roots do not split either; a new (lam, xi) key, as the memo holds the first
    table[1,] = {0: QSqrt3(-1)}
    with pytest.raises(EvidenceFailure, match=r"\[1, 0, 2, 0, 0\] does not split"):
        ricci_spectrum(QSqrt3(1), QSqrt3(2), 5)
    assert EXIT_CODES[EvidenceFailure] == EXIT_CHECK_FAILED


def test_a_given_ricci_matrix_never_reads_the_memo():
    lam, xi = QSqrt3(2), QSqrt3(2)
    assert soliton_certificate(lam, xi, 5) is not None  # fills the memo for (2, 2)
    assert soliton_certificate(lam, xi, 5, _sqrt2_ricci(5)) is None


def test_a_report_builds_its_ricci_matrix_once_and_the_spectrum_reads_sparse_rows(
    count_calls, fresh_spectrum_memo
):
    ricci = count_calls(curvature, "closed_form_ricci")
    for backend in ("exact", "approx"):
        curvature_report(2, "2", 6, backend=backend)
    assert len(ricci) == 2  # one per report
    _closed_forms.cache_clear()
    on_corner = count_calls(curvature, "_on_corner")
    dense = count_calls(curvature, "exact_dense")
    for lam, key in CANONICAL_PAIRS:
        _memo_spectrum(QSqrt3(lam), xi_exact(key))
    assert _memo_spectrum.cache_info().currsize == len(CANONICAL_PAIRS)
    assert on_corner == [] and dense == []


def test_spectrum_memo_holds_one_entry_per_class():
    """The closed-form corner block is the same 4 x 4 matrix at every n, so the spectra of
    n = 4..10 share one entry per class, and each equals the spectrum computed at n."""
    _memo_spectrum.cache_clear()
    exact_pairs = [(QSqrt3(lam), xi_exact(key)) for lam, key in CANONICAL_PAIRS]
    for n in range(4, 11):
        for lam, xi in exact_pairs:
            ricci_spectrum(lam, xi, n)
    assert _memo_spectrum.cache_info().currsize == len(CANONICAL_PAIRS)
    for n in range(4, 11):
        for lam, xi in exact_pairs:
            assert _memo_spectrum(lam, xi) == corner_spectrum(closed_form_ricci(lam, xi, n), n)


def _closed_tables(lam, xi, n):
    """The four closed forms at n as one list of arrays, R's operators last."""
    ops = closed_form_riemann(lam, xi, n)
    return [closed_form_u(lam, xi, n), closed_form_nabla(lam, xi, n),
            closed_form_ricci(lam, xi, n), *ops.values()]


def _report_tables(report):
    return [report.u, report.nabla, report.ric, *report.riemann_ops.values()]


def test_ricci_memo_hands_out_fresh_copies():
    """One memo entry per class holds the closed forms of every n, and every call builds
    fresh writable arrays from it."""
    _closed_forms.cache_clear()
    for n in range(4, 11):
        for lam, key in CANONICAL_PAIRS:
            _closed_tables(QSqrt3(lam), xi_exact(key), n)
    assert _closed_forms.cache_info().currsize == len(CANONICAL_PAIRS)
    lam, xi = QSqrt3(2), QSqrt3(2)
    _closed_tables(2, 2, 9)  # 2 and QSqrt3(2) share one entry
    assert _closed_forms.cache_info().currsize == len(CANONICAL_PAIRS)
    for build in (closed_form_u, closed_form_nabla, closed_form_riemann, closed_form_ricci):
        with pytest.raises(DimensionNotInteger):
            build(lam, xi, 9.0)
        for args in ((2.0, xi, 9), (lam, 2.0, 9)):  # a float lam or xi reads no entry either
            with pytest.raises(TypeError):
                build(*args)

    want = [a.copy() for a in _closed_tables(lam, xi, 9)]
    first, second = _closed_tables(lam, xi, 9), _closed_tables(lam, xi, 9)
    for a, b, w in zip(first, second, want, strict=True):
        assert a is not b and _equal(a, w) and _equal(b, w)
        assert a.flags.writeable and b.flags.writeable
        a[...] = QSqrt3(99)
    assert all(_equal(a, w) for a, w in zip(_closed_tables(lam, xi, 9), want, strict=True))
    report = curvature_report(2, "2", 9)
    assert all(_equal(a, w) for a, w in zip(_report_tables(report), want, strict=True))
    for a in _report_tables(report):
        a[...] = QSqrt3(99)
    fresh = curvature_report(2, "2", 9)
    assert all(_equal(a, w) for a, w in zip(_report_tables(fresh), want, strict=True))
    assert all(_equal(a, w) for a, w in zip(_closed_tables(lam, xi, 9), want, strict=True))

    first, second = ricci_spectrum(2, 2, 9), ricci_spectrum(lam, xi, 9)
    assert first == second and first is not second
    want = list(second)
    first[0] = QSqrt3(99)
    first.append(QSqrt3(99))
    assert ricci_spectrum(lam, xi, 9) == want
    assert fresh.spectrum == want and fresh.spectrum is not second
    fresh.spectrum.clear()
    assert curvature_report(2, "2", 9).spectrum == want


@settings(deadline=None, derandomize=True, max_examples=30)
@given(_irrational, _irrational, st.sampled_from((4, 5, 7)))
def test_ricci_spectrum_is_the_split_charpoly(lam, xi, n):
    block = _corner(closed_form_ricci(lam, xi, n), n)
    got = ricci_spectrum(lam, xi, n)
    assert got == sorted(got, reverse=True)
    assert _poly_from_roots(got) == _charpoly(_rows(block))
    floats = sorted(np.linalg.eigvals(to_float(block)), key=lambda z: -z.real)
    scale = max(1.0, max(abs(z) for z in floats))
    assert max(abs(complex(float(r)) - z) for r, z in zip(got, floats)) <= 1e-6 * scale
    mu = max(got, key=got.count)  # the double root
    assert got == sorted(_mu(mu), reverse=True) or mu == 0


def _to_sympy(sympy, c):
    return sympy.Rational(c.a.numerator, c.a.denominator) + sympy.Rational(
        c.b.numerator, c.b.denominator) * sympy.sqrt(3)


def _sympy_roots(sympy, poly):
    """The roots of poly over Q(sqrt3) by sympy's factorization, descending, or None."""
    x = sympy.Symbol("x")
    expr = sum(_to_sympy(sympy, c) * x ** (len(poly) - 1 - i) for i, c in enumerate(poly))
    _, factors = sympy.factor_list(expr, x, extension=sympy.sqrt(3))
    roots = []
    for f, m in factors:
        f = sympy.Poly(f, x)
        if f.degree() != 1:
            return None
        roots += [sympy.expand(sympy.radsimp(-f.nth(0) / f.nth(1)))] * m
    return sorted(roots, key=float, reverse=True)


def test_ricci_spectrum_matches_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    cases = [(lam, xi, None) for lam, xi in OFF_REPRESENTATIVE_SPECTRA]
    cases += [(QSqrt3(pair[0]), xi_exact(pair[1]), None) for pair in CANONICAL_PAIRS]
    cases += [
        (QSqrt3(1, 1), QSqrt3(Fraction(1, 2), -1), None),
        (QSqrt3(Fraction(-3, 7), 2), QSqrt3(1, Fraction(1, 3)), None),
        (QSqrt3(2, Fraction(-1, 2)), QSqrt3(0, 1), None),
        (QSqrt3(0, Fraction(5, 3)), QSqrt3(Fraction(-2, 9), Fraction(7, 4)), None),
        (QSqrt3(2), QSqrt3(2), _sqrt2_ricci(5)),
    ]
    for lam, xi, ric in cases:
        p = _charpoly(_rows(_corner(closed_form_ricci(lam, xi, 5) if ric is None else ric, 5)))
        want, roots = _sympy_roots(sympy, p), _split(p)
        if want is None:
            assert roots is None
            continue
        got = sorted(roots, reverse=True)
        assert [_to_sympy(sympy, r) for r in got] == want
        if ric is None:  # a class's spectrum is the memo's
            assert ricci_spectrum(lam, xi, 5) == got


def test_spectrum_takes_no_float_eigenvalue(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for n in range(4, 11):
        for pair in CANONICAL_PAIRS:
            ricci_spectrum(*_exact_frame(pair, n), n)
            curvature_report(pair[0], pair[1], n)


def _ricci_blocks():
    for n in (4, 6):
        for pair in CANONICAL_PAIRS:
            idx = [0, 1, n - 2, n - 1]
            yield closed_form_ricci(*_exact_frame(pair, n), n)[np.ix_(idx, idx)]


def _half_zero_matrices(seed, count=8):
    rng = np.random.default_rng(seed)

    def entry():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))

    for size in (4, 6):
        for _ in range(count):
            a = exact_zeros((size, size))
            for i, j in np.ndindex(size, size):
                if rng.random() < 0.5:
                    a[i, j] = QSqrt3(entry(), entry())
            yield a


@pytest.mark.parametrize("source", ["ricci-blocks", "random"])
def test_sparse_charpoly_matches_dense_reference(source):
    blocks = list(_ricci_blocks() if source == "ricci-blocks" else _half_zero_matrices(5))
    assert len(blocks) in (12, 16)
    for a in blocks:
        got = _charpoly(_rows(a))
        assert got == dense_charpoly(a)
        want = np.real_if_close(np.poly(to_float(a)))
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(np.array([float(c) for c in got]) - want)) <= 1e-9 * scale


def test_curvature_report_refuses_an_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend 'nope'"):
        curvature_report(2, "sqrt3", 4, backend="nope")


def test_curvature_report_round_trip():
    report = curvature_report(2, "sqrt3", 5)
    blob = report.to_json()
    assert blob["flat"] is False and blob["einstein"] is None
    assert blob["xi"] == "sqrt3"
    assert blob["soliton"] is not None
    assert set(blob["spectrum"]) == {"0"}
    with pytest.raises(NotARepresentative):
        curvature_report(3, "0", 4)


@pytest.mark.parametrize("n", (4, 6))
@pytest.mark.parametrize("pair", CANONICAL_PAIRS)
def test_approx_report_matches_exact_with_clean_zeros(pair, n):
    exact = curvature_report(pair[0], pair[1], n)
    approx = curvature_report(pair[0], pair[1], n, backend="approx")
    (c_exact, d_exact), (c_approx, d_approx) = exact.soliton, approx.soliton
    values = [(c_exact, c_approx)]
    values += zip(sorted(exact.spectrum, key=float), sorted(approx.spectrum))
    values += zip(exact.ric.reshape(-1), approx.ric.reshape(-1))
    values += zip(d_exact.reshape(-1), d_approx.reshape(-1))
    if exact.einstein is not None:
        values.append((exact.einstein, approx.einstein))
    for want, got in values:
        assert got == pytest.approx(float(want), abs=1e-12)
        if want == 0:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0  # +0.0, never -0.0


@pytest.mark.parametrize("n", (4, 5, 6, 8))
@pytest.mark.parametrize("pair", CANONICAL_PAIRS)
def test_approx_report_is_the_exact_report_rounded_once(pair, n):
    exact = curvature_report(pair[0], pair[1], n)
    approx = curvature_report(pair[0], pair[1], n, backend="approx")
    tables = [(exact.u, approx.u), (exact.nabla, approx.nabla)]
    tables += [(op, approx.riemann_ops[ij]) for ij, op in exact.riemann_ops.items()]
    tables += [(exact.ric, approx.ric), (exact.soliton[1], approx.soliton[1])]
    scalars = [(exact.soliton[0], approx.soliton[0]), *zip(exact.spectrum, approx.spectrum)]
    if exact.einstein is not None:
        scalars.append((exact.einstein, approx.einstein))
    want = [float(x) for table, _ in tables for x in table.reshape(-1)]
    want += [float(x) for x, _ in scalars]
    got = [y for _, table in tables for y in table.reshape(-1).tolist()]
    got += [y for _, y in scalars]
    assert all(type(y) is float for y in got)
    assert got == want
    assert len(exact.spectrum) == len(approx.spectrum)
    assert (approx.flat, approx.backend) == (exact.flat, "approx")
    assert (approx.einstein is None) == (exact.einstein is None)

