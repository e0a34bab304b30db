"""Reduction of any Lorentzian inner product to one of six canonical forms.

The classifier factors a metric as M = m.<,>_0 and drives m's
transpose-inverse through a chain of left factors from the transposed
automorphism pattern and right factors from O(n-1, 1) until it reaches a
representative matrix I + xi*E_(n-1,1) - lam*E_(n,1).  Each stage picks its
right factors in closed form, then takes one left solve onto its known target.
Every factor is kept, so the result ships with a witness that can be
re-multiplied and checked.

An independent classifier reads the same answer off the signatures of the
restrictions to the center and the derived ideal; the two must agree.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from ._linalg import (
    eigvalsh,
    embed,
    householder,
    inv,
    is_singular,
    max_abs,
    qr_q,
    right_triangularize,
    shared_eye,
    shared_minkowski_gram,
    to_float,
)
from .errors import (
    AmbiguousNearWall,
    ClassificationMismatch,
    NegativeT,
    NoTableMatch,
    NotInGLambda,
    NumericalBreakdown,
    ZeroVector,
)
from .liealg import aut_pattern, require_dim
from .metrics import (
    Metric,
    _band_signs,
    _factor_metric,
    _float_gram,
    _require_lorentzian,
    _signs,
    _unit_gram,
    canonical_pair,
    xi_exact,
    xi_float,
    xi_json,
)
from .numerics import DEFAULT_TOL, EXACT, SQRT3_F, QSqrt3, _Frozen

#: sqrt3 - SQRT3_F, the digits of sqrt3 a float drops
SQRT3_LO = 1.0035084221806903e-16

# classify runs every float test on M / 4^e, so these bound O(1) matrices
#: chain residual, pattern and pseudo-orthogonality bound of a sound witness
WITNESS_TOL = 1e-8
#: band around a reduction wall inside which t cannot tell the wall's side
WALL_BAND = 1e-6
#: largest distance |t - wall| a snap onto the wall absorbs: the chain then
#: misses its target by that distance, which must stay within WITNESS_TOL
SNAP_LIMIT = WITNESS_TOL / 4
#: relative deviation from the exact shape that a snap may absorb
SNAP_TOL = 1e-6
#: largest t accepted without a retry (factor entries grow with t); classify
#: normalizes the input scale away first, so a larger t comes from the chart or
#: from a metric near the lam wall, where every chart can exceed it (ROADMAP (h))
T_RETRY_MAX = 200.0
MAX_RETRIES = 8

FLAG_NEAR_DEGENERATE = "NearDegenerate"
FLAG_RETRIES_EXHAUSTED = "RetriesExhausted"

#: classes whose orbit absorbs rescaling, so the scale is normalized to 1
SCALE_FLEXIBLE = {(1, "0"), (1, "1"), (2, "sqrt3")}


class CanonicalForm(_Frozen):
    """One of the six equivalence classes, xi kept exact; equal and hashed by (lam, xi, n)."""

    __slots__ = ("lam", "xi", "n", "pair")
    _FIELDS = ("lam", "xi", "n")

    def __init__(self, lam: int, xi: QSqrt3, n: int) -> None:
        self._fill(lam, xi, n, canonical_pair(lam, xi))

    @property
    def xi_key(self) -> str:
        return self.pair[1]


def _t_form(lam: int, t: float, n: int) -> np.ndarray:
    """I + t E_(n-1,1) - lam E_(n,1) as floats."""
    u = shared_eye(n).copy()
    u[n - 2, 0] = t
    u[n - 1, 0] = -float(lam)
    return u


@lru_cache(maxsize=None, typed=True)  # typed: a float n must not read an int n's entry
def representative_matrix(lam: int, xi_key: str, n: int) -> np.ndarray:
    """The reduction target, the t-form with t = xi, built once and read-only."""
    require_dim(n)
    lam, xi_key = canonical_pair(lam, xi_key)
    target = _t_form(lam, xi_float(xi_key), n)
    target.flags.writeable = False
    return target


class Witness:
    """A verifiable reduction chain.

    The defining identity is
        left[0] @ ... @ left[-1] @ start @ right[0] @ ... @ right[-1] = target
    with every left factor in the transposed automorphism pattern and every
    right factor in O(n-1, 1).  When produced by :func:`classify`, `m_factor`
    satisfies act(m_factor, <,>_0) = input metric and start = (m_factor^-1)^T,
    and target is representative_matrix's read-only array, shared by every witness
    of the class and size.  Equal and hashed by identity, as its factors are arrays.
    """

    def __init__(
        self, left: list[np.ndarray], right: list[np.ndarray], start: np.ndarray,
        target: np.ndarray, m_factor: np.ndarray | None = None, flags: list[str] | None = None,
    ) -> None:
        self.left, self.right, self.start, self.target = left, right, start, target
        self.m_factor, self.flags = m_factor, [] if flags is None else flags

    @property
    def n(self) -> int:
        return self.start.shape[0]

    def product(self) -> np.ndarray:
        out = self.start
        for factor in reversed(self.left):
            out = factor.dot(out)
        for factor in self.right:
            out = out.dot(factor)
        return self.start.copy() if out is self.start else out


class VerificationResult(_Frozen):
    """verify_witness's verdict, its residual and what failed; equal and hashed by value."""

    __slots__ = _FIELDS = ("ok", "residual", "detail")

    def __init__(self, ok: bool, residual: float, detail: str = "") -> None:
        self._fill(ok, residual, detail)

    def __bool__(self) -> bool:
        return self.ok


class _Builder:
    """Tracks the working matrix and the factor chain during a reduction.

    The working matrix starts as prescale * start, exact for a power of 2;
    the first left factor carries prescale, so the chain starts from `start`.
    No step writes into the working matrix, `start` or a snap's ideal: each step
    replaces the working matrix by a new array, so none of them is copied again.
    """

    def __init__(self, start: np.ndarray, prescale: float = 1.0):
        self.start = np.array(start, dtype=float)
        self.current = self.start if prescale == 1.0 else prescale * self.start
        self.prescale = prescale
        self.left_app: list[np.ndarray] = []
        self.right_app: list[np.ndarray] = []
        self.flags: list[str] = []

    @property
    def n(self) -> int:
        return self.start.shape[0]

    def apply_left(self, h: np.ndarray, fold: float = 1.0) -> None:
        """Apply h to the working matrix; the chain records fold * h."""
        self.current = h.dot(self.current)
        if fold != 1.0:
            h = fold * h
        self.left_app.append(h)

    def apply_right(self, k: np.ndarray) -> None:
        self.right_app.append(k)
        self.current = self.current.dot(k)

    def snap(self, ideal: np.ndarray) -> None:
        """Replace the working matrix by its known exact shape."""
        dev = np.maximum.reduce(np.abs(self.current - ideal), axis=None)
        # the scale is at least 1, so it only matters once dev exceeds SNAP_TOL; each
        # test reads `not dev <= bound`, which a NaN deviation fails
        scale = 1.0 if dev <= SNAP_TOL else max(1.0, max_abs(ideal), max_abs(self.current))
        if not dev <= SNAP_TOL * scale:
            raise NumericalBreakdown(f"snap deviation {dev:.3e} exceeds tolerance")
        self.current = ideal

    def solve_onto(self, target: np.ndarray) -> None:
        """Apply the left factor target @ current^-1, projected on the pattern;
        the snap checks that what the projection dropped was rounding residue."""
        try:
            h = target.dot(inv(self.current))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("the working matrix is singular") from exc
        h.reshape(-1)[_outside_index(self.n)] = 0.0  # h is a fresh C-order array
        self.apply_left(h)
        self.snap(target)

    def witness(self, target: np.ndarray, m_factor: np.ndarray | None = None) -> Witness:
        return Witness(
            left=list(reversed(self.left_app)),
            right=list(self.right_app),
            start=self.start,
            target=target,
            m_factor=m_factor,
            flags=list(self.flags),
        )


# -- hyperbolic normalization of a pair ---------------------------------------


def o11_normalize(x: float, y: float) -> tuple[float, int, np.ndarray]:
    """Normalize (x, y) to (-lam*a, a) with a > 0 by an O(1, 1) element.

    The branch is decided by the invariant q = x^2 - y^2 relative to the pair's
    magnitude: |q| <= DEFAULT_TOL * max(x^2, y^2) -> lam=1, else by the sign of q,
    positive -> lam=2 and otherwise lam=0.  Returns (a, lam, g) with (x, y) @ g =
    (-lam*a, a), each branch's g = diag(d) @ [[c, s], [s, c]] written out; + 0.0 makes a
    zero s +0.0, as @ does.  The branch and a are read on (u, v) = (x, y) / 2^k, whose
    larger entry lies in [1/2, 1): no square overflows, and a power of 2 scales exactly.
    """
    m, k = math.frexp(max(abs(x), abs(y)))
    if m == 0.0:
        raise ZeroVector("(x, y) must be nonzero")
    u, v = math.ldexp(x, -k), math.ldexp(y, -k)
    scale = max(u * u, v * v)
    q = u * u - v * v
    if abs(q) <= DEFAULT_TOL * scale:
        # light-cone branch: reflect onto (-|x|, |y|) and boost the magnitude to 1
        s1 = -1.0 if x > 0 else 1.0
        s2 = 1.0 if y >= 0 else -1.0
        e_theta = math.ldexp(0.5 * (abs(u) + abs(v)), k)  # 0.5 (|x| + |y|), not rounded to 0
        c = 0.5 * (e_theta + 1.0 / e_theta)
        s = 0.5 * (e_theta - 1.0 / e_theta)
        g = np.array([[s1 * c, s1 * s + 0.0], [s2 * s + 0.0, s2 * c]])
        a = float(np.matmul(np.array([u, v]), g)[1])
        try:
            return math.ldexp(a, k), 1, g
        except OverflowError:  # a is about e_theta (|y| - |x|) / 2, past the float range
            return math.copysign(math.inf, a), 1, g
    if q > 0:
        sigma = -1.0 if x > 0 else 1.0
        a = math.sqrt(q / 3.0)
        us = sigma * u
        c = -(2.0 * us + v) / (3.0 * a)
        s = (us + 2.0 * v) / (3.0 * a)
        g = np.array([[sigma * c, sigma * s + 0.0], [s + 0.0, c]])
        return math.ldexp(a, k), 2, g
    sigma = 1.0 if y > 0 else -1.0
    a = math.ldexp(math.sqrt(v * v - u * u), k)
    c, s = sigma * y / a, -x / a
    g = np.array([[c, s + 0.0], [sigma * s + 0.0, sigma * c]])
    return a, 0, g


# -- pipeline stages -----------------------------------------------------------


def _reduce_last_row(builder: _Builder) -> int:
    """Rotate and boost the last row to (-lam, 0, ..., 0, 1), clear last column."""
    n = builder.n
    builder.apply_right(householder(builder.current[n - 1, : n - 1], 0, n, 0))
    x, y = float(builder.current[n - 1, 0]), float(builder.current[n - 1, n - 1])
    a, lam, g2 = o11_normalize(x, y)
    builder.apply_right(embed(g2, n, (0, n - 1)))
    h = float(a) * shared_eye(n)
    h[n - 1, n - 1] = 1.0 / a
    h[: n - 1, n - 1] = -builder.current[: n - 1, n - 1]
    # the first left factor: the witness records it times the exact prescale
    builder.apply_left(h, builder.prescale)
    # snap onto the exact last row (-lam, 0, ..., 0, 1) and last column e_n
    ideal = builder.current.copy()
    ideal[n - 1, :] = ideal[:, n - 1] = 0.0
    ideal[n - 1, 0], ideal[n - 1, n - 1] = -float(lam), 1.0
    builder.snap(ideal)
    return lam


def _reduce_lambda0(builder: _Builder) -> None:
    """Triangularize the (n-1)-block, then solve onto the identity."""
    n = builder.n
    builder.apply_right(right_triangularize(builder.current[: n - 1, : n - 1], n, 0))
    builder.solve_onto(shared_eye(n))


def _reduce_to_t(builder: _Builder, lam: int) -> float:
    """Reach I + t E_(n-1,1) - lam E_(n,1), t >= 0: a Householder factor and a
    middle rotation leave the (3, 3) corner x and (3, 1) entry y that fix
    t = |y / x|, and one left solve lands on it.  A corner inside the zero band
    DEFAULT_TOL * max(1, |y|) fixes no t: the chart breaks down, and classify redraws it."""
    n = builder.n
    if n >= 5:  # zero the first column below its third entry
        builder.apply_left(householder(builder.current[2 : n - 1, 0], 0, n, 2))
    builder.apply_right(right_triangularize(builder.current[1 : n - 1, 1 : n - 1], n, 1))
    if abs(builder.current[2, 2]) <= DEFAULT_TOL * max(1.0, abs(builder.current[2, 0])):
        raise NumericalBreakdown("vanishing (3, 3) corner")
    t_signed = float(builder.current[2, 0] / builder.current[2, 2])
    target = shared_eye(n).copy()
    target[2, 0] = t_signed
    target[n - 1, 0] = -float(lam)
    builder.solve_onto(target)
    # conjugate the shear entry into the (n-1, 1) slot with a positive sign by the
    # signed swap of coordinates 3 and n-1, a symmetric signed permutation and so exact
    if abs(t_signed) > 0.0:
        swap = shared_eye(n).copy()
        swap[2, 2] = swap[n - 2, n - 2] = 0.0
        # at n = 4 coordinates 3 and n-1 coincide, and the swap is the sign alone
        swap[2, n - 2] = swap[n - 2, 2] = math.copysign(1.0, t_signed)
        builder.apply_left(swap)
        builder.apply_right(swap)
    t = abs(t_signed)
    builder.snap(_t_form(lam, t, n))
    return t


#: longest boost chain applied one 2-D step at a time: a chain of one or two boosts costs 5.2
#: or 9.3 us stepped against 11.4 us stacked, and the stack pays from three boosts on (15-16 us
#: at thirteen; n = 5, timeit, 2-vCPU x86_64, numpy 2.4.6).  Short chains are the common ones:
#: one and two boosts are 4.8 % and 2.1 % of orbit-sweep's seed-1 inputs (254 and 110 of 5280),
#: and stacking every chain raised its op_p99_ms 3.1 %; near-wall's chains reach 14 boosts
STEPPED_CHAIN_MAX = 2


@lru_cache(maxsize=None)
def _boost_parts(n: int, e: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only parts of a light-cone boost step by e = 1/2 or 2: s = (e - 1/e) / 2, the
    boost, the left factor's constant entries, and the lam=1 t-form at t = 0, I - E_(n,1),
    which is the (1, 0) representative."""
    c, s = 0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e)
    boost = embed(np.array([[c, s], [s, c]]), n, (0, n - 1))
    h = shared_eye(n).copy()
    h[0, 0], h[0, n - 1], h[n - 1, n - 1] = 1.0 / e, -s, e
    for part in (boost, h):
        part.flags.writeable = False  # shared by every chain: witnesses record the boost
    return s, boost, h, representative_matrix(1, "0", n)


def _boost_t(builder: _Builder, t: float) -> float:
    """Halve or double t into [1/2, 2] by k light-cone boosts of e = 1/2 or 2; returns t e^k.

    Step i is the one right factor, the boost, and a left factor of its own t e^i; its product
    is snapped onto the t-form of t e^(i+1) (one boost by 2^k skips those snaps, rounds
    differently and misses more often).  e is a power of 2, so every t e^i is exact, and k and
    all factors are known before the first step.  Up to STEPPED_CHAIN_MAX steps run one at a
    time.  A longer chain forms its k products as one stack, each step's left factor times the
    matrix it starts from times the boost: the first starts from the working matrix, each later
    one from the t-form the step before snaps onto.  One magnitude pass reads every snap; a
    chain that fails it snaps step by step, so the first failing step raises.  Either way the
    factors, the products and a NumericalBreakdown are those of the steps run one at a time.
    """
    if 0.5 <= t <= 2.0:
        return t
    m, p = math.frexp(t)
    k, e = ((p - 2 if m == 0.5 else p - 1), 0.5) if t > 2.0 else (-p, 2.0)
    n = builder.n
    s, boost, h0, form = _boost_parts(n, e)
    if k <= STEPPED_CHAIN_MAX:
        for _ in range(k):
            builder.apply_right(boost)
            h = h0.copy()
            h[n - 2, n - 1] = -t * s * e
            builder.apply_left(h)
            t *= e
            ideal = form.copy()
            ideal[n - 2, 0] = t
            builder.snap(ideal)
        return t
    ts = np.ldexp(t, np.arange(k + 1) if e == 2.0 else np.arange(0, -k - 1, -1))
    forms = np.empty((k + 1, n, n))
    forms[...] = form
    forms[:, n - 2, 0] = ts
    forms[0] = builder.current
    hs = np.empty((k, n, n))
    hs[...] = h0
    hs[:, n - 2, n - 1] = ts[:k] * s * -e  # -t * s * e bit for bit: rounding is sign-symmetric
    products, ideals = np.matmul(hs, np.matmul(forms[:k], boost)), forms[1:]
    if not np.maximum.reduce(np.abs(products - ideals), axis=None) <= SNAP_TOL:  # or a NaN
        for product, ideal in zip(products, ideals):  # step by step, to the first failing snap
            builder.current = product
            builder.snap(ideal)
    builder.right_app.extend([boost] * k)
    builder.left_app.extend(hs)
    builder.current = forms[k]
    return float(ts[k])


def _wall_side(lam: int, t: float) -> str:
    """The class xi that t reads on branch lam, the one reader of both walls, xi = 0 on lam = 1
    and sqrt3 on lam = 2.  Outside WALL_BAND of the wall it is 1 on lam = 1, and on lam = 2 it
    is 0 below sqrt3 and 2 above, as lambda2_closed_form's gap > 0 reads there; within
    SNAP_LIMIT of the wall it is the wall class, and between the two AmbiguousNearWall."""
    wall, key = ("0", "1") if lam == 1 else ("sqrt3", "0" if t < SQRT3_F else "2")
    dist = t - xi_float(wall)
    if abs(dist) > WALL_BAND:
        return key
    if abs(dist) > SNAP_LIMIT:
        raise AmbiguousNearWall(((lam, key), (lam, wall)), dist)
    return wall


def _reduce_onto(builder: _Builder, lam: int, t: float, xi_key: str) -> None:
    """From I + t E - lam E' reach the class xi_key that _wall_side read from t.

    The wall class is one snap, flagged NearDegenerate from outside the zero band DEFAULT_TOL.
    Off the wall, lam = 1 brings t into [1/2, 2] by boosts and lands on t = 1 by one null
    rotation; lam = 2 takes lambda2_closed_form's rotation and one solve onto xi_key's target.
    """
    n = builder.n
    if (lam, xi_key) in ((1, "0"), (2, "sqrt3")):
        if abs(t - xi_float(xi_key)) > DEFAULT_TOL:
            builder.flags.append(FLAG_NEAR_DEGENERATE)
        builder.snap(representative_matrix(lam, xi_key, n))
        return
    c4 = (0, 1, n - 2, n - 1)
    if lam == 2:
        _, s, phi = lambda2_closed_form(t)
        k1 = np.array(
            [
                [s, 0.0, -phi, -2.0 * s + 2.0],
                [0.0, 1.0, 0.0, 0.0],
                [-phi, 0.0, 3.0 * s - 4.0, 2.0 * phi],
                [2.0 * s - 2.0, 0.0, -2.0 * phi, -4.0 * s + 5.0],
            ]
        )
        builder.apply_right(embed(k1, n, c4))
        builder.solve_onto(representative_matrix(2, xi_key, n))
        return
    t = _boost_t(builder, t)
    s = (t - 1.0) / t
    k1 = np.array(
        [
            [1.0 - s * s / 2.0, 0.0, s, s * s / 2.0],
            [0.0, 1.0, 0.0, 0.0],
            [-s, 0.0, 1.0, s],
            [-s * s / 2.0, 0.0, s, 1.0 + s * s / 2.0],
        ]
    )
    builder.apply_right(embed(k1, n, c4))
    h1 = shared_eye(n).copy()
    h1[0, n - 1] = -s * s / 2.0
    h1[n - 2, n - 1] = -s * s * t / 2.0 - s
    builder.apply_left(h1)
    h2 = shared_eye(n).copy()
    h2[0, 0] = t
    h2[0, n - 2] = -s
    h2[n - 2, n - 2] = 1.0 / t
    builder.apply_left(h2)
    builder.snap(representative_matrix(1, "1", n))


def lambda2_closed_form(t: float) -> tuple[str, float, float]:
    """The class xi, the root s >= 5/3 and phi = sqrt(3s^2 - 8s + 5) of the lam=2 root equation
    3 phi = t (3s - 4) (xi = 0, t < sqrt3) or (3 + 2t) phi = (t + 2)(3s - 4) (xi = 2, t > sqrt3).

    With u = 3s - 4, phi^2 = (u^2 - 1)/3, so squaring either root equation leaves a quadratic
    in u with one root u >= 1.  phi is read from t*u, not from s, so nothing cancels at the
    branch point u = 1 (t = 0); and 3 - t^2 is formed as (sqrt3 - t)(sqrt3 + t) with sqrt3 in
    two parts, so nothing cancels next to the wall either.  Past t of about 1.3e154 the gap
    overflows, and so does every t-form the root would carry: NumericalBreakdown.
    """
    gap = (SQRT3_F - t + SQRT3_LO) * (SQRT3_F + t)
    if not math.isfinite(gap):
        raise NumericalBreakdown(f"3 - t^2 reads {gap} at t = {t:.3e}")
    if gap > 0.0:
        u = SQRT3_F / math.sqrt(gap)
        return "0", (4.0 + u) / 3.0, t * u / 3.0
    r = math.sqrt(-gap)
    return "2", (4.0 + (3.0 + 2.0 * t) / r) / 3.0, (t + 2.0) / r


# -- public single-stage entry points -----------------------------------------


def _check_g_lambda(g: np.ndarray, lam: int) -> None:
    n = g.shape[0]
    require_dim(n)
    band = DEFAULT_TOL * max(1.0, max_abs(g))
    if not (
        np.isfinite(g).all()  # an inf widens the band, and a NaN off the last row is not read
        and abs(g[n - 1, n - 1] - 1.0) <= band
        and max_abs(g[n - 1, 1 : n - 1]) <= band
        and max_abs(g[: n - 1, n - 1]) <= band
        and abs(g[n - 1, 0] + lam) <= band
    ):
        raise NotInGLambda("matrix is not in the normalized last-row form")


def reduce_last_row(g: np.ndarray) -> tuple[np.ndarray, int, Witness]:
    """Send an invertible matrix into the class with normalized last row."""
    g = to_float(g)
    require_dim(g.shape[0])
    if is_singular(g[None])[0]:
        raise np.linalg.LinAlgError("singular input")
    builder = _Builder(g)
    lam = _reduce_last_row(builder)
    return builder.current.copy(), lam, builder.witness(builder.current)


def reduce_lambda0(g: np.ndarray) -> Witness:
    """Reduce an element with trivial last row/column to the identity."""
    g = to_float(g)
    _check_g_lambda(g, 0)
    builder = _Builder(g)
    _reduce_lambda0(builder)
    return builder.witness(np.eye(g.shape[0]))


def reduce_to_t(g: np.ndarray, lam: int) -> tuple[float, Witness]:
    """Reduce a normalized-last-row element to the single-shear form."""
    if lam not in (1, 2):
        raise NotInGLambda(f"lam must be 1 or 2, got {lam}")
    g = to_float(g)
    _check_g_lambda(g, lam)
    builder = _Builder(g)
    t = _reduce_to_t(builder, lam)
    return t, builder.witness(builder.current)


def _reduce_from_t(lam: int, t: float, n: int) -> tuple[str, Witness]:
    """The class t reads on branch lam, and the witness from the t-form onto it."""
    require_dim(n)
    if not 0.0 <= t < math.inf:
        raise NegativeT(f"t must be finite and >= 0, got {t}")
    builder = _Builder(_t_form(lam, t, n))
    xi_key = _wall_side(lam, t)
    _reduce_onto(builder, lam, t, xi_key)
    return xi_key, builder.witness(representative_matrix(lam, xi_key, n))


def reduce_lambda1(t: float, n: int) -> tuple[str, Witness]:
    """Decide xi in {0, 1} for the light-cone branch, with witness from the t-form."""
    return _reduce_from_t(1, t, n)


def reduce_lambda2(t: float, n: int) -> tuple[str, Witness]:
    """Decide xi in {0, sqrt3, 2} for the spacelike branch."""
    return _reduce_from_t(2, t, n)


# -- invariant classifier ------------------------------------------------------


@lru_cache(maxsize=None, typed=True)  # typed: a float n must not read a numpy integer's entry
def signature_table(n: int) -> MappingProxyType:
    """Restricted signatures (center, derived ideal) of the six classes, read-only."""
    require_dim(n)
    return MappingProxyType({
        (0, "0"): ((n - 3, 1, 0), (0, 1, 0)),
        (1, "0"): ((n - 3, 0, 1), (0, 0, 1)),
        (1, "1"): ((n - 3, 1, 0), (0, 0, 1)),
        (2, "0"): ((n - 2, 0, 0), (1, 0, 0)),
        (2, "sqrt3"): ((n - 3, 0, 1), (1, 0, 0)),
        (2, "2"): ((n - 3, 1, 0), (1, 0, 0)),
    })


def restricted_signatures(metric: Metric) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Signatures of the metric on the center and on the derived ideal, at unit scale."""
    return _read_signatures(_unit_gram(metric)[0][None])[0][0]


def classify_by_invariants(metric: Metric) -> CanonicalForm:
    """Classify via restricted signatures alone (no group elements).

    An exact metric is read by exact signs, a float one at unit scale, M / 4^e.
    """
    gram, eigs = _unit_gram(metric)
    _require_lorentzian(_signs(gram) if eigs is None else _band_signs(eigs)[0])
    return _classify_grams(gram[None])[0][0]


def classify_by_invariants_flagged(metric: Metric) -> tuple[CanonicalForm, list[str]]:
    """The table row of the metric's restricted signatures, at unit scale, and its flags."""
    return _classify_grams(_unit_gram(metric)[0][None])[0]


@lru_cache(maxsize=None)
def _forms_by_signatures(n: int) -> MappingProxyType:
    """signature_table(n) inverted, read-only: (center, derived) signatures -> class."""
    return MappingProxyType(
        {s: CanonicalForm(lam, xi_exact(key), n) for (lam, key), s in signature_table(n).items()}
    )


def _read_signatures(grams: np.ndarray) -> tuple[list[tuple], list[bool]]:
    """The (center, derived) signatures of each gram of a (B, n, n) stack, one gram
    being the batch gram[None], and whether each is near-degenerate.

    The grams are unit-scale and already checked symmetric by the caller.  A float
    stack takes one eigvalsh on its center blocks; the derived ideal's 1x1 block is
    its own eigenvalue; metrics._band_signs signs each gram's eigenvalues as Python
    floats.  An exact stack keeps exact congruence signs and is never near-degenerate.
    """
    if grams.dtype == object:
        keys = [(_signs(g[2:, 2:]), _signs(g[-1:, -1:])) for g in grams]
        return keys, [False] * len(grams)
    keys, near = [], []
    centers = eigvalsh(grams[:, 2:, 2:]).tolist()
    for center, derived in zip(centers, grams[:, -1, -1].tolist()):
        (c, c_near), (d, d_near) = _band_signs(center), _band_signs([derived])
        keys.append((c, d))
        near.append(c_near or d_near)
    return keys, near


def _classify_grams(grams: np.ndarray) -> list[tuple[CanonicalForm, list[str]]]:
    """Each gram's class and flags (NearDegenerate); NoTableMatch names the first bad gram."""
    keys, near = _read_signatures(grams)
    forms = _forms_by_signatures(grams.shape[-1])
    for i, key in enumerate(keys):
        if key not in forms:
            raise NoTableMatch(
                f"gram {i}: signatures {key} match no class; input may be numerically degenerate"
            )
    return [(forms[key], [FLAG_NEAR_DEGENERATE] if flag else []) for key, flag in zip(keys, near)]


# -- full classifier -----------------------------------------------------------


@lru_cache(maxsize=None)
def _chart(n: int, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (R, J R J) for a deterministic R in O(n-1, 1), J = diag(1, ..., 1, -1):
    J R J = (R^-1)^T, so the redrawn chart m R starts from (m^-1)^T J R J, no inverse formed."""
    rng = np.random.default_rng(7700 + 131 * attempt + n)
    q = qr_q(rng.standard_normal((n - 1, n - 1)))
    rot = embed(q, n, tuple(range(n - 1)))
    theta = 0.35 + 0.17 * attempt
    c, s = math.cosh(theta), math.sinh(theta)
    r = rot.dot(embed(np.array([[c, s], [s, c]]), n, (0, n - 1)))
    j = np.diag(shared_minkowski_gram(n))
    jrj = r * np.outer(j, j)
    r.flags.writeable = jrj.flags.writeable = False
    return r, jrj


def _pipeline_scale(builder: _Builder, lam: int, xi_key: str) -> float:
    """Scale k with k * M in the automorphism orbit of the representative;
    ValueError when k overflows."""
    if (lam, xi_key) in SCALE_FLEXIBLE:
        # the orbit of these classes absorbs rescaling; normalize
        return 1.0
    # the left product, formed only where it is read
    lp = reduce(lambda product, h: h.dot(product), builder.left_app, shared_eye(builder.n))
    (a, b), (c, d) = lp[:2, :2].tolist()  # Python floats overflow to inf with no warning
    root = (a * d - c * b) / float(lp[-1, -1])
    k = root * root
    if not math.isfinite(k):
        raise ValueError("the metric's scale is outside the float range")
    return k


def classify(metric: Metric) -> tuple[CanonicalForm, float, Witness]:
    """Full reduction of a Lorentzian metric to its canonical class.

    Returns the class, the scale k making k*M pseudo-orthonormalizable on
    the canonical frame, and the witness chain.  The result is cross-checked
    against the restricted-signature classifier.  Raises AmbiguousNearWall
    when t falls between SNAP_LIMIT and WALL_BAND of a wall; DimensionTooSmall
    for n < 4 is raised when the Metric is made.

    The scale of M is not part of its class, so both classifiers read M / 4^e (retry factors
    have |det| = 1); an exact metric keeps its exact signs.  Read unscaled, the light-cone t
    would grow with the scale, past T_RETRY_MAX on every chart from 10^3 (1, 1) on.

    On both branches lam = 1 and lam = 2 the class is read from t, by _wall_side, before any
    chain is built, and only a class that matches the invariants' is reduced onto.  A lam = 1
    mismatch raises ClassificationMismatch at once, since the lam = 1 t-form barely moves
    between charts; a lam = 2 mismatch redraws the chart.
    """
    n = metric.n
    base_m, base_start, prescale = _factor_metric(metric)  # validates the signature
    inv_gram = metric.gram if metric.backend == EXACT else metric.gram * (prescale * prescale)
    inv_form, inv_flags = _classify_grams(inv_gram[None])[0]
    last_error: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        m, start = base_m, base_start
        if attempt:
            r, jrj = _chart(n, attempt)
            m, start = m.dot(r), start.dot(jrj)
        builder = _Builder(start, prescale)
        try:
            lam = _reduce_last_row(builder)
            if lam == 0:
                _reduce_lambda0(builder)
                xi_key = "0"
            else:
                t = _reduce_to_t(builder, lam)
                if t > T_RETRY_MAX:  # the chart or the lam wall: a redraw helps only the first
                    if attempt < MAX_RETRIES:
                        continue
                    builder.flags.append(FLAG_RETRIES_EXHAUSTED)
                xi_key = _wall_side(lam, t)
                if (lam, xi_key) == inv_form.pair:  # a mismatch fails below, unbuilt
                    _reduce_onto(builder, lam, t, xi_key)
        except NumericalBreakdown as exc:
            last_error = exc
            continue
        if (lam, xi_key) != inv_form.pair:
            last_error = ClassificationMismatch(
                f"pipeline found ({lam}, {xi_key}), invariants say {inv_form.pair}"
            )
            if lam == 1:
                # the lam=1 t-form barely moves between charts: no redraw helps
                raise last_error
            continue
        witness = builder.witness(representative_matrix(lam, xi_key, n), m_factor=m)
        witness.flags.extend(f for f in inv_flags if f not in witness.flags)
        k = _pipeline_scale(builder, lam, xi_key)
        return inv_form, k, witness
    raise last_error  # set by every failed attempt: the t redraw stops at MAX_RETRIES


# -- witness verification ------------------------------------------------------


def _size_problems(metric: Metric, witness: Witness, factors) -> list[str]:
    """Each matrix of the witness, and the metric, that is not n x n for the start's n
    rows, named with both sizes; a chain of such matrices cannot be multiplied out.
    `factors` is np.array of the left and right factors, None if their shapes differ."""
    n = witness.n
    named = [("start", witness.start), ("target", witness.target)]
    named += [("m-factor", witness.m_factor), ("metric", metric.gram)]
    if factors is None or (factors.size and factors.shape[1:] != (n, n)):
        for side in ("left", "right"):
            named += [(f"{side} factor {i}", h) for i, h in enumerate(getattr(witness, side))]
    return [
        f"{name} is {'x'.join(map(str, a.shape))}, the witness {n}x{n}"
        for name, a in named
        if a.shape != (n, n)
    ]


@lru_cache(maxsize=None)
def _outside_index(n: int) -> np.ndarray:
    """Read-only flat positions of the zeros of a left factor's pattern, aut_pattern(n).mask.T."""
    index = np.flatnonzero(~aut_pattern(n).mask.T)
    index.flags.writeable = False
    return index


@np.errstate(all="ignore")
def verify_witness(metric: Metric, witness: Witness) -> VerificationResult:
    """Re-multiply the witness of a classified metric and check every membership claim
    at WITNESS_TOL, the recorded m-factor against the metric's Gram matrix included.

    Every size test is relative and reads `not x <= bound`, so that a NaN fails it and an
    overflow to inf or NaN needs no warning: the products run with floating-point errors
    ignored.  Singularity is judged by conditioning, so a witness of c * M checks as one of
    M does.
    A matrix of the wrong size, a singular m-factor, or an exact gram whose float copy
    overflows or rounds to zero fails the check before anything is multiplied.
    """
    if witness.m_factor is None:
        return VerificationResult(False, math.inf, "witness has no m-factor")
    try:
        factors = np.array([*witness.left, *witness.right], dtype=float)
    except ValueError:  # factors of different shapes
        factors = None
    sizes_wrong = _size_problems(metric, witness, factors)
    if sizes_wrong:
        return VerificationResult(False, math.inf, "; ".join(sizes_wrong))
    try:
        minv = inv(witness.m_factor)
    except np.linalg.LinAlgError:
        return VerificationResult(False, math.inf, "m-factor is singular")
    n = witness.n
    problems = []
    ipq = shared_minkowski_gram(n)
    chain = witness.product() - witness.target
    try:
        gram = _float_gram(metric.gram)
    except ValueError as exc:  # an exact gram beyond the float range
        return VerificationResult(False, math.inf, str(exc))
    # one pass reads each start test's miss and size, and the chain's miss
    gram_miss = minv.T.dot(ipq).dot(minv) - gram
    reads = np.abs([gram_miss, minv.T - witness.start, gram, witness.start, chain])
    gram_res, start_res, *sizes, residual = np.maximum.reduce(reads, axis=(1, 2)).tolist()
    if not gram_res <= WITNESS_TOL * sizes[0]:
        problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
    if not start_res <= WITNESS_TOL * sizes[1]:
        problems.append("start matrix is not the transpose-inverse of m")
    # every factor in one stack, the left ones first, and one magnitude pass over it
    factors = factors.reshape(-1, n, n)
    mags, cut = np.abs(factors).reshape(-1, n * n), len(witness.left)
    factor_sizes = np.maximum.reduce(mags, axis=1).tolist()
    outside = np.maximum.reduce(mags[:cut].take(_outside_index(n), axis=1), axis=1)
    singular = is_singular(factors[:cut], factor_sizes[:cut])
    for idx, (out, sing) in enumerate(zip(outside.tolist(), singular)):
        if not out <= WITNESS_TOL:
            problems.append(f"left factor {idx} violates the pattern ({out:.2e})")
        if sing:
            problems.append(f"left factor {idx} is singular")
    right = factors[cut:]
    devs = np.abs(np.matmul(np.matmul(right.transpose(0, 2, 1), ipq), right) - ipq)
    devs = np.maximum.reduce(devs, axis=(1, 2))
    for idx, (dev, size) in enumerate(zip(devs.tolist(), factor_sizes[cut:])):
        if not dev <= WITNESS_TOL * (size * size) < math.inf:
            problems.append(f"right factor {idx} is not pseudo-orthogonal ({dev:.2e})")
    if not residual <= WITNESS_TOL:
        problems.append(f"chain product misses the target by {residual:.2e}")
    return VerificationResult(not problems, residual, "; ".join(problems))


# -- serialization -------------------------------------------------------------


def witness_to_json(witness: Witness) -> dict:
    return {
        "left": [to_float(h).tolist() for h in witness.left],
        "right": [to_float(k).tolist() for k in witness.right],
        "start": witness.start.tolist(),
        "target": witness.target.tolist(),
        "m": None if witness.m_factor is None else to_float(witness.m_factor).tolist(),
        "flags": list(witness.flags),
    }


def classification_to_json(form: CanonicalForm, k: float, witness: Witness) -> dict:
    return {
        "n": form.n,
        "lambda": form.lam,
        "xi": xi_json(form.xi_key),
        "k": k,
        "witness": witness_to_json(witness),
        "flags": list(witness.flags),
    }
