"""Reduction of any Lorentzian inner product to one of six canonical forms.

The classifier factors a metric as M = m.<,>_0 and drives m's
transpose-inverse through a chain of left factors from the transposed
automorphism pattern and right factors from O(n-1, 1) until it reaches a
representative matrix I + xi*E_(n-1,1) - lam*E_(n,1).  Every factor is kept,
so the result ships with a witness that can be re-multiplied and checked.

An independent classifier reads the same answer off the signatures of the
restrictions to the center and the derived ideal; the two must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    embed,
    householder,
    max_abs,
    minkowski_gram,
    right_triangularize,
    to_float,
)
from .liealg import hprime_pattern
from .metrics import (
    CANONICAL_PAIRS,
    Metric,
    NotARepresentative,
    SignatureTriple,
    WrongSignature,
    factor_metric,
    signature_of,
    spectral_signature,
    xi_exact,
    xi_float,
    xi_key_of,
)
from .numerics import (
    DEFAULT_TOL,
    NEGATIVE,
    NoConvergence,
    NoSignChange,
    POSITIVE,
    QSqrt3,
    ROOT_EPS,
    bisect_root,
    sign_with_tol,
)

SQRT3_F = math.sqrt(3.0)

#: parameter band around a reduction wall treated as being on the wall
WALL_BAND = 1e-6
#: relative deviation from the exact shape that a snap may absorb
SNAP_TOL = 1e-6
#: ill-conditioned zone around a wall that triggers a refactorization retry
RETRY_BAND = 2e-2
#: largest t accepted without a retry (factor entries grow with t)
T_RETRY_MAX = 200.0
MAX_RETRIES = 8

FLAG_NEAR_DEGENERATE = "NearDegenerate"
FLAG_RETRIES_EXHAUSTED = "RetriesExhausted"

#: classes whose orbit absorbs rescaling, so the scale is normalized to 1
SCALE_FLEXIBLE = {(1, "0"), (1, "1"), (2, "sqrt3")}


class ZeroVector(ValueError):
    """The hyperbolic normal form needs a nonzero pair."""


class NotInG0(ValueError):
    """Expected a matrix with trivial last row and column."""


class NotInGLambda(ValueError):
    """Expected last row (-lam, 0, ..., 0, 1) and last column e_n."""


class NegativeT(ValueError):
    """The shear parameter t must be nonnegative."""


class NoTableMatch(ValueError):
    """Restricted signatures match no row of the classification table."""


class ClassificationMismatch(RuntimeError):
    """Witness pipeline and invariant classifier disagree."""


class NumericalBreakdown(RuntimeError):
    """A pivot or snap check failed; the caller may retry with a new factor."""


@dataclass(frozen=True)
class CanonicalForm:
    """One of the six equivalence classes, xi kept exact."""

    lam: int
    xi: QSqrt3
    n: int

    @property
    def xi_key(self) -> str:
        return xi_key_of(self.xi)

    @property
    def pair(self) -> tuple[int, str]:
        return (self.lam, self.xi_key)

    def __post_init__(self):
        if (self.lam, xi_key_of(self.xi)) not in CANONICAL_PAIRS:
            raise NotARepresentative(f"({self.lam}, {self.xi}) not canonical")


def canonical_form(lam: int, xi, n: int) -> CanonicalForm:
    return CanonicalForm(lam=int(lam), xi=xi_exact(xi_key_of(xi)), n=n)


def representative_matrix(lam: int, xi_key: str, n: int) -> np.ndarray:
    """The reduction target I + xi E_(n-1,1) - lam E_(n,1) as floats."""
    u = np.eye(n)
    u[n - 2, 0] = xi_float(xi_key)
    u[n - 1, 0] = -float(lam)
    return u


@dataclass
class Witness:
    """A verifiable reduction chain.

    The defining identity is
        left[0] @ ... @ left[-1] @ start @ right[0] @ ... @ right[-1] = target
    with every left factor in the transposed automorphism pattern and every
    right factor in O(n-1, 1).  When produced by :func:`classify`, `m_factor`
    satisfies act(m_factor, <,>_0) = input metric and start = (m_factor^-1)^T.
    """

    left: list[np.ndarray]
    right: list[np.ndarray]
    start: np.ndarray
    target: np.ndarray
    m_factor: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.start.shape[0]

    def product(self) -> np.ndarray:
        out = self.start.copy()
        for factor in reversed(self.left):
            out = factor @ out
        for factor in self.right:
            out = out @ factor
        return out


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    residual: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _Builder:
    """Tracks the working matrix and the factor chain during a reduction."""

    def __init__(self, start: np.ndarray):
        self.start = np.array(start, dtype=float)
        self.current = self.start.copy()
        self.left_app: list[np.ndarray] = []
        self.right_app: list[np.ndarray] = []
        self.left_product = np.eye(start.shape[0])
        self.flags: list[str] = []

    @property
    def n(self) -> int:
        return self.start.shape[0]

    def apply_left(self, h: np.ndarray) -> None:
        self.left_app.append(h)
        self.left_product = h @ self.left_product
        self.current = h @ self.current

    def apply_right(self, k: np.ndarray) -> None:
        self.right_app.append(k)
        self.current = self.current @ k

    def snap(self, ideal: np.ndarray) -> None:
        """Replace the working matrix by its known exact shape."""
        ideal = np.asarray(ideal, dtype=float)
        dev = max_abs(self.current - ideal)
        # the scale is at least 1, so it only matters once dev exceeds SNAP_TOL
        if dev > SNAP_TOL and dev > SNAP_TOL * max(1.0, max_abs(ideal), max_abs(self.current)):
            raise NumericalBreakdown(f"snap deviation {dev:.3e} exceeds tolerance")
        self.current = ideal.copy()

    def witness(self, target: np.ndarray, m_factor: np.ndarray | None = None) -> Witness:
        return Witness(
            left=list(reversed(self.left_app)),
            right=list(self.right_app),
            start=self.start.copy(),
            target=np.asarray(target, dtype=float),
            m_factor=m_factor,
            flags=list(self.flags),
        )


# -- hyperbolic normalization of a pair ---------------------------------------


def o11_normalize(
    x: float, y: float, tol: float = DEFAULT_TOL
) -> tuple[float, int, np.ndarray]:
    """Normalize (x, y) to (-lam*a, a) with a > 0 by an O(1, 1) element.

    The branch is decided by the sign of the invariant x^2 - y^2 relative
    to the pair's magnitude: negative -> lam=0, zero -> lam=1, positive ->
    lam=2.  Returns (a, lam, g) with (x, y) @ g = (-lam*a, a).
    """
    scale = max(x * x, y * y)
    if scale == 0.0:
        raise ZeroVector("(x, y) must be nonzero")
    q = x * x - y * y
    branch = sign_with_tol(q, tol * scale)
    if branch == NEGATIVE:
        sigma = 1.0 if y > 0 else -1.0
        a = math.sqrt(y * y - x * x)
        c, s = sigma * y / a, -x / a
        g = np.array([[1.0, 0.0], [0.0, sigma]]) @ np.array([[c, s], [s, c]])
        return a, 0, g
    if branch == POSITIVE:
        sigma = -1.0 if x > 0 else 1.0
        a = math.sqrt(q / 3.0)
        xs = sigma * x
        c = -(2.0 * xs + y) / (3.0 * a)
        s = (xs + 2.0 * y) / (3.0 * a)
        g = np.array([[sigma, 0.0], [0.0, 1.0]]) @ np.array([[c, s], [s, c]])
        return a, 2, g
    # light-cone branch: reflect onto (-|x|, |y|) and boost the magnitude to 1
    s1 = -1.0 if x > 0 else 1.0
    s2 = 1.0 if y >= 0 else -1.0
    e_theta = 0.5 * (abs(x) + abs(y))
    c = 0.5 * (e_theta + 1.0 / e_theta)
    s = 0.5 * (e_theta - 1.0 / e_theta)
    g = np.array([[s1, 0.0], [0.0, s2]]) @ np.array([[c, s], [s, c]])
    a = float((np.array([x, y]) @ g)[1])
    return a, 1, g


# -- pipeline stages -----------------------------------------------------------


def _snap_g_lambda(builder: _Builder, lam: int) -> None:
    """Force the exact last row/column of the working matrix."""
    n = builder.n
    ideal = builder.current.copy()
    ideal[n - 1, :] = 0.0
    ideal[n - 1, 0] = -float(lam)
    ideal[n - 1, n - 1] = 1.0
    ideal[: n - 1, n - 1] = 0.0
    builder.snap(ideal)


def _reduce_last_row(builder: _Builder, tol: float) -> int:
    """Rotate and boost the last row to (-lam, 0, ..., 0, 1), clear last column."""
    n = builder.n
    row = builder.current[n - 1]
    alpha = householder(row[: n - 1], 0)
    builder.apply_right(embed(alpha, n, tuple(range(n - 1))))
    x, y = float(builder.current[n - 1, 0]), float(builder.current[n - 1, n - 1])
    a, lam, g2 = o11_normalize(x, y, tol)
    builder.apply_right(embed(g2, n, (0, n - 1)))
    h = float(a) * np.eye(n)
    h[n - 1, n - 1] = 1.0 / a
    h[: n - 1, n - 1] = -builder.current[: n - 1, n - 1]
    builder.apply_left(h)
    _snap_g_lambda(builder, lam)
    return lam


def _reduce_lambda0(builder: _Builder) -> None:
    """Triangularize the (n-1)-block and cancel it from the left."""
    n = builder.n
    block = builder.current[: n - 1, : n - 1]
    q = right_triangularize(block)
    builder.apply_right(embed(q, n, tuple(range(n - 1))))
    upper = builder.current.copy()
    upper[n - 1, :] = 0.0
    upper[n - 1, n - 1] = 1.0
    for i in range(1, n - 1):
        upper[i, :i] = 0.0  # triangular up to rotation residue
    builder.snap(upper)
    builder.apply_left(hprime_pattern(n).project(np.linalg.inv(upper)))
    builder.snap(np.eye(n))


def _reduce_to_t(builder: _Builder, lam: int, tol: float) -> float:
    """Peel the matrix down to I + t E_(n-1,1) - lam E_(n,1) with t >= 0."""
    n = builder.n
    cur = builder.current
    if n >= 5:
        # zero the first column below its third entry
        h = householder(cur[2 : n - 1, 0], 0)
        builder.apply_left(embed(h, n, tuple(range(2, n - 1))))
        ideal = builder.current.copy()
        ideal[3 : n - 1, 0] = 0.0
        builder.snap(ideal)
    # triangularize the middle block from the right
    block = builder.current[1 : n - 1, 1 : n - 1]
    q = right_triangularize(block)
    builder.apply_right(embed(q, n, tuple(range(1, n - 1))))
    ideal = builder.current.copy()
    for i in range(2, n - 1):
        ideal[i, 1:i] = 0.0
    builder.snap(ideal)
    # peel columns n-1 .. 4 down to identity
    for j in range(n - 2, 2, -1):
        pivot = float(builder.current[j, j])
        if abs(pivot) < 1e-12 * max(1.0, max_abs(builder.current)):
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
    row_scale = max(1.0, max_abs(builder.current[2]))
    if abs(builder.current[2, 2]) <= 1e-9 * row_scale:
        _fix_zero_corner(builder, lam)
    x = float(builder.current[2, 2])
    y = float(builder.current[2, 0])
    # clear the third column, then cancel the top 2x2 block
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
    top = builder.current[0:2, 0:2]
    h5 = embed(np.linalg.inv(top), n, (0, 1))
    builder.apply_left(h5)
    t_signed = y / x
    ideal = np.eye(n)
    ideal[2, 0] = t_signed
    ideal[n - 1, 0] = -float(lam)
    builder.snap(ideal)
    # conjugate the shear entry into the (n-1, 1) slot with a positive sign
    if abs(t_signed) > 0.0:
        v = np.zeros(n - 3)
        v[0] = t_signed
        h = householder(v, -1)
        coords = tuple(range(2, n - 1))
        builder.apply_left(embed(h, n, coords))
        builder.apply_right(embed(h.T, n, coords))
    t = abs(t_signed)
    ideal = np.eye(n)
    ideal[n - 2, 0] = t
    ideal[n - 1, 0] = -float(lam)
    builder.snap(ideal)
    return t


def _fix_zero_corner(builder: _Builder, lam: int) -> None:
    """Swap a vanishing (3, 3) corner entry into a nonzero one.

    Uses the explicit O(3,1) element with sqrt(lam^2+1) entries acting on
    coordinates (1, 2, 3, n), followed by a last-column cleanup.
    """
    n = builder.n
    y = float(builder.current[2, 0])
    if abs(y) < 1e-12 * max(1.0, max_abs(builder.current)):
        raise NumericalBreakdown("degenerate corner: both x and y vanish")
    r = math.sqrt(lam * lam + 1.0)
    lam_f = float(lam)
    k1 = np.array(
        [
            [0.0, 0.0, r, lam_f],
            [0.0, 1.0, 0.0, 0.0],
            [-r, 0.0, lam_f * lam_f, lam_f * r],
            [-lam_f, 0.0, lam_f * r, lam_f * lam_f + 1.0],
        ]
    )
    builder.apply_right(embed(k1, n, (0, 1, 2, n - 1)))
    h = np.eye(n)
    h[: n - 1, n - 1] = -builder.current[: n - 1, n - 1]
    builder.apply_left(h)
    ideal = builder.current.copy()
    ideal[:, n - 1] = 0.0
    ideal[n - 1, :] = 0.0
    ideal[n - 1, 0] = -lam_f
    ideal[n - 1, n - 1] = 1.0
    ideal[2, 0] = y * lam_f * lam_f
    ideal[2, 1] = 0.0
    ideal[2, 2] = y * r
    builder.snap(ideal)


def _corner_coords(n: int) -> tuple[int, int, int, int]:
    return (0, 1, n - 2, n - 1)


def _boost_t(builder: _Builder, lam: int, t: float, e_theta: float) -> float:
    """Rescale the shear parameter t -> t * e_theta (light-cone case only)."""
    assert lam == 1
    n = builder.n
    c = 0.5 * (e_theta + 1.0 / e_theta)
    s = 0.5 * (e_theta - 1.0 / e_theta)
    builder.apply_right(embed(np.array([[c, s], [s, c]]), n, (0, n - 1)))
    h = np.eye(n)
    h[0, 0] = 1.0 / e_theta
    h[0, n - 1] = -s
    h[n - 2, n - 1] = -t * s * e_theta
    h[n - 1, n - 1] = e_theta
    builder.apply_left(h)
    t_new = t * e_theta
    ideal = np.eye(n)
    ideal[n - 2, 0] = t_new
    ideal[n - 1, 0] = -1.0
    builder.snap(ideal)
    return t_new


def _reduce_lambda1(builder: _Builder, t: float) -> str:
    """From I + t E - E' reach xi = 0 (t on the wall) or xi = 1."""
    n = builder.n
    if t <= WALL_BAND:
        if t > 1e-9:
            builder.flags.append(FLAG_NEAR_DEGENERATE)
        builder.snap(representative_matrix(1, "0", n))
        return "0"
    while t > 2.0:
        t = _boost_t(builder, 1, t, 0.5)
    while t < 0.5:
        t = _boost_t(builder, 1, t, 2.0)
    s = (t - 1.0) / t
    c4 = _corner_coords(n)
    k1 = np.array(
        [
            [1.0 - s * s / 2.0, 0.0, s, s * s / 2.0],
            [0.0, 1.0, 0.0, 0.0],
            [-s, 0.0, 1.0, s],
            [-s * s / 2.0, 0.0, s, 1.0 + s * s / 2.0],
        ]
    )
    builder.apply_right(embed(k1, n, c4))
    h1 = np.eye(n)
    h1[0, n - 1] = -s * s / 2.0
    h1[n - 2, n - 1] = -s * s * t / 2.0 - s
    builder.apply_left(h1)
    h2 = np.eye(n)
    h2[0, 0] = t
    h2[0, n - 2] = -s
    h2[n - 2, n - 2] = 1.0 / t
    builder.apply_left(h2)
    builder.snap(representative_matrix(1, "1", n))
    return "1"


_LD = np.longdouble


def _phi(s):
    """sqrt(3 s^2 - 8 s + 5), clamped to 0 at the branch point s = 5/3."""
    v = 3 * s * s - 8 * s + 5
    return np.sqrt(v) if v > 0 else type(s)(0)


def lambda2_equation(xi_key: str, t):
    """The root equation in s that carries the t-form of lam=2 to xi = 0 or 2.

    xi = 0 (t < sqrt3): 3 phi(s) = t (3s - 4); xi = 2 (t > sqrt3):
    (3 + 2t) phi(s) = (t + 2)(3s - 4).  Evaluated in extended precision.
    """
    t = _LD(t)
    if xi_key == "0":
        return lambda s: 3 * _phi(s) - t * (3 * s - 4)
    if xi_key == "2":
        return lambda s: (3 + 2 * t) * _phi(s) - (t + 2) * (3 * s - 4)
    raise ValueError(f"no lam=2 root equation for xi = {xi_key!r}")


def lambda2_root(xi_key: str, t, eps: float = ROOT_EPS):
    """The root s >= 5/3 of lambda2_equation(xi_key, t), as a long double.

    Extended precision: near s = 5/3 the slope of the equations is huge for
    small t and a double bisection cannot certify the residual.
    """
    f = lambda2_equation(xi_key, t)
    lo = _LD(5) / _LD(3)
    hi = _LD(2)
    for _ in range(80):
        if f(hi) > 0.0:
            break
        hi = hi * 2
    return bisect_root(f, lo, hi, eps=eps)


def _reduce_lambda2(builder: _Builder, t: float, eps: float = ROOT_EPS) -> str:
    """From I + t E - 2 E' reach xi in {0, sqrt3, 2} via the two root equations."""
    n = builder.n
    if abs(t - SQRT3_F) <= WALL_BAND:
        if abs(t - SQRT3_F) > 1e-9:
            builder.flags.append(FLAG_NEAR_DEGENERATE)
        builder.snap(representative_matrix(2, "sqrt3", n))
        return "sqrt3"
    if t <= 1e-9:
        # on the t = 0 chart the root sits exactly at the branch point
        xi_key, s, phi = "0", 5.0 / 3.0, 0.0
    else:
        xi_key = "0" if t < SQRT3_F else "2"
        root = lambda2_root(xi_key, t, eps)
        s = float(root)
        phi = float(_phi(root))
    c4 = _corner_coords(n)
    k1 = np.array(
        [
            [s, 0.0, -phi, -2.0 * s + 2.0],
            [0.0, 1.0, 0.0, 0.0],
            [-phi, 0.0, 3.0 * s - 4.0, 2.0 * phi],
            [2.0 * s - 2.0, 0.0, -2.0 * phi, -4.0 * s + 5.0],
        ]
    )
    builder.apply_right(embed(k1, n, c4))
    h1 = np.eye(n)
    h1[0, n - 1] = 2.0 * s - 2.0
    h1[n - 2, n - 1] = 2.0 * s * t - 2.0 * t - 2.0 * phi
    builder.apply_left(h1)
    target = representative_matrix(2, xi_key, n)
    h_final = hprime_pattern(n).project(target @ np.linalg.inv(builder.current))
    builder.apply_left(h_final)
    builder.snap(target)
    return xi_key


# -- public single-stage entry points -----------------------------------------


def _check_g_lambda(g: np.ndarray, lam: int | None, tol: float) -> int:
    n = g.shape[0]
    scale = max(1.0, max_abs(g))
    row_ok = (
        abs(g[n - 1, n - 1] - 1.0) <= tol * scale
        and max_abs(g[n - 1, 1 : n - 1]) <= tol * scale
        and max_abs(g[: n - 1, n - 1]) <= tol * scale
    )
    found = -float(g[n - 1, 0])
    lam_val = int(round(found)) if lam is None else lam
    if not row_ok or abs(found - lam_val) > tol * scale or lam_val not in (0, 1, 2):
        raise (NotInG0 if lam == 0 else NotInGLambda)(
            "matrix is not in the normalized last-row form"
        )
    return lam_val


def reduce_last_row(g: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, int, Witness]:
    """Send an invertible matrix into the class with normalized last row."""
    g = to_float(np.asarray(g))
    if abs(np.linalg.det(g)) < 1e-300:
        raise np.linalg.LinAlgError("singular input")
    builder = _Builder(g)
    lam = _reduce_last_row(builder, tol)
    return builder.current.copy(), lam, builder.witness(builder.current)


def reduce_lambda0(g: np.ndarray, tol: float = DEFAULT_TOL) -> Witness:
    """Reduce an element with trivial last row/column to the identity."""
    g = to_float(np.asarray(g))
    _check_g_lambda(g, 0, tol)
    builder = _Builder(g)
    _reduce_lambda0(builder)
    return builder.witness(np.eye(g.shape[0]))


def reduce_to_t(
    g: np.ndarray, lam: int, tol: float = DEFAULT_TOL
) -> tuple[float, Witness]:
    """Reduce a normalized-last-row element to the single-shear form."""
    if lam not in (1, 2):
        raise NotInGLambda(f"lam must be 1 or 2, got {lam}")
    g = to_float(np.asarray(g))
    _check_g_lambda(g, lam, tol)
    builder = _Builder(g)
    t = _reduce_to_t(builder, lam, tol)
    return t, builder.witness(builder.current)


def reduce_lambda1(t: float, n: int) -> tuple[str, Witness]:
    """Decide xi in {0, 1} for the light-cone branch, with witness from the t-form."""
    if t < 0:
        raise NegativeT(f"t must be >= 0, got {t}")
    start = np.eye(n)
    start[n - 2, 0] = t
    start[n - 1, 0] = -1.0
    builder = _Builder(start)
    xi_key = _reduce_lambda1(builder, t)
    return xi_key, builder.witness(representative_matrix(1, xi_key, n))


def reduce_lambda2(t: float, n: int, eps: float = ROOT_EPS) -> tuple[str, Witness]:
    """Decide xi in {0, sqrt3, 2} for the spacelike branch."""
    if t < 0:
        raise NegativeT(f"t must be >= 0, got {t}")
    start = np.eye(n)
    start[n - 2, 0] = t
    start[n - 1, 0] = -2.0
    builder = _Builder(start)
    xi_key = _reduce_lambda2(builder, t, eps)
    return xi_key, builder.witness(representative_matrix(2, xi_key, n))


# -- invariant classifier ------------------------------------------------------


def signature_table(n: int) -> dict[tuple[int, str], tuple[tuple, tuple]]:
    """Restricted signatures (center, derived ideal) of the six classes."""
    return {
        (0, "0"): ((n - 3, 1, 0), (0, 1, 0)),
        (1, "0"): ((n - 3, 0, 1), (0, 0, 1)),
        (1, "1"): ((n - 3, 1, 0), (0, 0, 1)),
        (2, "0"): ((n - 2, 0, 0), (1, 0, 0)),
        (2, "sqrt3"): ((n - 3, 0, 1), (1, 0, 0)),
        (2, "2"): ((n - 3, 1, 0), (1, 0, 0)),
    }


def restricted_signatures(
    metric: Metric, tol: float = DEFAULT_TOL
) -> tuple[SignatureTriple, SignatureTriple]:
    """Signatures of the metric on the center and on the derived ideal."""
    gram = metric.gram
    return (
        signature_of(gram[2:, 2:], tol),
        signature_of(gram[-1:, -1:], tol),
    )


def _block_signature(block: np.ndarray, tol: float) -> tuple[SignatureTriple, bool]:
    """Signature of a restricted Gram block, and whether it is near degenerate.

    Near degenerate: a float eigenvalue within a factor 100 of the zero band,
    on either side.  Exact signs need no band, so an exact block never is.
    """
    if block.dtype == object:
        return signature_of(block, tol), False
    sig, eigs, band = spectral_signature(block, tol)
    mags = np.abs(eigs)
    return sig, bool(np.any((mags > 0.01 * band) & (mags < 100.0 * band)))


def classify_by_invariants(metric: Metric, tol: float = DEFAULT_TOL) -> CanonicalForm:
    """Classify via restricted signatures alone (no group elements)."""
    n = metric.n
    full = signature_of(metric.gram, tol)
    if full.as_tuple() != (n - 1, 1, 0):
        raise WrongSignature(f"signature {full.as_tuple()} unsupported; expected (n-1, 1, 0)")
    form, _ = classify_by_invariants_flagged(metric, tol)
    return form


def classify_by_invariants_flagged(
    metric: Metric, tol: float = DEFAULT_TOL
) -> tuple[CanonicalForm, list[str]]:
    n = metric.n
    sig_center, near_center = _block_signature(metric.gram[2:, 2:], tol)
    sig_derived, near_derived = _block_signature(metric.gram[-1:, -1:], tol)
    key = (sig_center.as_tuple(), sig_derived.as_tuple())
    pair = next((p for p, sigs in signature_table(n).items() if sigs == key), None)
    if pair is None:
        raise NoTableMatch(
            f"signatures {key} match no class; input may be numerically degenerate"
        )
    flags = [FLAG_NEAR_DEGENERATE] if near_center or near_derived else []
    return canonical_form(pair[0], pair[1], n), flags


# -- full classifier -----------------------------------------------------------


def _retry_factor(n: int, attempt: int) -> np.ndarray:
    """Deterministic O(n-1, 1) elements used to redraw an ill-conditioned chart."""
    rng = np.random.default_rng(7700 + 131 * attempt + n)
    q, _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    rot = embed(q, n, tuple(range(n - 1)))
    theta = 0.35 + 0.17 * attempt
    c, s = math.cosh(theta), math.sinh(theta)
    boost = embed(np.array([[c, s], [s, c]]), n, (0, n - 1))
    return rot @ boost


def _needs_retry(lam: int, t: float) -> bool:
    if t > T_RETRY_MAX:
        return True
    if lam == 2:
        # two ill-conditioned zones: the branch point t ~ 0 (steep root
        # equation) and the wall t ~ sqrt3 (root escapes to infinity)
        if 1e-9 < t < 1e-3:
            return True
        gap = abs(t - SQRT3_F)
        return WALL_BAND < gap < RETRY_BAND
    return False


def _pipeline_scale(builder: _Builder, lam: int, xi_key: str) -> float:
    """Scale k with k * M in the automorphism orbit of the representative."""
    n = builder.n
    flip = np.eye(n)
    flip[n - 2, n - 2] = -1.0
    h_total = builder.left_product.T @ flip
    det2 = h_total[0, 0] * h_total[1, 1] - h_total[0, 1] * h_total[1, 0]
    c = det2 / h_total[n - 1, n - 1]
    if (lam, xi_key) in SCALE_FLEXIBLE:
        # the orbit of these classes absorbs rescaling; normalize
        return 1.0
    return float(c * c)


def classify(
    metric: Metric, tol: float = DEFAULT_TOL
) -> tuple[CanonicalForm, float, Witness]:
    """Full reduction of a Lorentzian metric to its canonical class.

    Returns the class, the scale k making k*M pseudo-orthonormalizable on
    the canonical frame, and the witness chain.  The result is cross-checked
    against the restricted-signature classifier.
    """
    approx = metric.to_approx()
    base_m = factor_metric(approx, tol)  # validates the Lorentzian signature
    inv_form, inv_flags = classify_by_invariants_flagged(metric, tol)
    n = metric.n
    last_error: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        m = base_m if attempt == 0 else base_m @ _retry_factor(n, attempt)
        builder = _Builder(np.linalg.inv(m).T)
        try:
            lam = _reduce_last_row(builder, tol)
            if lam == 0:
                _reduce_lambda0(builder)
                xi_key = "0"
            else:
                t = _reduce_to_t(builder, lam, tol)
                if _needs_retry(lam, t) and attempt < MAX_RETRIES:
                    continue
                if _needs_retry(lam, t):
                    builder.flags.append(FLAG_RETRIES_EXHAUSTED)
                xi_key = (
                    _reduce_lambda1(builder, t)
                    if lam == 1
                    else _reduce_lambda2(builder, t)
                )
        except (NumericalBreakdown, NoConvergence, NoSignChange) as exc:
            last_error = exc
            continue
        if (lam, xi_key) != inv_form.pair:
            last_error = ClassificationMismatch(
                f"pipeline found ({lam}, {xi_key}), invariants say {inv_form.pair}"
            )
            continue
        witness = builder.witness(representative_matrix(lam, xi_key, n), m_factor=m)
        witness.flags.extend(f for f in inv_flags if f not in witness.flags)
        k = _pipeline_scale(builder, lam, xi_key)
        return inv_form, k, witness
    raise last_error if last_error is not None else NumericalBreakdown(
        "classification failed on every attempt"
    )


# -- witness verification ------------------------------------------------------


def verify_witness(
    subject: Metric | np.ndarray,
    witness: Witness,
    tol: float = 1e-8,
) -> VerificationResult:
    """Re-multiply a witness chain and check every membership claim.

    `subject` is either the starting group element or the classified metric
    (in which case the recorded m-factor is checked against its Gram matrix).
    """
    n = witness.n
    problems = []
    ipq = minkowski_gram(n)
    if isinstance(subject, Metric):
        if witness.m_factor is None:
            return VerificationResult(False, math.inf, "witness has no m-factor")
        minv = np.linalg.inv(witness.m_factor)
        gram = to_float(subject.gram)
        gram_res = max_abs(minv.T @ ipq @ minv - gram)
        if gram_res > tol * max(1.0, max_abs(gram)):
            problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
        start_res = max_abs(minv.T - witness.start)
        if start_res > tol * max(1.0, max_abs(witness.start)):
            problems.append("start matrix is not the transpose-inverse of m")
    else:
        g = to_float(np.asarray(subject))
        if g.shape != witness.start.shape or max_abs(g - witness.start) > tol * max(
            1.0, max_abs(g)
        ):
            problems.append("start matrix differs from the supplied element")
    left = np.array([to_float(h) for h in witness.left]).reshape(-1, n, n)
    outside = np.abs(left[:, ~hprime_pattern(n).mask]).max(axis=1)
    singular = np.abs(np.linalg.det(left)) < 1e-300
    for idx, (out, sing) in enumerate(zip(outside.tolist(), singular.tolist())):
        if out > tol:
            problems.append(f"left factor {idx} violates the pattern ({out:.2e})")
        if sing:
            problems.append(f"left factor {idx} is singular")
    right = np.array([to_float(k) for k in witness.right]).reshape(-1, n, n)
    devs = np.abs(right.transpose(0, 2, 1) @ ipq @ right - ipq).max(axis=(1, 2))
    sizes = np.abs(right).max(axis=(1, 2))
    for idx, (dev, size) in enumerate(zip(devs.tolist(), sizes.tolist())):
        if dev > tol * max(1.0, size**2):
            problems.append(f"right factor {idx} is not pseudo-orthogonal ({dev:.2e})")
    residual = max_abs(witness.product() - witness.target)
    if residual > tol:
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
    xi = form.xi_key
    return {
        "n": form.n,
        "lambda": form.lam,
        "xi": xi if xi == "sqrt3" else int(xi),
        "k": k,
        "witness": witness_to_json(witness),
        "flags": list(witness.flags),
    }
