"""Reference helpers that the tests alone use.

The package passes sparse rows to `_linalg.rref_rows`; the dense adapters here take and
return object arrays of QSqrt3, the shape the tests' references use, and write each sparse
result out through `_linalg.exact_dense`.  The Leibniz system built densely, Der(g) as
dense matrices from its nullspace, the metric JSON writer and the degeneration-curve
sampler build the inputs and references of the tests.  `verify_witness_by_side` is the one
reference the one-pass `verify_witness` must match on a classified metric, and the checker
of the stage witnesses, whose subject is the starting group element.  `exact_chain_residual`
multiplies a witness's chain with no rounding, the exact side the float chain check is
compared with.  `householder_block` and `triangularizing_block` build a reduction factor at
the size of its block; placed in an identity by `embed`, each is the reference of the
full-size builder in `_linalg`.  `riemann_terms_full` is the generic curvature route's
column loop over every index triple, the reference of the loop over the support.
`lambda2_equation` is the lam=2 root equation in long double: the tests bisect it for a
reference root and put `reduction.lambda2_closed_form`'s root into it, while the package's
`verification.check_ivt_roots` checks that root with exact identities instead.
`boost_t_per_step` is the lam=1 boost chain one step at a time, each boost built, applied
and snapped on its own: the reference whose factors, snaps and final t the package's
`reduction._boost_t` must reproduce bit for bit, stepped or stacked.
"""

import math
from fractions import Fraction

import numpy as np

from heislor import orbits
from heislor._linalg import (
    UNDERFLOW,
    _subtract,
    embed,
    exact_dense,
    inv,
    is_singular,
    max_abs,
    qr_q,
    rref_rows,
    shared_eye,
    shared_minkowski_gram,
    to_float,
)
from heislor.liealg import aut_pattern, require_dim
from heislor.metrics import APPROX, EXACT, Metric, _float_gram, canonical_gram
from heislor.numerics import QSqrt3
from heislor.reduction import WITNESS_TOL, VerificationResult, Witness, _Builder, _t_form


def exact_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Q(sqrt3); returns (rref, pivot columns)."""
    rref = rref_rows(enumerate(row) for row in a)
    rows = {(r,): {c: QSqrt3(1), **t} for r, (c, t) in enumerate(rref.items())}
    return exact_dense(rows, a.shape), list(rref)


def exact_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the right nullspace, one vector per free column, read off the rref."""
    rref = rref_rows(enumerate(row) for row in a)
    free = [fc for fc in range(a.shape[1]) if fc not in rref]
    rows = {(r,): {fc: QSqrt3(1), **{pc: -t[fc] for pc, t in rref.items() if fc in t}}
            for r, fc in enumerate(free)}
    return list(exact_dense(rows, (len(free), a.shape[1])))


def leibniz_system(n: int) -> np.ndarray:
    """The Leibniz rows built densely, one n x n coefficient array per (i < j, k)."""
    c = np.zeros((n, n, n), dtype=int)  # [e_1, e_2] = e_n, independent of the package
    c[0, 1, n - 1], c[1, 0, n - 1] = 1, -1
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


def derivation_basis(n: int) -> tuple[np.ndarray, ...]:
    """Basis of Der(g) as n x n object matrices: the nullspace of the dense Leibniz system."""
    return tuple(v.reshape(n, n) for v in exact_nullspace(leibniz_system(n)))


def metric_to_json(metric: Metric) -> dict:
    """The JSON object `metric_from_json` reads."""
    if metric.backend == EXACT:
        gram = [[x.format() for x in row] for row in metric.gram]
    else:
        gram = [[float(x) for x in row] for row in metric.gram]
    return {"n": metric.n, "gram": gram, "backend": metric.backend}


def curve_sample(family: str, t: float, n: int) -> Metric:
    """The degeneration curve's metric at parameter t (approx backend)."""
    require_dim(n)
    fam = orbits.CURVE_FAMILIES.get(family)
    if fam is None:
        raise KeyError(f"unknown curve family {family!r}")
    lam, xi = fam.params(t)
    return Metric(gram=canonical_gram(lam, xi, n, exact=False), backend=APPROX)


def verify_witness_by_side(subject: Metric | np.ndarray, witness: Witness) -> VerificationResult:
    """verify_witness with each test read on its own: every miss and size is its own
    reduction, the left and right factors are two stacks, and the chain is re-multiplied
    last.  The same tests, tolerances and problems in the same order, so the package's
    one-pass read must give the same ok, the same residual bits and the same detail on
    a metric subject.  An element subject is the start the chain must begin from."""
    n = witness.n
    problems = []
    ipq = shared_minkowski_gram(n)
    if isinstance(subject, Metric):
        if witness.m_factor is None:
            return VerificationResult(False, math.inf, "witness has no m-factor")
        try:
            minv = inv(witness.m_factor)
        except np.linalg.LinAlgError:
            return VerificationResult(False, math.inf, "m-factor is singular")
        try:
            gram = _float_gram(subject.gram)
        except ValueError as exc:
            return VerificationResult(False, math.inf, str(exc))
        gram_res = max_abs(minv.T @ ipq @ minv - gram)
        if not gram_res <= WITNESS_TOL * max_abs(gram):
            problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
        start_res = max_abs(minv.T - witness.start)
        if not start_res <= WITNESS_TOL * max_abs(witness.start):
            problems.append("start matrix is not the transpose-inverse of m")
    else:
        g = to_float(subject)
        same = g.shape == witness.start.shape
        if not (same and max_abs(g - witness.start) <= WITNESS_TOL * max_abs(g)):
            problems.append("start matrix differs from the supplied element")
    left = np.array(witness.left, dtype=float).reshape(-1, n, n)
    outside = np.abs(left[:, ~aut_pattern(n).mask.T]).max(axis=1)
    singular = is_singular(left)
    for idx, (out, sing) in enumerate(zip(outside.tolist(), singular)):
        if not out <= WITNESS_TOL:
            problems.append(f"left factor {idx} violates the pattern ({out:.2e})")
        if sing:
            problems.append(f"left factor {idx} is singular")
    right = np.array(witness.right, dtype=float).reshape(-1, n, n)
    devs = np.abs(right.transpose(0, 2, 1) @ ipq @ right - ipq).max(axis=(1, 2))
    sizes = np.abs(right).max(axis=(1, 2))
    for idx, (dev, size) in enumerate(zip(devs.tolist(), sizes.tolist())):
        if not dev <= WITNESS_TOL * (size * size) < math.inf:
            problems.append(f"right factor {idx} is not pseudo-orthogonal ({dev:.2e})")
    residual = max_abs(witness.product() - witness.target)
    if not residual <= WITNESS_TOL:
        problems.append(f"chain product misses the target by {residual:.2e}")
    return VerificationResult(not problems, residual, "; ".join(problems))


def householder_block(v: np.ndarray, k: int) -> np.ndarray:
    """Symmetric orthogonal H of v's size with H @ v = ||v|| e_k, written out on v alone."""
    u = np.array(v, dtype=float)
    norm = math.sqrt(u.dot(u))
    if norm == 0.0:
        return shared_eye(len(u)).copy()
    vk = float(u[k])
    u[k] = 0.0
    rest = float(u.dot(u))
    uk = vk - norm if vk <= 0.0 else -rest / (vk + norm)  # no cancellation for v[k] > 0
    u[k] = uk
    uu = rest + uk**2
    if uu < UNDERFLOW:
        return shared_eye(len(u)).copy()
    return shared_eye(len(u)) - 2.0 * (u[:, None] * u) / uu


def triangularizing_block(b: np.ndarray) -> np.ndarray:
    """Orthogonal Q of b's size with b @ Q upper triangular, and no signed zero."""
    return qr_q(np.asarray(b, dtype=float).T[::-1, ::-1] + 0.0)[::-1, ::-1] + 0.0


def _dyadic(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(M, e) with the float array a equal to the integer array M times 2^e, exactly."""
    ratios = [x.as_integer_ratio() for x in np.asarray(a, dtype=float).reshape(-1).tolist()]
    shift = max(d.bit_length() for _, d in ratios) - 1  # every d is a power of 2
    ints = [p << (shift - d.bit_length() + 1) for p, d in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(a)), -shift


def exact_chain_residual(witness: Witness) -> Fraction:
    """max |left[0] ... left[-1] start right[0] ... right[-1] - target| with the witness's
    float entries multiplied exactly, as Fractions: each factor is an integer array times
    a power of 2, so the chain is one integer product and the residual one Fraction."""
    out, e = _dyadic(witness.start)
    for factor in reversed(witness.left):
        m, k = _dyadic(factor)
        out, e = m.dot(out), e + k
    for factor in witness.right:
        m, k = _dyadic(factor)
        out, e = out.dot(m), e + k
    target, k = _dyadic(witness.target)
    low = min(e, k)
    diff = out * (1 << (e - low)) - target * (1 << (k - low))
    return Fraction(max(abs(x) for x in diff.reshape(-1).tolist()), 1 << -low)


def riemann_terms_full(nabla: dict, br: dict, n: int) -> dict:
    """`curvature._riemann_terms` with i < j and k running over all of range(n)."""
    empty: dict = {}
    ops = {}
    for i in range(n):
        for j in range(i + 1, n):
            bracket = br.get((i, j), empty)
            for k in range(n):
                col: dict = {}
                for l, f in nabla.get((j, k), empty).items():
                    _subtract(col, -f, nabla.get((i, l), empty))
                for l, f in nabla.get((i, k), empty).items():
                    _subtract(col, f, nabla.get((j, l), empty))
                for l, f in bracket.items():
                    _subtract(col, f, nabla.get((l, k), empty))
                if col:
                    ops[i, j, k] = col
    return ops


def _phi(s):
    """sqrt(3 s^2 - 8 s + 5), clamped to 0 at the branch point s = 5/3."""
    v = 3 * s * s - 8 * s + 5
    return np.sqrt(v) if v > 0 else type(s)(0)


def lambda2_equation(xi_key: str, t):
    """The root equation in s that carries the t-form of lam=2 to xi = 0 or 2.

    xi = 0 (t < sqrt3): 3 phi(s) = t (3s - 4); xi = 2 (t > sqrt3):
    (3 + 2t) phi(s) = (t + 2)(3s - 4).  Evaluated in extended precision, as
    the independent check of :func:`reduction.lambda2_closed_form`.
    """
    t = np.longdouble(t)
    if xi_key == "0":
        return lambda s: 3 * _phi(s) - t * (3 * s - 4)
    if xi_key == "2":
        return lambda s: (3 + 2 * t) * _phi(s) - (t + 2) * (3 * s - 4)
    raise ValueError(f"no lam=2 root equation for xi = {xi_key!r}")


def boost_t_per_step(builder: _Builder, t: float) -> float:
    """Halve or double t into [1/2, 2] by light-cone boosts of e = 1/2 or 2, one step at a
    time: each step applies the boost on the right and a left factor of its own t, then
    snaps the working matrix onto the t-form of t e; returns the final t."""
    if 0.5 <= t <= 2.0:
        return t
    n = builder.n
    e = 0.5 if t > 2.0 else 2.0
    c, s = 0.5 * (e + 1.0 / e), 0.5 * (e - 1.0 / e)
    boost = embed(np.array([[c, s], [s, c]]), n, (0, n - 1))
    boost.flags.writeable = False  # the chain records this one array at every step
    while t > 2.0 or t < 0.5:
        builder.apply_right(boost)
        h = shared_eye(n).copy()
        h[0, 0], h[0, n - 1], h[n - 1, n - 1] = 1.0 / e, -s, e
        h[n - 2, n - 1] = -t * s * e
        builder.apply_left(h)
        t *= e
        builder.snap(_t_form(1, t, n))
    return t
