"""Reference helpers that the tests alone use.

The package passes sparse rows to `_linalg.rref_rows` and `nullspace_rows`; the
dense adapters here read and write object arrays of QSqrt3, the shape the tests'
references use.  Der(g) as dense matrices, the metric JSON writer and the
degeneration-curve sampler build the inputs and references of the tests.
`verify_witness_by_side` is the reference the one-pass `verify_witness` must match
on a classified metric, and the checker of the stage witnesses, whose subject is the
starting group element.  `householder_block` and `triangularizing_block` build a
reduction factor at the size of its block; placed in an identity by `embed`, each is the
reference of the full-size builder in `_linalg`.
"""

import math

import numpy as np

from heislor import orbits
from heislor._linalg import (
    UNDERFLOW,
    exact_dense,
    inv,
    is_singular,
    max_abs,
    nullspace_rows,
    qr_q,
    rref_rows,
    shared_eye,
    shared_minkowski_gram,
    to_float,
)
from heislor.liealg import _derivation_vectors, aut_pattern, require_dim
from heislor.metrics import APPROX, EXACT, Metric, canonical_gram
from heislor.numerics import QSqrt3
from heislor.reduction import WITNESS_TOL, VerificationResult, Witness


def exact_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Q(sqrt3); returns (rref, pivot columns)."""
    rref = rref_rows(enumerate(row) for row in a)
    rows = [[(c, QSqrt3(1)), *t.items()] for c, t in rref.items()]
    return exact_dense(rows, a.shape), list(rref)


def exact_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Basis of the right nullspace, one vector per free column."""
    basis = nullspace_rows((enumerate(row) for row in a), a.shape[1])
    return list(exact_dense([v.items() for v in basis], (len(basis), a.shape[1])))


def derivation_basis(n: int) -> tuple[np.ndarray, ...]:
    """Basis of Der(g) as n x n object matrices, from the package's sparse vectors."""
    vectors = _derivation_vectors(n)
    return tuple(exact_dense(vectors, (len(vectors), n * n)).reshape(-1, n, n))


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
        gram = to_float(subject.gram)
        gram_res = max_abs(minv.T @ ipq @ minv - gram)
        if not gram_res <= WITNESS_TOL * max_abs(gram):
            problems.append(f"m-factor does not reproduce the metric ({gram_res:.2e})")
        start_res = max_abs(minv.T - witness.start)
        if not start_res <= WITNESS_TOL * max_abs(witness.start):
            problems.append("start matrix is not the transpose-inverse of m")
    else:
        g = to_float(np.asarray(subject))
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
