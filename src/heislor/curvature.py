"""Curvature of the canonical frames: U-map, connection, curvature, Ricci.

Every quantity is computed in a pseudo-orthonormal frame x_1, ..., x_n with
<x_i, x_j> = eps_i delta_ij (eps = +...+-) and bracket relations

    [x_1, x_2] = -(lam x_1 - x_n),
    [x_2, x_(n-1)] = xi (lam x_1 - x_n),
    [x_2, x_n] = lam (lam x_1 - x_n).

Two independent code paths produce the component tables: a generic pipeline
driven purely by structure constants, and hard-coded closed forms in
(lam, xi).  Tests require them to agree exactly on the exact backend.

The middle frame directions x_3, ..., x_(n-2) are inert; every table is
supported on the corner coordinates (1, 2, n-1, n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from ._linalg import exact_eye, exact_zeros, rref_rows, to_float, unit_conjugator
from .liealg import _derivation_vectors, derivation_basis
from .metrics import CANONICAL_PAIRS, NotARepresentative, shear_matrix, xi_exact, xi_key_of
from .numerics import DEFAULT_TOL, EXACT, QSqrt3

HALF = QSqrt3(Fraction(1, 2))


class FrameNotPseudoOrthonormal(ValueError):
    """The U-map needs a frame with <x_i, x_j> = eps_i delta_ij."""


def frame_signs(n: int) -> list[int]:
    """eps_i for the Lorentzian frame: all +1 except the last."""
    return [1] * (n - 1) + [-1]


def _zeros(shape, exact: bool) -> np.ndarray:
    return exact_zeros(shape) if exact else np.zeros(shape)


def _is_zero(x) -> bool:
    return x.is_zero() if isinstance(x, QSqrt3) else x == 0.0


def frame_brackets(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Structure constants C[i, j] = coordinates of [x_i, x_j] in the frame."""
    if exact:
        lam = QSqrt3.coerce(lam)
        xi = QSqrt3.coerce(xi)
        one = QSqrt3(1)
    else:
        lam, xi, one = float(lam), float(xi), 1.0
    c = _zeros((n, n, n), exact)
    # (i, j, coefficient of x_1, coefficient of x_n)
    relations = (
        (0, 1, -lam, one),
        (1, n - 2, xi * lam, -xi),
        (1, n - 1, lam * lam, -lam),
    )
    for i, j, first, last in relations:
        c[i, j, 0] = first
        c[i, j, n - 1] = last
        c[j, i, 0] = -first
        c[j, i, n - 1] = -last
    return c


@dataclass(frozen=True)
class BilinearTable:
    """Values of a bilinear map on frame pairs: values[i, j] is a vector."""

    values: np.ndarray = field(repr=False)


def u_map(
    brackets: np.ndarray, eps: list[int], frame_gram: np.ndarray | None = None
) -> BilinearTable:
    """Solve 2<U(x_i, x_j), x_k> = <[x_k, x_i], x_j> + <x_i, [x_k, x_j]>.

    The components are read off using the frame signs eps_i, which assumes a
    pseudo-orthonormal frame; pass frame_gram to have that assumption checked.
    """
    n = len(eps)
    if frame_gram is not None:
        expected = np.diag(np.asarray(eps, dtype=float))
        if np.max(np.abs(to_float(frame_gram) - expected)) > DEFAULT_TOL:
            raise FrameNotPseudoOrthonormal("frame gram is not diag(eps)")
    exact = brackets.dtype == object
    half = HALF if exact else 0.5
    u = _zeros((n, n, n), exact)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = eps[j] * brackets[k, i, j] + eps[i] * brackets[k, j, i]
                if not _is_zero(val):
                    u[i, j, k] = (eps[k] * half) * val
    return BilinearTable(values=u)


def levi_civita(u: BilinearTable, brackets: np.ndarray) -> BilinearTable:
    """nabla_(x_i) x_j = (1/2)[x_i, x_j] + U(x_i, x_j)."""
    half = HALF if brackets.dtype == object else 0.5
    return BilinearTable(values=u.values + half * brackets)


def _nabla_vec(nabla: np.ndarray, i: int, v: np.ndarray) -> np.ndarray:
    """Covariant derivative in direction x_i of a coordinate vector."""
    n = nabla.shape[0]
    out = _zeros(n, nabla.dtype == object)
    for l in range(n):
        if not _is_zero(v[l]):
            out = out + v[l] * nabla[i, l]
    return out


def riemann(
    nabla_table: BilinearTable, brackets: np.ndarray
) -> dict[tuple[int, int], np.ndarray]:
    """Curvature operators R(x_i, x_j) = [nabla_i, nabla_j] - nabla_[x_i, x_j]."""
    nabla = nabla_table.values
    n = nabla.shape[0]
    exact = nabla.dtype == object
    ops: dict[tuple[int, int], np.ndarray] = {}
    for i in range(n):
        for j in range(i + 1, n):
            op = _zeros((n, n), exact)
            for k in range(n):
                col = _nabla_vec(nabla, i, nabla[j, k]) - _nabla_vec(nabla, j, nabla[i, k])
                for l in range(n):
                    if not _is_zero(brackets[i, j, l]):
                        col = col - brackets[i, j, l] * nabla[l, k]
                op[:, k] = col
            ops[(i, j)] = op
    return ops


def riemann_apply(ops: dict, i: int, j: int, k: int) -> np.ndarray:
    """R(x_i, x_j) x_k with the antisymmetry filled in."""
    some = next(iter(ops.values()))
    if i == j:
        return _zeros(some.shape[0], some.dtype == object)
    if (i, j) in ops:
        return ops[(i, j)][:, k]
    return -ops[(j, i)][:, k]


def ricci(ops: dict, eps: list[int]) -> np.ndarray:
    """Ricci operator: Ric(x_j) = sum_i eps_i R(x_j, x_i) x_i."""
    n = len(eps)
    exact = next(iter(ops.values())).dtype == object
    a = _zeros((n, n), exact)
    for j in range(n):
        col = _zeros(n, exact)
        for i in range(n):
            if i != j:
                col = col + eps[i] * riemann_apply(ops, j, i, i)
        a[:, j] = col
    return a


def generic_curvature(lam, xi, n: int, exact: bool = True):
    """Full pipeline from structure constants alone; the oracle code path."""
    brackets = frame_brackets(lam, xi, n, exact)
    eps = frame_signs(n)
    u = u_map(brackets, eps)
    nabla = levi_civita(u, brackets)
    ops = riemann(nabla, brackets)
    ric = ricci(ops, eps)
    return brackets, u, nabla, ops, ric


# -- closed-form component tables ---------------------------------------------


def _scal(x, exact: bool):
    return QSqrt3.coerce(x) if exact else float(x)


def closed_form_u(lam, xi, n: int, exact: bool = True) -> BilinearTable:
    """Hard-coded symmetric U components on the corner coordinates."""
    u = _zeros((n, n, n), exact)
    lam, xi, one = _scal(lam, exact), _scal(xi, exact), _scal(1, exact)
    half = HALF if exact else 0.5
    a, b, c, d = 0, 1, n - 2, n - 1

    def put(i, j, entries):
        for k, v in entries:
            u[i, j, k] = v
            u[j, i, k] = v

    put(a, a, [(b, lam)])
    put(a, b, [(a, -half * lam), (c, -half * lam * xi), (d, half * lam * lam)])
    put(a, c, [(b, half * lam * xi)])
    put(a, d, [(b, half * (lam * lam + one))])
    put(b, d, [(a, -half), (c, -half * xi), (d, half * lam)])
    put(c, d, [(b, half * xi)])
    put(d, d, [(b, lam)])
    return BilinearTable(values=u)


def closed_form_nabla(lam, xi, n: int, exact: bool = True) -> BilinearTable:
    """Hard-coded connection components on the corner coordinates."""
    nb = _zeros((n, n, n), exact)
    lam, xi, one = _scal(lam, exact), _scal(xi, exact), _scal(1, exact)
    half = HALF if exact else 0.5
    a, b, c, d = 0, 1, n - 2, n - 1
    lam2 = lam * lam

    def put(i, j, entries):
        for k, v in entries:
            nb[i, j, k] = v

    put(a, a, [(b, lam)])
    put(a, b, [(a, -lam), (c, -half * lam * xi), (d, half * (lam2 + one))])
    put(a, c, [(b, half * lam * xi)])
    put(a, d, [(b, half * (lam2 + one))])
    put(b, a, [(c, -half * lam * xi), (d, half * (lam2 - one))])
    put(b, c, [(a, half * lam * xi), (d, -half * xi)])
    put(b, d, [(a, half * (lam2 - one)), (c, -half * xi)])
    put(c, a, [(b, half * lam * xi)])
    put(c, b, [(a, -half * lam * xi), (d, half * xi)])
    put(c, d, [(b, half * xi)])
    put(d, a, [(b, half * (lam2 + one))])
    put(d, b, [(a, -half * (lam2 + one)), (c, -half * xi), (d, lam)])
    put(d, c, [(b, half * xi)])
    put(d, d, [(b, lam)])
    return BilinearTable(values=nb)


def closed_form_riemann(
    lam, xi, n: int, exact: bool = True
) -> dict[tuple[int, int], np.ndarray]:
    """Hard-coded curvature operators on the corner coordinates."""
    a, b, c, d = 0, 1, n - 2, n - 1
    lam, xi, one = _scal(lam, exact), _scal(xi, exact), _scal(1, exact)
    quarter = HALF * HALF if exact else 0.25
    lam2, xi2 = lam * lam, xi * xi
    m = lam2 - one
    p = lam2 * lam2 - lam2 * (xi2 - 2 * one) - 3 * one
    q = 3 * xi * m
    s = 4 * lam2 * lam - lam * (xi2 + 4 * one)
    t = 3 * lam2 * lam2 - 2 * lam2 - xi2 - one

    ops: dict[tuple[int, int], np.ndarray] = {}

    def op(i, j, columns):
        table = _zeros((n, n), exact)
        for k, entries in columns.items():
            for l, v in entries:
                table[l, k] = quarter * v
        ops[(i, j)] = table

    op(a, b, {
        a: [(b, p)],
        b: [(a, -p), (c, -q), (d, s)],
        c: [(b, q)],
        d: [(b, s)],
    })
    op(a, c, {
        a: [(c, -lam2 * xi2), (d, lam * xi * m)],
        c: [(a, lam2 * xi2), (d, -lam * xi2)],
        d: [(a, lam * xi * m), (c, -lam * xi2)],
    })
    op(a, d, {
        a: [(c, -lam * xi * m), (d, m * m)],
        c: [(a, lam * xi * m), (d, -xi * m)],
        d: [(a, m * m), (c, -xi * m)],
    })
    op(b, c, {
        a: [(b, -q)],
        b: [(a, q), (c, q * xi), (d, -q * lam)],
        c: [(b, -q * xi)],
        d: [(b, -q * lam)],
    })
    op(b, d, {
        a: [(b, -s)],
        b: [(a, s), (c, q * lam), (d, -t)],
        c: [(b, -q * lam)],
        d: [(b, -t)],
    })
    op(c, d, {
        a: [(c, lam * xi2), (d, -xi * m)],
        c: [(a, -lam * xi2), (d, xi2)],
        d: [(a, -xi * m), (c, xi2)],
    })
    return ops


def closed_form_ricci(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Hard-coded Ricci operator matrix on the corner coordinates."""
    a, b, c, d = 0, 1, n - 2, n - 1
    lam, xi, one = _scal(lam, exact), _scal(xi, exact), _scal(1, exact)
    half = HALF if exact else 0.5
    lam2, xi2 = lam * lam, xi * xi
    m = lam2 - one
    ric = _zeros((n, n), exact)
    ric[a, a] = -half * (lam2 * lam2 - lam2 * xi2 - one)
    ric[c, a] = -half * xi * m
    ric[d, a] = half * (2 * lam2 * lam - lam * (xi2 + 2 * one))
    ric[b, b] = half * (lam2 * lam2 - lam2 * (xi2 + 2 * one) + xi2 + one)
    ric[a, c] = -half * xi * m
    ric[c, c] = -half * xi2 * m
    ric[d, c] = half * lam * xi * m
    ric[a, d] = -half * (2 * lam2 * lam - lam * (xi2 + 2 * one))
    ric[c, d] = -half * lam * xi * m
    ric[d, d] = half * (lam2 * lam2 - xi2 - one)
    return ric


# -- curvature properties --------------------------------------------------------


def is_flat(ops: dict, tol: float = DEFAULT_TOL) -> bool:
    """True when every curvature operator vanishes."""
    worst = 0.0
    for op in ops.values():
        if op.size:
            worst = max(worst, float(np.max(np.abs(to_float(op)))))
    return worst <= tol


def einstein_test(ric: np.ndarray, tol: float = DEFAULT_TOL):
    """The scalar c with Ric = c * id, or None."""
    n = ric.shape[0]
    if ric.dtype == object:
        c = ric[0, 0]
        for i in range(n):
            for j in range(n):
                expected = c if i == j else QSqrt3(0)
                if ric[i, j] != expected:
                    return None
        return c
    c = float(ric[0, 0])
    scale = max(1.0, float(np.max(np.abs(ric))))
    if np.max(np.abs(ric - c * np.eye(n))) <= tol * scale:
        return c
    return None


def derivation_identity_residual(d: np.ndarray, brackets: np.ndarray) -> float:
    """Max deviation of D from the Leibniz rule on the frame brackets."""
    n = d.shape[0]
    exact = d.dtype == object and brackets.dtype == object
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = d @ brackets[i, j]
            rhs = _zeros(n, exact)
            for l in range(n):
                if not _is_zero(d[l, i]):
                    rhs = rhs + d[l, i] * brackets[l, j]
                if not _is_zero(d[l, j]):
                    rhs = rhs + d[l, j] * brackets[i, l]
            diff = to_float((lhs - rhs).reshape(1, -1))
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def soliton_certificate(lam, xi, n: int, ric: np.ndarray | None = None, exact: bool = True):
    """Solve Ric = c*id + D over (c, derivation coefficients), or None.

    The derivation algebra is taken in frame coordinates, i.e. conjugated by
    the shear matrix of (lam, xi).  On the exact backend the certificate is
    exact: each g^-1 b g is summed from b[k, l] outer(ginv[:, k], g[l, :]) over
    nonzero products into sparse equations; on floats, least squares checked
    to 1e-10.
    """
    if ric is None:
        ric = closed_form_ricci(lam, xi, n, exact)
    if exact:
        conjugate = unit_conjugator(shear_matrix(lam, xi, n, exact=True))
        basis = _derivation_vectors(n)
        rhs = 1 + len(basis)
        # one sparse equation per entry (a, c); columns: identity, the basis, then ric
        eqs = [Counter({0: QSqrt3(1)} if a == c else {}) for a in range(n) for c in range(n)]
        for col, vec in enumerate(basis, 1):
            for kl, y in vec:
                for a, c, x in conjugate(*divmod(kl, n)):
                    eqs[a * n + c][col] += y * x
        for eq, r in zip(eqs, ric.reshape(-1)):
            eq[rhs] = r
        rref = rref_rows(eq.items() for eq in eqs)
        if rhs in rref:
            return None  # right-hand side outside the span
        c_val = rref[0].get(rhs, QSqrt3(0))  # the identity column is always a pivot
        return c_val, ric - c_val * exact_eye(n)
    basis = derivation_basis(n)
    gf = shear_matrix(lam, xi, n, exact=False)
    gf_inv = np.linalg.inv(gf)
    system = np.stack(
        [np.eye(n).reshape(-1)]
        + [(gf_inv @ to_float(b) @ gf).reshape(-1) for b in basis],
        axis=1,
    )
    rhs = to_float(ric).reshape(-1)
    sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if float(np.max(np.abs(system @ sol - rhs))) > 1e-10:
        return None
    c_val = float(sol[0])
    return c_val, to_float(ric) - c_val * np.eye(n)


def _charpoly(a: np.ndarray) -> list[QSqrt3]:
    """Monic characteristic polynomial coefficients, highest degree first."""
    n = a.shape[0]
    coeffs = [QSqrt3(1)]
    m = a.copy()
    ident = exact_eye(n)
    for k in range(1, n + 1):
        if k > 1:
            m = a @ (m + coeffs[-1] * ident)
        trace = sum((m[i, i] for i in range(n)), QSqrt3(0))
        coeffs.append(QSqrt3(Fraction(-1, k)) * trace)
    return coeffs


def _poly_from_roots(roots: list[QSqrt3]) -> list[QSqrt3]:
    poly = [QSqrt3(1)]
    for r in roots:
        new = [QSqrt3(0)] * (len(poly) + 1)
        for i, coeff in enumerate(poly):
            new[i] = new[i] + coeff
            new[i + 1] = new[i + 1] - coeff * r
        poly = new
    return poly


def _snap_exact(value: float) -> QSqrt3 | None:
    """Lift a float to a small rational or a rational multiple of sqrt3."""
    candidates = (
        (1.0, lambda f: QSqrt3(f)),
        (float(np.sqrt(3.0)), lambda f: QSqrt3(0, f)),
    )
    for scale, make in candidates:
        frac = Fraction(value / scale).limit_denominator(64)
        if abs(float(frac) * scale - value) < 1e-9:
            return make(frac)
    return None


def ricci_spectrum(lam, xi, n: int, ric: np.ndarray | None = None, exact: bool = True):
    """Eigenvalues of the Ricci operator on the corner block.

    On the exact backend the float eigenvalues are lifted into Q(sqrt3) and
    certified by comparing characteristic polynomials; a failed lift falls
    back to the float spectrum.
    """
    if ric is None:
        ric = closed_form_ricci(lam, xi, n, exact)
    idx = [0, 1, n - 2, n - 1]
    block = ric[np.ix_(idx, idx)]
    roots = sorted(np.linalg.eigvals(to_float(block)).real.tolist(), reverse=True)
    if not exact:
        return roots
    lifted = [_snap_exact(r) for r in roots]
    if all(x is not None for x in lifted) and _poly_from_roots(lifted) == _charpoly(block):
        return lifted
    return roots


@dataclass
class CurvatureReport:
    """Everything the curvature pipeline knows about one canonical class."""

    lam: int
    xi_key: str
    n: int
    backend: str
    u: BilinearTable
    nabla: BilinearTable
    riemann_ops: dict
    ric: np.ndarray
    flat: bool
    einstein: object  # scalar c or None
    soliton: tuple | None
    spectrum: list

    def to_json(self) -> dict:
        idx = [0, 1, self.n - 2, self.n - 1]

        def num(x):
            return x.format() if isinstance(x, QSqrt3) else float(x)

        def vec(v):
            return [num(x) for x in v]

        def table_entries(name, table):
            entries = {}
            for i in idx:
                for j in idx:
                    v = table[i, j]
                    if float(np.max(np.abs(to_float(v.reshape(1, -1))))) > 0:
                        entries[f"{name}[{i + 1}][{j + 1}]"] = vec(v)
            return entries

        r_entries = {}
        for (i, j), op in self.riemann_ops.items():
            if op.size and float(np.max(np.abs(to_float(op)))) > 0:
                r_entries[f"R[{i + 1}][{j + 1}]"] = [vec(op[:, k]) for k in range(self.n)]
        soliton = None
        if self.soliton is not None:
            c, d = self.soliton
            soliton = {"c": num(c), "D": [vec(row) for row in d]}
        return {
            "lambda": self.lam,
            "xi": self.xi_key if self.xi_key == "sqrt3" else int(self.xi_key),
            "n": self.n,
            "backend": self.backend,
            "U": table_entries("U", self.u.values),
            "nabla": table_entries("nabla", self.nabla.values),
            "R": r_entries,
            "ric": [vec(row) for row in self.ric],
            "flat": self.flat,
            "einstein": None if self.einstein is None else num(self.einstein),
            "soliton": soliton,
            "spectrum": [num(x) for x in self.spectrum],
        }


def curvature_report(lam, xi, n: int, backend: str = EXACT) -> CurvatureReport:
    """Assemble the full report for one canonical parameter pair.

    The tables are the closed forms, built exactly.  The float report is the
    exact one with every value rounded once, so an exact zero stays +0.0.
    """
    key = xi_key_of(xi)
    if (int(lam), key) not in CANONICAL_PAIRS:
        raise NotARepresentative(f"({lam}, {key}) is not a canonical pair")
    xi_val, lam_val = xi_exact(key), QSqrt3(int(lam))
    ops = closed_form_riemann(lam_val, xi_val, n)
    ric = closed_form_ricci(lam_val, xi_val, n)
    report = CurvatureReport(
        lam=int(lam),
        xi_key=key,
        n=n,
        backend=EXACT,
        u=closed_form_u(lam_val, xi_val, n),
        nabla=closed_form_nabla(lam_val, xi_val, n),
        riemann_ops=ops,
        ric=ric,
        flat=is_flat(ops, 0.0),
        einstein=einstein_test(ric),
        soliton=soliton_certificate(lam_val, xi_val, n, ric),
        spectrum=ricci_spectrum(lam_val, xi_val, n, ric),
    )
    if backend == EXACT:
        return report
    c_d = report.soliton
    return replace(
        report,
        backend=backend,
        u=BilinearTable(report.u.values.astype(float)),
        nabla=BilinearTable(report.nabla.values.astype(float)),
        riemann_ops={ij: op.astype(float) for ij, op in ops.items()},
        ric=ric.astype(float),
        einstein=None if report.einstein is None else float(report.einstein),
        soliton=None if c_d is None else (float(c_d[0]), c_d[1].astype(float)),
        spectrum=[float(x) for x in report.spectrum],
    )
