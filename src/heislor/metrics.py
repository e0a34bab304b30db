"""Lorentzian inner products as Gram matrices and the change-of-basis action.

A metric is the symmetric matrix gram with gram[i, j] = <e_i, e_j>; the
group GL(n) acts by g.<x, y> = <g^-1 x, g^-1 y>, i.e. gram -> g^-T gram g^-1.
Canonical representatives carry the two shear parameters (lam, xi) in the
first row; their pseudo-orthonormal frames are the columns of the shear
matrix itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (
    exact_array,
    exact_eye,
    exact_inv,
    exact_rank,
    congruence_diagonal,
    is_exact,
    max_abs,
    minkowski_gram,
    to_float,
)
from .numerics import APPROX, DEFAULT_TOL, EXACT, QSqrt3, SQRT3, sign_with_tol


class AsymmetricInput(ValueError):
    """A Gram matrix must be symmetric."""


class SingularMatrix(ValueError):
    """The change-of-basis matrix must be invertible."""


class DependentBasis(ValueError):
    """Restriction basis vectors must be linearly independent."""


class WrongSignature(ValueError):
    """Expected Lorentzian signature (n-1, 1)."""


class NotARepresentative(ValueError):
    """(lam, xi) is not one of the six canonical parameter pairs."""


#: the six canonical parameter pairs, xi encoded as a key string
CANONICAL_PAIRS: tuple[tuple[int, str], ...] = (
    (0, "0"),
    (1, "0"),
    (1, "1"),
    (2, "0"),
    (2, "sqrt3"),
    (2, "2"),
)

_XI_EXACT = {"0": QSqrt3(0), "1": QSqrt3(1), "sqrt3": SQRT3, "2": QSqrt3(2)}


def xi_exact(key: str) -> QSqrt3:
    return _XI_EXACT[key]


def xi_float(key: str) -> float:
    return float(_XI_EXACT[key])


def xi_key_of(value) -> str:
    """Canonical key for an exact xi value; raises for anything else."""
    for key, exact in _XI_EXACT.items():
        if isinstance(value, QSqrt3) and value == exact:
            return key
        if isinstance(value, str) and value == key:
            return key
        if isinstance(value, (int, float)) and abs(float(exact) - float(value)) < 1e-12:
            return key
    raise NotARepresentative(f"xi value {value!r} is not one of 0, 1, sqrt3, 2")


@dataclass(frozen=True)
class SignatureTriple:
    """Counts (plus, minus, zero) of a restricted inner product."""

    plus: int
    minus: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.plus, self.minus, self.zero)

    @classmethod
    def of_signs(cls, signs: list[int]) -> "SignatureTriple":
        """Counts of a list of signs, each -1, 0 or +1."""
        return cls(signs.count(1), signs.count(-1), signs.count(0))


@dataclass(frozen=True)
class Metric:
    """A symmetric Gram matrix over one of the two scalar backends."""

    gram: np.ndarray = field(repr=False)
    backend: str = APPROX

    def __post_init__(self):
        g = self.gram
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gram must be a square matrix")
        if self.backend not in (EXACT, APPROX):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == EXACT and not is_exact(g):
            raise ValueError("exact backend requires QSqrt3 entries")

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def to_approx(self) -> "Metric":
        if self.backend == APPROX:
            return self
        return Metric(gram=to_float(self.gram), backend=APPROX)


def _check_symmetric(m: np.ndarray, tol: float) -> None:
    if m.dtype == object:
        n = m.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if m[i, j] != m[j, i]:
                    raise AsymmetricInput(f"entries ({i},{j}) and ({j},{i}) differ")
    elif max_abs(m - m.T) > tol * max(1.0, max_abs(m)):
        raise AsymmetricInput("matrix is not symmetric within tolerance")


def _eigen_signature(eigs: np.ndarray, tol: float) -> tuple[SignatureTriple, float]:
    """Sign counts of eigenvalues relative to the spectral radius, and the zero band.

    An eigenvalue within band = tol * max(1, spectral radius) of 0 counts as zero.
    """
    band = tol * max(1.0, max_abs(eigs))
    return SignatureTriple.of_signs([sign_with_tol(e, band) for e in eigs.tolist()]), band


def spectral_signature(
    m: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[SignatureTriple, np.ndarray, float]:
    """Float signature of a symmetric matrix, with its eigenvalues and zero band."""
    _check_symmetric(m, tol)
    eigs = np.linalg.eigvalsh(m)
    sig, band = _eigen_signature(eigs, tol)
    return sig, eigs, band


def signature_of(m: np.ndarray, tol: float = DEFAULT_TOL) -> SignatureTriple:
    """Eigenvalue sign counts of a symmetric matrix.

    Exact backend: symmetric congruence elimination, no square roots, no
    tolerance.  Float backend: eigenvalue signs relative to the spectral
    radius.
    """
    if m.dtype != object:
        return spectral_signature(m, tol)[0]
    _check_symmetric(m, tol)
    return SignatureTriple.of_signs([d.sign() for d in congruence_diagonal(m)])


def act(g: np.ndarray, metric: Metric) -> Metric:
    """Push the inner product forward: gram -> g^-T gram g^-1."""
    if g.dtype == object:
        ginv = exact_inv(g)
    else:
        if abs(np.linalg.det(g)) < 1e-300:
            raise SingularMatrix("change of basis is singular")
        ginv = np.linalg.inv(g)
    return Metric(gram=ginv.T @ metric.gram @ ginv, backend=metric.backend)


def restrict(metric: Metric, b: np.ndarray) -> np.ndarray:
    """Gram matrix B^T gram B of the restriction to span(columns of B)."""
    d = b.shape[1]
    if b.dtype == object:
        if exact_rank(b.T) != d:
            raise DependentBasis("restriction basis is dependent")
    elif d and np.linalg.matrix_rank(b) != d:
        raise DependentBasis("restriction basis is dependent")
    return b.T @ metric.gram @ b


@dataclass(frozen=True)
class Frame:
    """A pseudo-orthonormal basis for k * <,>: cols^T (k gram) cols = I_(n-1,1)."""

    columns: np.ndarray = field(repr=False)
    scale: float | QSqrt3 = 1


def shear_matrix(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Identity plus the (1, n-1) and (1, n) shear entries xi and lam."""
    if exact:
        g = exact_eye(n)
        g[0, n - 2] = QSqrt3.coerce(xi)
        g[0, n - 1] = QSqrt3.coerce(lam)
    else:
        g = np.eye(n)
        g[0, n - 2] = float(xi)
        g[0, n - 1] = float(lam)
    return g


def canonical_gram(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Closed-form Gram matrix of the sheared inner product, any (lam, xi)."""
    if exact:
        lam = QSqrt3.coerce(lam)
        xi = QSqrt3.coerce(xi)
        g = minkowski_gram(n, exact=True)
        one = QSqrt3(1)
    else:
        lam = float(lam)
        xi = float(xi)
        g = minkowski_gram(n)
        one = 1.0
    g[0, n - 2] = g[n - 2, 0] = -xi
    g[0, n - 1] = g[n - 1, 0] = -lam
    g[n - 2, n - 2] = one + xi * xi
    g[n - 2, n - 1] = g[n - 1, n - 2] = lam * xi
    g[n - 1, n - 1] = lam * lam - one
    return g


def canonical_metric(lam, xi, n: int, backend: str = EXACT) -> tuple[Metric, Frame]:
    """One of the six canonical metrics together with its orthonormal frame."""
    key = xi_key_of(xi)
    if (int(lam), key) not in CANONICAL_PAIRS:
        raise NotARepresentative(f"(lam, xi) = ({lam}, {key}) is not canonical")
    exact = backend == EXACT
    xi_val = xi_exact(key) if exact else xi_float(key)
    lam_val = QSqrt3(lam) if exact else float(lam)
    gram = canonical_gram(lam_val, xi_val, n, exact=exact)
    cols = shear_matrix(lam_val, xi_val, n, exact=exact)
    scale = QSqrt3(1) if exact else 1.0
    return Metric(gram=gram, backend=EXACT if exact else APPROX), Frame(cols, scale)


def factor_metric(metric: Metric, tol: float = DEFAULT_TOL) -> np.ndarray:
    """An m with act(m, <,>_0) = metric, via eigendecomposition.

    Unique only up to right multiplication by the Lorentz group of the
    canonical form; the negative direction is sorted last.
    """
    gram = to_float(metric.gram)
    _check_symmetric(gram, tol)
    eigvals, q = np.linalg.eigh(gram)
    sig, _ = _eigen_signature(eigvals, tol)
    if (sig.plus, sig.minus) != (gram.shape[0] - 1, 1):
        raise WrongSignature(
            f"signature ({sig.plus},{sig.minus},{sig.zero}) unsupported;"
            " expected (n-1, 1, 0)"
        )
    order = np.argsort(-eigvals)  # positives first, the negative one last
    eigvals = eigvals[order]
    q = q[:, order]
    return q * (np.abs(eigvals) ** -0.5)


# -- JSON schema --------------------------------------------------------------


def _exact_entry_to_str(x: QSqrt3) -> str:
    return x.format()


def metric_to_json(metric: Metric) -> dict:
    if metric.backend == EXACT:
        gram = [[_exact_entry_to_str(x) for x in row] for row in metric.gram]
    else:
        gram = [[float(x) for x in row] for row in metric.gram]
    return {"n": metric.n, "gram": gram, "backend": metric.backend}


def metric_from_json(data: dict) -> Metric:
    try:
        n = int(data["n"])
        backend = data["backend"]
        rows = data["gram"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed metric JSON: {exc}") from exc
    if backend not in (EXACT, APPROX):
        raise ValueError(f"unknown backend {backend!r}")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("gram shape does not match n")
    if backend == EXACT:
        parsed = [
            [x if isinstance(x, QSqrt3) else QSqrt3.parse(str(x)) for x in row]
            for row in rows
        ]
        gram = exact_array(parsed)
    else:
        gram = np.array(rows, dtype=float)
    metric = Metric(gram=gram, backend=backend)
    _check_symmetric(gram, DEFAULT_TOL)
    return metric


def canonical_json(obj) -> str:
    """Deterministic serialization used for byte-for-byte round trips."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

