"""Lorentzian inner products as Gram matrices and the change-of-basis action.

A metric is the symmetric matrix gram with gram[i, j] = <e_i, e_j>; the
group GL(n) acts by g.<x, y> = <g^-1 x, g^-1 y>, i.e. gram -> g^-T gram g^-1.
Canonical representatives carry the two shear parameters (lam, xi) in the
first row; canonical_metric returns each with its shear matrix g, whose columns
form a pseudo-orthonormal frame: g^T gram g = diag(1, ..., 1, -1).  Signatures
are plain (plus, minus, zero) tuples.
"""

from __future__ import annotations

import math
import numbers
import sys

import numpy as np

from ._linalg import (
    exact_array,
    exact_eye,
    exact_inv,
    congruence_diagonal,
    eigh,
    eigvalsh,
    inv,
    is_singular,
    minkowski_gram,
    shared_minkowski_gram,
    to_float,
)
from .errors import AsymmetricInput, NotARepresentative, SingularMatrix, WrongSignature
from .liealg import require_dim
from .numerics import APPROX, DEFAULT_TOL, EXACT, QSqrt3, SQRT3, _Frozen


#: the six canonical parameter pairs, xi encoded as a key string
CANONICAL_PAIRS: tuple[tuple[int, str], ...] = (
    (0, "0"),
    (1, "0"),
    (1, "1"),
    (2, "0"),
    (2, "sqrt3"),
    (2, "2"),
)

#: a float xi this close to a canonical value names it (exact keys need no band)
XI_MATCH_TOL = 1e-12
#: an eigenvalue within this factor of the zero band is flagged NearDegenerate
NEAR_DEGENERATE_MARGIN = 100.0

_XI_EXACT = {"0": QSqrt3(0), "1": QSqrt3(1), "sqrt3": SQRT3, "2": QSqrt3(2)}
_XI_FLOAT = {key: float(value) for key, value in _XI_EXACT.items()}


def xi_exact(key: str) -> QSqrt3:
    return _XI_EXACT[key]


def xi_float(key: str) -> float:
    return _XI_FLOAT[key]


def xi_key_of(value) -> str:
    """Canonical key for an exact xi value; raises for anything else."""
    for key, exact in _XI_EXACT.items():
        if isinstance(value, QSqrt3) and value == exact:
            return key
        if isinstance(value, str) and value == key:
            return key
        if isinstance(value, (int, float)) and abs(float(exact) - float(value)) < XI_MATCH_TOL:
            return key
    raise NotARepresentative(f"xi value {value!r} is not one of 0, 1, sqrt3, 2")


def xi_json(key: str) -> int | str:
    """xi as a JSON value: "sqrt3", or the integer 0, 1 or 2."""
    return key if key == "sqrt3" else int(key)


def canonical_pair(lam, xi) -> tuple[int, str]:
    """(lam as an int, xi's key) when (lam, xi) is one of the six canonical pairs, lam a
    whole number; int() alone would read 2.5 as 2, and raise on an infinite or NaN lam."""
    key = xi_key_of(xi)
    if isinstance(lam, QSqrt3):
        whole = int(lam.a) if not lam.b and lam.a.denominator == 1 else None
    else:
        whole = int(lam) if abs(lam) < math.inf and lam == int(lam) else None
    if (whole, key) not in CANONICAL_PAIRS:
        raise NotARepresentative(f"({lam}, {key}) is not a canonical pair")
    return whole, key


class Metric(_Frozen):
    """A symmetric Gram matrix, n >= 4, of QSqrt3 (exact backend) or float64 (approx) entries,
    validated once, when made, into a read-only copy; a copy or an unpickled one is made anew.
    Equal and hashed by identity: two grams compare entry by entry."""

    __slots__ = ("gram", "backend")
    _FIELDS = ("backend",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, gram: np.ndarray, backend: str = APPROX) -> None:
        gram = np.asarray(gram)
        if backend not in (EXACT, APPROX):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == EXACT and gram.dtype != object:
            raise ValueError("exact backend requires QSqrt3 entries")
        if backend == APPROX and gram.dtype.kind not in "biuf":
            # the float cast would drop an imaginary part or parse a string
            for at, x in np.ndenumerate(gram.astype(object)):
                if not isinstance(x, (numbers.Real, QSqrt3)):
                    where = "".join(f"[{k}]" for k in at)
                    raise ValueError(f"gram{where} = {x!r} is not a real number")
        gram = np.array(_float_gram(gram)) if backend == APPROX else gram.copy()
        _check_symmetric(gram)
        require_dim(gram.shape[0])
        gram.flags.writeable = False
        self._fill(gram, backend)

    def __reduce__(self):
        return Metric, (self.gram, self.backend)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def to_approx(self) -> "Metric":
        return Metric(gram=self.gram, backend=APPROX)


def _check_symmetric(m: np.ndarray) -> None:
    """ValueError unless m is a square 2-D array of finite entries, naming the first bad
    one; AsymmetricInput unless it is symmetric, exactly for QSqrt3 entries."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("gram must be a square matrix")
    if m.dtype != object and not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValueError(f"gram[{i}][{j}] = {float(m[i, j])!r} is not a finite number")
    if m.dtype == object:
        n = m.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if m[i, j] != m[j, i]:
                    raise AsymmetricInput(f"entries ({i},{j}) and ({j},{i}) differ")
    else:
        # an exactly symmetric gram, the usual one, skips the two reductions
        d = m - m.T
        if d.any() and np.abs(d).max() > DEFAULT_TOL * np.abs(m).max():
            raise AsymmetricInput("matrix is not symmetric within tolerance")


def _band_signs(eigs: list[float]) -> tuple[tuple[int, int, int], bool]:
    """(plus, minus, zero) counts of eigenvalues, each zero within the band DEFAULT_TOL *
    max(1, spectral radius), the 1 being the unit scale classify reads at; and whether one
    lies strictly within a factor NEAR_DEGENERATE_MARGIN of the band.  Plain floats: for
    n <= 8 one numpy call costs about as much as this whole read."""
    band = DEFAULT_TOL * max(1.0, max(map(abs, eigs), default=0.0))
    lo, hi = band / NEAR_DEGENERATE_MARGIN, band * NEAR_DEGENERATE_MARGIN
    plus, minus, near = 0, 0, False
    for e in eigs:
        if e > band:
            plus += 1
        elif e < -band:
            minus += 1
        near = near or lo < abs(e) < hi
    return (plus, minus, len(eigs) - plus - minus), near


def _require_lorentzian(counts: tuple[int, int, int]) -> None:
    """Raise WrongSignature unless the (plus, minus, zero) counts are (n-1, 1, 0)."""
    if counts[1:] != (1, 0):
        raise WrongSignature(f"signature {counts} unsupported; expected (n-1, 1, 0)")


def signature_of(m: np.ndarray) -> tuple[int, int, int]:
    """Eigenvalue sign counts (plus, minus, zero) of a symmetric matrix.

    Exact backend: symmetric congruence elimination, no square roots, no
    tolerance.  Float backend: eigenvalue signs relative to the spectral
    radius.  ValueError for an m that is not square or not finite.
    """
    _check_symmetric(m)
    return _signs(m)


def _signs(m: np.ndarray) -> tuple[int, int, int]:
    """signature_of(m) without its checks, for a block of a gram its Metric checked."""
    if m.dtype != object:
        return _band_signs(eigvalsh(m).tolist())[0]
    signs = [d.sign() for d in congruence_diagonal(m)]
    return signs.count(1), signs.count(-1), signs.count(0)


def act(g: np.ndarray, metric: Metric) -> Metric:
    """Push the inner product forward: gram -> g^-T gram g^-1, g of the metric's size and kind."""
    kind = EXACT if g.dtype == object else APPROX
    if g.shape != metric.gram.shape or kind != metric.backend:
        size = "x".join(map(str, g.shape))
        raise ValueError(f"g is {size} {kind}, the metric {metric.n}x{metric.n} {metric.backend}")
    if g.dtype != object and is_singular(g[None])[0]:
        raise SingularMatrix("change of basis is singular")
    try:
        ginv = exact_inv(g) if g.dtype == object else inv(g)
    except ZeroDivisionError as exc:  # exact_inv of a singular g
        raise SingularMatrix("change of basis is singular") from exc
    return Metric(gram=ginv.T @ metric.gram @ ginv, backend=metric.backend)


def shear_matrix(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Identity plus the (1, n-1) and (1, n) shear entries xi and lam."""
    require_dim(n)
    g, entry = (exact_eye(n), QSqrt3.coerce) if exact else (np.eye(n), float)
    g[0, n - 2] = entry(xi)
    g[0, n - 1] = entry(lam)
    return g


def _gram_rows(lam, xi, n: int, one) -> dict[tuple[int], dict[int, object]]:
    """The closed form of the sheared gram, as its rows 0, n-2 and n-1 {(i,): {j: G[i, j]}}.

    Every other row i is e_i, as in minkowski_gram(n), so every off-diagonal entry
    lies on the rows and columns {0, n-2, n-1}.  `one` is 1 in the scalars of lam and
    xi, which may be float arrays of one shape; an entry may be zero.
    """
    shear_xi, shear_lam, mixed = -xi, -lam, lam * xi
    return {
        (0,): {0: one, n - 2: shear_xi, n - 1: shear_lam},
        (n - 2,): {0: shear_xi, n - 2: one + xi * xi, n - 1: mixed},
        (n - 1,): {0: shear_lam, n - 2: mixed, n - 1: lam * lam - one},
    }


def canonical_gram(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Closed-form Gram matrix of the sheared inner product, any (lam, xi): _gram_rows
    written over minkowski_gram(n).

    The float form broadcasts: arrays of lam and xi of shape S give a stack of
    shape S + (n, n), and scalars give the single (n, n) gram, a batch of one.
    """
    require_dim(n)
    if exact:
        lam, xi, one = QSqrt3.coerce(lam), QSqrt3.coerce(xi), QSqrt3(1)
        g = minkowski_gram(n, exact=True)
    else:
        # [()] turns a 0-d array into a float64 scalar, which writes faster
        lam = np.asarray(lam, dtype=float)[()]
        xi = np.asarray(xi, dtype=float)[()]
        g = np.empty(np.broadcast(lam, xi).shape + (n, n))
        g[...] = shared_minkowski_gram(n)
        one = 1.0
    for (i,), row in _gram_rows(lam, xi, n, one).items():
        for j, x in row.items():
            g[..., i, j] = x
    return g


def canonical_metric(lam, xi, n: int, backend: str = EXACT) -> tuple[Metric, np.ndarray]:
    """One of the six canonical metrics and its shear g, whose columns are a
    pseudo-orthonormal frame: g^T gram g = diag(1, ..., 1, -1)."""
    lam, key = canonical_pair(lam, xi)
    exact = backend == EXACT
    xi_val = xi_exact(key) if exact else xi_float(key)
    lam_val = QSqrt3(lam) if exact else float(lam)
    gram = canonical_gram(lam_val, xi_val, n, exact=exact)
    shear = shear_matrix(lam_val, xi_val, n, exact=exact)
    return Metric(gram=gram, backend=backend), shear


def factor_metric(metric: Metric) -> np.ndarray:
    """An m with act(m, <,>_0) = metric, via eigendecomposition.

    Unique only up to right multiplication by the Lorentz group of the
    canonical form; the negative direction is sorted last.
    """
    return _factor_metric(metric)[0]


def _factor_metric(metric: Metric) -> tuple[np.ndarray, np.ndarray, float]:
    """factor_metric's m, (m^-1)^T, and 2^-e with e = round(log|det M| / (n ln 4)).

    All three come from one eigendecomposition M = Q L Q^T: m = Q |L|^(-1/2), so
    (m^-1)^T = Q |L|^(1/2) with no inverse formed.  2^-e (m^-1)^T factors M / 4^e,
    whose |det|^(1/n) lies within a factor 2 of 1; a power of 2 rescales a
    float exactly.  Every canonical Gram matrix has |det| = 1, so e = 0.  The
    signature is read at M / 4^e, so c * M passes or fails with M; a zero
    eigenvalue fails at every e and is left out of the determinant.  The gram was
    checked symmetric when the Metric was made.
    """
    eigvals, q = eigh(_float_gram(metric.gram))
    # eigh sorts ascending, so reversed views put the positives first, the negative one last
    eigvals, q = eigvals[::-1], q[:, ::-1]
    values = eigvals.tolist()
    prescale = _unit_prescale(values)
    _require_lorentzian(_band_signs([v * prescale * prescale for v in values])[0])
    size = np.abs(eigvals)
    return q * size**-0.5, q * np.sqrt(size), prescale


def _float_gram(gram: np.ndarray) -> np.ndarray:
    """to_float(gram); ValueError when an exact gram's float copy overflows or rounds to 0."""
    try:
        out = to_float(gram)
    except OverflowError:  # an exact entry beyond the float range
        out = np.array(math.inf)
    if gram.dtype == object and not (np.isfinite(out).all() and (out.any() or not gram.any())):
        raise ValueError("the metric's scale is outside the float range")
    return out


def _unit_prescale(eigvals: list[float]) -> float:
    """2^-e, e = round(log|det| / (n ln 4)) over the nonzero eigenvalues of a gram.
    ValueError if 4^-e overflows or every nonzero eigenvalue is subnormal (the gram has lost
    its digits), which needs log|det| < log(smallest normal), the cheaper test; so the
    canonical grams classify at 3e-308 and are refused from 1e-308 down."""
    log_det = sum(math.log(abs(v)) for v in eigvals if v)
    prescale = math.ldexp(1.0, -round(log_det / (len(eigvals) * math.log(4.0))))
    tiny = log_det < math.log(sys.float_info.min) and max(map(abs, eigvals)) < sys.float_info.min
    if tiny or prescale * prescale == math.inf:
        raise ValueError("the metric's scale is outside the float range")
    return prescale


def _unit_gram(metric: Metric) -> tuple[np.ndarray, list[float] | None]:
    """The gram an invariant reader sees, symmetric as every Metric's is: an exact one
    as given, a float one at unit scale, M / 4^e, with its eigenvalues (those that give
    e, scaled; None for an exact gram).  Unlike factor_metric it takes any signature."""
    gram = metric.gram
    if metric.backend == EXACT:
        return gram, None
    eigvals = eigvalsh(gram).tolist()
    prescale = _unit_prescale(eigvals)
    return gram * (prescale * prescale), [v * prescale * prescale for v in eigvals]


# -- JSON schema --------------------------------------------------------------


def _json_entry(x, backend: str, where: str):
    """One gram entry read from JSON; ValueError naming the entry if unusable."""
    # float() and str() would read true as 1, and float() a string by Python's float syntax
    if isinstance(x, bool) or (backend == APPROX and not isinstance(x, numbers.Real)):
        raise ValueError(f"{where} = {x!r} is not a number")
    try:
        if backend == EXACT:  # every Q(sqrt3) value is finite
            return x if isinstance(x, QSqrt3) else QSqrt3.parse(str(x))
        value = float(x)
    except ZeroDivisionError:
        raise ValueError(f"{where} = {x!r} has a zero denominator") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{where} = {x!r} is not a valid {backend} entry: {exc}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where} = {x!r} is not a finite number")
    return value


def metric_from_json(data: dict) -> Metric:
    """Read a metric from parsed JSON; every fault in the input is a ValueError."""
    try:
        n = data["n"]
        backend = data["backend"]
        rows = data["gram"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed metric JSON: {exc}") from exc
    if type(n) is not int:
        raise ValueError(f"n = {n!r} is not an integer")
    if backend not in (EXACT, APPROX):
        raise ValueError(f"unknown backend {backend!r}")
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ValueError(f"gram must be n = {n} rows of {n} entries")
    parsed = [
        [_json_entry(x, backend, f"gram[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    gram = exact_array(parsed) if backend == EXACT else np.array(parsed, dtype=float)
    return Metric(gram=gram, backend=backend)
