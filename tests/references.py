"""Reference helpers that the tests alone use.

The package passes sparse rows to `_linalg.rref_rows` and `nullspace_rows`; the
dense adapters here read and write object arrays of QSqrt3, the shape the tests'
references use.  Der(g) as dense matrices, the metric JSON writer and the
degeneration-curve sampler build the inputs and references of the tests.
"""

import numpy as np

from heislor import orbits
from heislor._linalg import exact_dense, nullspace_rows, rref_rows
from heislor.liealg import _derivation_vectors, require_dim
from heislor.metrics import APPROX, EXACT, Metric, canonical_gram
from heislor.numerics import QSqrt3


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
    orbits._require_contains(fam, t)
    lam, xi = fam.params(t)
    return Metric(gram=canonical_gram(lam, xi, n, exact=False), backend=APPROX)
