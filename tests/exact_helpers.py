"""Dense adapters of the package's sparse exact kernel, used by the tests alone.

The package passes sparse rows to `_linalg.rref_rows` and `nullspace_rows`; these
read and write object arrays of QSqrt3, the shape the tests' references use.
"""

import numpy as np

from heislor._linalg import exact_dense, nullspace_rows, rref_rows
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
