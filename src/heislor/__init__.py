"""Left-invariant Lorentzian metrics on the Heisenberg group times R^(n-3).

Classification into six canonical classes with verifiable reduction
witnesses, full curvature computation with Ricci soliton certificates, and
orbit geometry including the degeneration graph.

`import heislor` loads only the classification layer: numerics, _linalg, errors,
liealg, metrics and reduction.  The curvature and orbit names, and those two
modules, are imported the first time one of them is read off the package.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .numerics import APPROX, DEFAULT_TOL, EXACT, QSqrt3, SQRT3, sign_with_tol
from .liealg import BlockPattern, aut_pattern, derivation_space_dim
from .metrics import (
    CANONICAL_PAIRS, Metric, act, canonical_gram, canonical_metric, factor_metric,
    metric_from_json, shear_matrix, signature_of,
)
from .reduction import (
    CanonicalForm, Witness, classify, classify_by_invariants, reduce_lambda0, reduce_lambda1,
    reduce_lambda2, reduce_last_row, reduce_to_t, restricted_signatures, verify_witness,
)

__version__ = "0.1.0"

#: each name loaded on first read (PEP 562), and the module that defines it
_LAZY = {
    **dict.fromkeys((
        "CurvatureReport", "closed_form_ricci", "closed_form_riemann", "curvature_report",
        "einstein_test", "frame_brackets", "generic_curvature", "is_flat", "ricci_spectrum",
        "soliton_certificate",
    ), "curvature"),
    **dict.fromkeys((
        "CURVE_FAMILIES", "DegenerationGraph", "OrbitReport", "codimension",
        "degeneration_graph", "dims_UW", "is_closed", "orbit_report", "stabilizer_dim",
    ), "orbits"),
}

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)


def __getattr__(name: str):
    """Import a lazy name's module when the name is first read, and bind the name
    here so later reads skip this hook; the modules curvature and orbits load alike."""
    module = _LAZY.get(name, name if name in _LAZY.values() else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f".{module}", __name__)
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
