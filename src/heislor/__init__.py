"""Left-invariant Lorentzian metrics on the Heisenberg group times R^(n-3).

Classification into six canonical classes with verifiable reduction
witnesses, full curvature computation with Ricci soliton certificates, and
orbit geometry including the degeneration graph.
"""

from types import ModuleType as _ModuleType

from .numerics import (
    APPROX,
    DEFAULT_TOL,
    EXACT,
    QSqrt3,
    SQRT3,
    sign_with_tol,
)
from .liealg import (
    BlockPattern,
    aut_pattern,
    derivation_space_dim,
)
from .metrics import (
    CANONICAL_PAIRS,
    Metric,
    act,
    canonical_gram,
    canonical_metric,
    factor_metric,
    metric_from_json,
    shear_matrix,
    signature_of,
)
from .reduction import (
    CanonicalForm,
    Witness,
    classify,
    classify_by_invariants,
    reduce_lambda0,
    reduce_lambda1,
    reduce_lambda2,
    reduce_last_row,
    reduce_to_t,
    restricted_signatures,
    verify_witness,
)
from .curvature import (
    CurvatureReport,
    closed_form_ricci,
    closed_form_riemann,
    curvature_report,
    einstein_test,
    frame_brackets,
    generic_curvature,
    is_flat,
    ricci_spectrum,
    soliton_certificate,
)
from .orbits import (
    CURVE_FAMILIES,
    DegenerationGraph,
    OrbitReport,
    codimension,
    degeneration_graph,
    dims_UW,
    is_closed,
    orbit_report,
    stabilizer_dim,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
