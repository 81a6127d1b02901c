"""Mean-field signal propagation and geometry in wide random deep networks.

Theory side: iterative length / correlation / curvature maps, their fixed
points, and order-to-chaos phase diagrams over the weight/bias-variance
plane.  Simulation side: seeded finite-width network realizations used to
validate every theoretical map, plus decision-boundary curvature and
expressivity harnesses.  The `mfprop` CLI reproduces the standard
experiments as CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .activations import Nonlinearity, builtin, builtin_names
from .errors import (
    ConvergenceError,
    DegenerateGeometryError,
    MFPropError,
    UnsupportedActivationError,
)
from .meanfield import (
    ChiFactors,
    CorrelationTrajectory,
    CurvatureTrajectory,
    EnsembleParams,
    LengthTrajectory,
    PhaseGrid,
    c_map,
    chi1,
    chi2,
    correlation_trajectory,
    curvature_trajectory,
    length_fixed_point,
    length_map,
    length_trajectory,
    phase_boundary,
    phase_grid,
)
from .quadrature import (
    DEFAULT_ORDER,
    QuadratureRule,
    build_rule,
    expect1,
)

__all__ = [
    "__version__",
    "Nonlinearity", "builtin", "builtin_names",
    "MFPropError", "ConvergenceError", "UnsupportedActivationError",
    "DegenerateGeometryError",
    "QuadratureRule", "build_rule", "expect1",
    "DEFAULT_ORDER",
    "EnsembleParams", "LengthTrajectory", "CorrelationTrajectory",
    "ChiFactors", "CurvatureTrajectory", "PhaseGrid",
    "length_map", "length_trajectory", "length_fixed_point",
    "c_map", "chi1", "chi2",
    "correlation_trajectory", "curvature_trajectory",
    "phase_boundary", "phase_grid",
]
