"""Numerical laboratory for power curvature flow of convex plane curves.

Evolves closed convex curves with inward normal speed kappa^p (p > 1),
monitors the two-point non-collapsing ratio mu = sup Z / kappa, and
verifies the evolution equations and two-point identities numerically.
"""

from .curves import (
    CurveGeometry,
    SupportCurve,
    construct_curve,
    embed_support,
    geometry_of_markers,
    isoperimetric_ratio,
)
from .errors import (
    ConfigInvalid,
    ConvexityLost,
    DegenerateChord,
    NonFinite,
    NotConverged,
    PcflowError,
)
from .flow import (
    FlowConfig,
    FlowState,
    Trajectory,
    circle_extinction_time,
    estimated_extinction_time,
    run_flow,
    run_flows,
    stable_dt,
    step_markers,
    step_support,
)
from .noncollapse import (
    NonCollapseReport,
    TwoPointConfig,
    inscribed_radius_oracle,
    mu_report,
)

__all__ = [
    "CurveGeometry", "SupportCurve",
    "construct_curve", "embed_support",
    "geometry_of_markers", "isoperimetric_ratio",
    "ConfigInvalid", "ConvexityLost", "DegenerateChord", "NonFinite",
    "NotConverged", "PcflowError",
    "FlowConfig", "FlowState", "Trajectory", "circle_extinction_time",
    "estimated_extinction_time", "run_flow", "run_flows", "stable_dt", "step_markers",
    "step_support",
    "NonCollapseReport", "TwoPointConfig", "inscribed_radius_oracle", "mu_report",
]

__version__ = "0.1.0"
