"""Time integration of power curvature flow (inward normal speed kappa^p).

The support-function form evolves dh/dt = -kappa^p on the fixed Gauss-angle
grid; the Lagrangian marker form displaces each material point by
-dt * kappa^p * nu with no tangential motion.  Both use explicit Euler with
an adaptive stability-bounded step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .curves import CurveGeometry, SupportCurve, geometry_of_markers
from .errors import ConfigInvalid, ConvexityLost, NonFinite

Curve = Union[SupportCurve, CurveGeometry]


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run."""

    p: float
    sigma: float = 0.4           # timestep safety factor
    kappa_stop: float | None = None   # default: 1e3 * initial max curvature
    area_stop: float | None = None    # default: 1e-4 * initial area
    t_end: float | None = None
    monitor_every: int = 50

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigInvalid("p must exceed 1")
        if not (0.0 < self.sigma <= 0.9):
            raise ConfigInvalid("sigma must lie in (0, 0.9]")
        for name in ("kappa_stop", "area_stop"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigInvalid(f"{name} must be positive")
        if self.t_end is not None and self.t_end < 0.0:
            raise ConfigInvalid("t_end must be nonnegative")
        if self.monitor_every < 1:
            raise ConfigInvalid("monitor_every must be >= 1")


@dataclass(frozen=True)
class FlowState:
    """One time slice of an evolving curve."""

    t: float
    curve: Curve
    steps: int = 0
    last_dt: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple[FlowState, ...]
    terminal_reason: str
    aborted: bool = False


def stable_dt(state: FlowState, cfg: FlowConfig) -> float:
    """Explicit-scheme stability bound.

    Support form: sigma * dtheta^2 / (2p * max kappa^(p+1)); the flow
    linearizes to a diffusion with coefficient p*kappa^(p+1) in Gauss angle.
    Marker form: sigma * min(ds)^2 / (2p * max kappa^(p-1)).
    """
    p = cfg.p
    curve = state.curve
    if isinstance(curve, SupportCurve):
        dt = cfg.sigma * curve.dtheta ** 2 / (2.0 * p * float(np.max(curve.kappa)) ** (p + 1.0))
    else:
        dt = (cfg.sigma * float(np.min(curve.ds)) ** 2
              / (2.0 * p * float(np.max(curve.kappa)) ** (p - 1.0)))
    if not np.isfinite(dt) or dt <= 0.0:
        raise NonFinite("stable timestep is not finite")
    return dt


def step_support(state: FlowState, cfg: FlowConfig, dt: float | None = None) -> FlowState:
    """One explicit Euler step h <- h - dt*kappa^p on the support grid."""
    curve = state.curve
    if not isinstance(curve, SupportCurve):
        raise ConfigInvalid("step_support requires a support-form state")
    if dt is None:
        dt = stable_dt(state, cfg)
    h_new = curve.h - dt * curve.kappa ** cfg.p
    if not np.all(np.isfinite(h_new)):
        raise NonFinite("support update produced non-finite values")
    new_curve = SupportCurve(h_new)  # re-validates convexity
    return FlowState(t=state.t + dt, curve=new_curve, steps=state.steps + 1, last_dt=dt)


def step_markers(state: FlowState, cfg: FlowConfig, dt: float | None = None,
                 _speed_sign: float = -1.0) -> FlowState:
    """One explicit Euler step x <- x - dt*kappa^p*nu (purely normal motion).

    No remeshing happens here; material identity of the markers is kept.
    """
    curve = state.curve
    if not isinstance(curve, CurveGeometry):
        raise ConfigInvalid("step_markers requires a marker-form state")
    if dt is None:
        dt = stable_dt(state, cfg)
    pts_new = curve.x + (_speed_sign * dt) * (curve.kappa ** cfg.p)[:, None] * curve.normal
    if not np.all(np.isfinite(pts_new)):
        raise NonFinite("marker update produced non-finite positions")
    new_curve = geometry_of_markers(pts_new)  # re-validates convexity
    return FlowState(t=state.t + dt, curve=new_curve, steps=state.steps + 1, last_dt=dt)


Monitor = Callable[[FlowState], None]


def run_flow(state: FlowState, cfg: FlowConfig,
             monitors: Sequence[Monitor] = ()) -> Trajectory:
    """Drive the flow until t_end, kappa_stop, or area_stop.

    Monitors are invoked every ``cfg.monitor_every`` steps on immutable
    snapshots; intermediate snapshots are recorded only when monitors are
    attached.  On ConvexityLost/NonFinite the partial trajectory is
    returned with ``aborted=True``.
    """
    kappa_stop = (cfg.kappa_stop if cfg.kappa_stop is not None
                  else 1e3 * float(np.max(state.curve.kappa)))
    area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * state.curve.area

    stepper = step_support if isinstance(state.curve, SupportCurve) else step_markers
    snaps = [state]
    reason = None
    aborted = False

    if cfg.t_end is not None and state.t >= cfg.t_end:
        return Trajectory(tuple(snaps), "t_end")

    while True:
        dt = stable_dt(state, cfg)
        if cfg.t_end is not None and state.t + dt > cfg.t_end:
            dt = cfg.t_end - state.t
        try:
            state = stepper(state, cfg, dt)
        except (ConvexityLost, NonFinite) as exc:
            reason = type(exc).__name__.lower()
            aborted = True
            break

        monitored = False
        if monitors and state.steps % cfg.monitor_every == 0:
            snaps.append(state)
            monitored = True
            for mon in monitors:
                mon(state)

        if cfg.t_end is not None and state.t >= cfg.t_end:
            reason = "t_end"
        elif float(np.max(state.curve.kappa)) >= kappa_stop:
            reason = "kappa_stop"
        elif state.curve.area <= area_stop:
            reason = "area_stop"
        if reason is not None:
            if not monitored:
                snaps.append(state)
            break

    if not aborted and snaps[-1].t != state.t:
        snaps.append(state)
    return Trajectory(tuple(snaps), reason, aborted)


def circle_extinction_time(R0: float, p: float) -> float:
    """Extinction time of a circle: R0^(p+1)/(p+1), from R' = -R^-p."""
    if not R0 > 0.0:
        raise ConfigInvalid("R0 must be positive")
    if not p > 1.0:
        raise ConfigInvalid("p must exceed 1")
    return R0 ** (p + 1.0) / (p + 1.0)


def estimated_extinction_time(c: SupportCurve, p: float) -> float:
    """Lower bound on extinction via the inscribed circle min h."""
    return circle_extinction_time(float(np.min(c.h)), p)
