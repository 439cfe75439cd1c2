"""Time integration of power curvature flow (inward normal speed kappa^p).

``run_flow`` drives the support-function form: dh/dt = -kappa^p on the
fixed Gauss-angle grid, by explicit Euler with an adaptive stability-bounded
step.  It alone picks dt: it calls ``stable_dt`` and ``step_support`` once
per step.  A support step evaluates h + h'' by one stencil and keeps it with
the curve, so the stability bound, the stop tests and the run counters reuse
it.  Monitors see every snapshot ``run_flow`` records, its start and stop
included.  The Lagrangian marker form, which displaces each material point
by -dt * kappa^p * nu with no tangential motion, is the fixed-dt stepper
``step_markers`` that the evolution checks in ``identities`` drive, with
``marker_dt`` as its stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curves import (EPS_CONVEX, CurveGeometry, SupportCurve, _support_curve,
                     geometry_of_markers, support_geometry)
from .errors import ConfigInvalid, ConvexityLost, NonFinite


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
        if self.t_end is not None and not self.t_end >= 0.0:
            raise ConfigInvalid("t_end must be nonnegative")
        if self.monitor_every < 1:
            raise ConfigInvalid("monitor_every must be >= 1")


@dataclass(frozen=True)
class FlowState:
    """One time slice of the support flow."""

    t: float
    curve: SupportCurve
    steps: int = 0
    last_dt: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one run, why it stopped, and counters over the steps it
    accepted (None without steps): their number, dt range, and the smallest
    min(h + h'') - EPS_CONVEX they reached."""

    snapshots: tuple[FlowState, ...]
    terminal_reason: str
    aborted: bool = False
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    convexity_margin: float | None = None


def _bounded_dt(cfg: FlowConfig, spacing: float, kappa_max: float,
                power: float) -> float:
    """sigma * spacing^2 / (2p * kappa_max^power), or NonFinite when that is
    not a positive finite number."""
    try:
        dt = cfg.sigma * spacing ** 2 / (2.0 * cfg.p * kappa_max ** power)
    except OverflowError:  # a Python float power past the float range
        dt = 0.0
    if not math.isfinite(dt) or dt <= 0.0:
        raise NonFinite("stable timestep is not finite")
    return dt


def stable_dt(state: FlowState, cfg: FlowConfig) -> float:
    """Explicit-scheme stability bound of the support step:
    sigma * dtheta^2 / (2p * max kappa^(p+1)); the flow linearizes to a
    diffusion with coefficient p*kappa^(p+1) in Gauss angle.
    max kappa = 1/min(h + h''), the same bits as max(1/(h + h''))."""
    curve = state.curve
    return _bounded_dt(cfg, curve.dtheta, 1.0 / curve.rc_min, cfg.p + 1.0)


def marker_dt(g: CurveGeometry, cfg: FlowConfig) -> float:
    """Explicit-scheme stability bound of the marker step:
    sigma * min(ds)^2 / (2p * max kappa^(p-1))."""
    return _bounded_dt(cfg, float(np.min(g.ds)), float(np.max(g.kappa)), cfg.p - 1.0)


def step_support(state: FlowState, cfg: FlowConfig, dt: float) -> FlowState:
    """One explicit Euler step h <- h - dt*kappa^p on the support grid."""
    curve = state.curve
    h = curve.h - dt * curve.kappa ** cfg.p
    new_curve = _support_curve(h, support_geometry(h, curve.dtheta))  # validates convexity
    return FlowState(t=state.t + dt, curve=new_curve, steps=state.steps + 1, last_dt=dt)


def step_markers(g: CurveGeometry, cfg: FlowConfig, dt: float,
                 speed_sign: float = -1.0) -> CurveGeometry:
    """One explicit Euler step x <- x - dt*kappa^p*nu (purely normal motion);
    ``speed_sign`` = +1 moves the markers outward instead.

    No remeshing happens here; material identity of the markers is kept.
    """
    pts_new = g.x + (speed_sign * dt) * (g.kappa ** cfg.p)[:, None] * g.normal
    if not np.all(np.isfinite(pts_new)):
        raise NonFinite("marker update produced non-finite positions")
    return geometry_of_markers(pts_new)  # re-validates convexity


Monitor = Callable[[FlowState], None]


def run_flow(state: FlowState, cfg: FlowConfig,
             monitors: Sequence[Monitor] = ()) -> Trajectory:
    """Drive the flow until t_end, kappa_stop, or area_stop.

    The snapshots are the start state, every ``cfg.monitor_every``-th step
    when monitors are attached, and the stopping step.  Each monitor is
    called on each snapshot as it is recorded, so monitors see exactly
    ``Trajectory.snapshots``.  On ConvexityLost/NonFinite from a step or its
    timestep bound the run stops with no further snapshot or monitor call,
    and the partial trajectory is returned with ``aborted=True``.
    """
    curve = state.curve
    kappa_stop = cfg.kappa_stop if cfg.kappa_stop is not None else 1e3 * (1.0 / curve.rc_min)
    area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * curve.area
    t_end, first = cfg.t_end, state.steps
    snaps, dt_min, dt_max, margin = [], math.inf, 0.0, math.inf
    reason, aborted = "t_end", False

    def record(snapshot: FlowState) -> None:
        snaps.append(snapshot)
        for mon in monitors:
            mon(snapshot)

    record(state)

    while t_end is None or state.t < t_end:
        try:
            dt = stable_dt(state, cfg)
            if t_end is not None and state.t + dt > t_end:
                dt = t_end - state.t
            state = step_support(state, cfg, dt)
        except (ConvexityLost, NonFinite) as exc:
            reason, aborted = type(exc).__name__.lower(), True
            break
        curve = state.curve
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        margin = min(margin, curve.rc_min - EPS_CONVEX)

        reason = ("t_end" if t_end is not None and state.t >= t_end
                  else "kappa_stop" if 1.0 / curve.rc_min >= kappa_stop
                  else "area_stop" if curve.area <= area_stop else None)
        if reason is not None or (monitors and state.steps % cfg.monitor_every == 0):
            record(state)
        if reason is not None:
            break

    taken = state.steps - first
    counters = dict(dt_min=dt_min, dt_max=dt_max, convexity_margin=margin) if taken else {}
    return Trajectory(tuple(snaps), reason, aborted, steps=taken, **counters)


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
