"""Time integration of power curvature flow (inward normal speed kappa^p).

``run_flows`` drives the support-function form: dh/dt = -kappa^p on the
fixed Gauss-angle grid, by explicit Euler with an adaptive stability-bounded
step.  It advances a batch of runs on one grid as the rows of (R, n) arrays
(``curves.SupportRows``), and ``run_flow`` is its one-row case.  Each batch
step calls ``stable_dt`` and ``step_support`` once for all rows, and
``step_support`` evaluates h + h'' by one stencil for all rows.  Every row
keeps its own dt, stop test and abort, with the same bits as it would have
alone, and leaves the batch when it stops.  A ``SupportCurve`` is built only
for a snapshot; monitors see every snapshot of their run, its start and stop
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

from .curves import (EPS_CONVEX, CurveGeometry, SupportCurve, SupportRows,
                     _support_curve, geometry_of_markers, support_rows)
from .errors import ConfigInvalid, NonFinite


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
                power: float) -> float | None:
    """sigma * spacing^2 / (2p * kappa_max^power), or None when that is not
    a positive finite number."""
    try:
        dt = cfg.sigma * spacing ** 2 / (2.0 * cfg.p * kappa_max ** power)
    except (OverflowError, ZeroDivisionError):  # kappa_max^power over- or underflows
        return None
    return dt if 0.0 < dt < math.inf else None


def stable_dt(rows: SupportRows, cfgs: Sequence[FlowConfig]) -> list[float | None]:
    """Explicit-scheme stability bound of the support step, per row:
    sigma * dtheta^2 / (2p * max kappa^(p+1)); the flow linearizes to a
    diffusion with coefficient p*kappa^(p+1) in Gauss angle.
    max kappa = 1/min(h + h''), the same bits as max(1/(h + h'')).  Each row
    takes Python-float arithmetic, and None stands for a bound that is not a
    positive finite number."""
    dtheta = rows.dtheta
    return [_bounded_dt(cfg, dtheta, 1.0 / rc_min, cfg.p + 1.0)
            for rc_min, cfg in zip(rows.rc_min, cfgs)]


def marker_dt(g: CurveGeometry, cfg: FlowConfig) -> float:
    """Explicit-scheme stability bound of the marker step:
    sigma * min(ds)^2 / (2p * max kappa^(p-1)); NonFinite when that is not
    a positive finite number."""
    dt = _bounded_dt(cfg, float(np.min(g.ds)), float(np.max(g.kappa)), cfg.p - 1.0)
    if dt is None:
        raise NonFinite("stable timestep is not finite")
    return dt


def step_support(rows: SupportRows, dt: np.ndarray,
                 groups: Sequence[tuple[slice, float]]) -> tuple[SupportRows, dict]:
    """One explicit Euler step h <- h - dt*kappa^p of every row, and
    ``support_rows`` of the result.  ``dt`` is an (R, 1) column; ``groups``
    are the row slices that share an exponent p, so that each kappa^p is a
    power with a scalar exponent (numpy squares ``x ** 2.0``, but not an
    array of exponents that holds 2.0)."""
    if len(groups) == 1:
        h = rows.h - dt * rows.kappa ** groups[0][1]
    else:
        h = np.empty_like(rows.h)
        for sl, p in groups:
            h[sl] = rows.h[sl] - dt[sl] * rows.kappa[sl] ** p
    return support_rows(h)


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


class _Run:
    """The bookkeeping of one run of a batch: its clock, stop thresholds,
    snapshots and counters."""

    def __init__(self, state: FlowState, cfg: FlowConfig, monitors: Sequence[Monitor]):
        curve = state.curve
        self.cfg, self.monitors = cfg, monitors
        self.t, self.steps, self.first = state.t, state.steps, state.steps
        self.t_end = cfg.t_end
        self.kappa_stop = (cfg.kappa_stop if cfg.kappa_stop is not None
                           else 1e3 * (1.0 / curve.rc_min))
        self.area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * curve.area
        self.snaps, self.dt_min, self.dt_max, self.margin = [], math.inf, 0.0, math.inf
        self.reason, self.aborted = "t_end", False
        self.record(state)

    def record(self, snapshot: FlowState) -> None:
        self.snaps.append(snapshot)
        for mon in self.monitors:
            mon(snapshot)

    def abort(self, error: type) -> None:
        self.reason, self.aborted = error.__name__.lower(), True

    def advance(self, rows: SupportRows, i: int, dt: float) -> bool:
        """Take the step that row i of ``rows`` holds; True when the run stops."""
        t, rc_min, area = self.t + dt, rows.rc_min[i], rows.area[i]
        self.t, self.steps = t, self.steps + 1
        self.dt_min, self.dt_max = min(self.dt_min, dt), max(self.dt_max, dt)
        self.margin = min(self.margin, rc_min - EPS_CONVEX)
        t_end = self.t_end
        reason = ("t_end" if t_end is not None and t >= t_end
                  else "kappa_stop" if 1.0 / rc_min >= self.kappa_stop
                  else "area_stop" if area <= self.area_stop else None)
        if reason is not None or (self.monitors and self.steps % self.cfg.monitor_every == 0):
            self.record(FlowState(t, _support_curve(rows, i), self.steps, dt))
        if reason is None:
            return False
        self.reason = reason
        return True

    def trajectory(self) -> Trajectory:
        taken = self.steps - self.first
        counters = (dict(dt_min=self.dt_min, dt_max=self.dt_max,
                         convexity_margin=self.margin) if taken else {})
        return Trajectory(tuple(self.snaps), self.reason, self.aborted, steps=taken, **counters)


def _batch_of(runs: Sequence[_Run]) -> tuple[list, list]:
    """The configs of ``runs`` (ordered by p), and the row slices that share
    an exponent, with that exponent."""
    groups, start = [], 0
    for k in range(1, len(runs) + 1):
        if k == len(runs) or runs[k].cfg.p != runs[start].cfg.p:
            groups.append((slice(start, k), runs[start].cfg.p))
            start = k
    return [run.cfg for run in runs], groups


def run_flows(states: Sequence[FlowState], cfgs: Sequence[FlowConfig],
              monitors: Sequence[Sequence[Monitor]] | None = None) -> list[Trajectory]:
    """Drive each run (``states[k]``, ``cfgs[k]``, ``monitors[k]``) until its
    t_end, kappa_stop or area_stop, all on one grid, stepped together as the
    rows of one batch.

    A run's snapshots are its start state, every ``monitor_every``-th step
    when it has monitors, and its stopping step.  Each monitor is called on
    each snapshot of its run as it is recorded, so monitors see exactly
    ``Trajectory.snapshots``.  On ConvexityLost/NonFinite from a run's step
    or its timestep bound, that run stops with no further snapshot or
    monitor call, and its partial trajectory has ``aborted=True``; the other
    runs go on.  Each run's trajectory has the same bits as it has alone.
    """
    if monitors is None:
        monitors = [()] * len(states)
    if len({s.curve.n for s in states}) > 1:
        raise ConfigInvalid("the runs of one batch must share a grid size")
    runs = [_Run(s, c, m) for s, c, m in zip(states, cfgs, monitors)]
    # Ordered by p, so that each exponent's rows form one slice.
    live = sorted((run for run in runs if run.t_end is None or run.t < run.t_end),
                  key=lambda run: run.cfg.p)
    if live:
        curves = [run.snaps[0].curve for run in live]
        rows = SupportRows(np.stack([c.h for c in curves]),
                           np.stack([c.radius_of_curvature() for c in curves]),
                           np.stack([c.kappa for c in curves]),
                           [c.area for c in curves], [c.rc_min for c in curves])
        batch_cfgs, groups = _batch_of(live)

    while live:
        dts = stable_dt(rows, batch_cfgs)
        for k, run in enumerate(live):
            if dts[k] is None:
                run.abort(NonFinite)
            elif run.t_end is not None and run.t + dts[k] > run.t_end:
                dts[k] = run.t_end - run.t
        if None in dts:
            kept = [k for k, dt in enumerate(dts) if dt is not None]
            live, dts, rows = [live[k] for k in kept], [dts[k] for k in kept], rows.take(kept)
            if not live:
                break
            batch_cfgs, groups = _batch_of(live)
        rows, faults = step_support(rows, np.array(dts).reshape(-1, 1), groups)
        if faults:
            for k, exc in faults.items():
                live[k].abort(type(exc))
            ok = [k for k in range(len(live)) if k not in faults]
            live, dts = [live[k] for k in ok], [dts[k] for k in ok]
        kept = [k for k, run in enumerate(live) if not run.advance(rows, k, dts[k])]
        if faults or len(kept) < len(live):
            live, rows = [live[k] for k in kept], rows.take(kept)
            batch_cfgs, groups = _batch_of(live)
    return [run.trajectory() for run in runs]


def run_flow(state: FlowState, cfg: FlowConfig,
             monitors: Sequence[Monitor] = ()) -> Trajectory:
    """One run of ``run_flows``: drive the flow until t_end, kappa_stop, or
    area_stop, with the same snapshots, monitor calls and abort rule."""
    return run_flows([state], [cfg], [monitors])[0]


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
