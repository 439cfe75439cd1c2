"""Time integration of power curvature flow (inward normal speed kappa^p).

``run_flows`` drives the support-function form: dh/dt = -kappa^p on the
fixed Gauss-angle grid, by explicit Euler with an adaptive stability-bounded
step.  It advances a batch of runs on one grid as the rows of preallocated
arrays (``curves.SupportRows``), and ``run_flow`` is its one-row case.  Each
batch step calls ``stable_dt`` and ``step_support`` once for all rows, and
``step_support`` overwrites the rows in place with a fixed run of ``out=``
ufuncs, h + h'' by one stencil for all rows among them.  Every row keeps its
own dt, stop test and abort, with the same bits as it would have alone, and
stays in the buffers for the whole step: the rows that abort or stop in a
step leave the batch after it, in one ``SupportRows.take``, the batch's only
change of membership.  A ``SupportCurve``, with copies of its row's arrays,
is built only for a snapshot, and each run returns its snapshots in its
``Trajectory``.  No step sums a row's enclosed area: a snapshot sums its
own, and the area stop sums it only when the certified lower bound
pi min(h) min(h + h'') (``curves.AREA_MARGIN``) does not already lie above
the threshold.  The Lagrangian marker form, which
displaces each material point by -dt * kappa^p * nu with no tangential
motion, is the fixed-dt stepper ``step_markers`` that the evolution checks
in ``identities`` drive, with ``marker_dt`` as its stability bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, in_range
from .curves import (EPS_CONVEX, CurveGeometry, SupportCurve, SupportRows,
                     _support_curve, geometry_of_markers, settle_rows, stack_rows)
from .errors import ConfigInvalid, NonFinite


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run."""

    p: float
    sigma: float = ExperimentConfig.sigma   # timestep safety factor
    kappa_stop: float | None = None   # default: 1e3 * initial max curvature
    area_stop: float | None = None    # default: 1e-4 * initial area
    t_end: float | None = None
    monitor_every: int = ExperimentConfig.monitor_every

    def __post_init__(self):
        for name in ("p", "sigma", "monitor_every"):
            in_range(name, getattr(self, name))
        for name in ("kappa_stop", "area_stop"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigInvalid(f"{name} must be positive")
        if self.t_end is not None and not self.t_end >= 0.0:
            raise ConfigInvalid("t_end must be nonnegative")


@dataclass(frozen=True)
class FlowState:
    """One snapshot of a run: its time, curve, step count and last dt."""

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


def _bounded_dt(scale: float, two_p: float, kappa_max: float,
                power: float) -> float | None:
    """scale / (two_p * kappa_max^power), with scale = sigma * spacing^2
    and two_p = 2p, or None when that is not a positive finite number."""
    try:
        dt = scale / (two_p * kappa_max ** power)
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
    sq = rows.dtheta ** 2
    return [_bounded_dt(cfg.sigma * sq, 2.0 * cfg.p, 1.0 / rc_min, cfg.p + 1.0)
            for rc_min, cfg in zip(rows.rc_min, cfgs)]


def marker_dt(g: CurveGeometry, cfg: FlowConfig) -> float:
    """Explicit-scheme stability bound of the marker step:
    sigma * min(ds)^2 / (2p * max kappa^(p-1)); NonFinite when that is not
    a positive finite number."""
    dt = _bounded_dt(cfg.sigma * float(np.min(g.ds)) ** 2, 2.0 * cfg.p,
                     float(np.max(g.kappa)), cfg.p - 1.0)
    if dt is None:
        raise NonFinite("stable timestep is not finite")
    return dt


def step_support(rows: SupportRows, dt: np.ndarray,
                 groups: Sequence[tuple[slice, float]]) -> dict:
    """One explicit Euler step h <- h - dt*kappa^p of every row, in place:
    the buffers of ``rows`` receive the new h and its ``settle_rows``, whose
    {row: error} faults are returned; a failing row stays in the buffers.
    ``dt`` is an (R, 1) column; ``groups`` are the row slices that share an
    exponent p, so that each kappa^p is a power with a scalar exponent
    (numpy squares ``x ** 2.0``, but not an array of exponents that holds
    2.0), taken in place by ``**=``, which computes what ``**`` does.
    The step runs over whole rows of the buffers: kappa's ghost columns hold
    0, so h's keep their values until the stencil refreshes them."""
    kg = rows.kg
    for sl, p in groups:
        k = kg[sl]
        k **= p
    np.multiply(kg, dt, out=kg)
    np.subtract(rows.hg, kg, out=rows.hg)
    return settle_rows(rows)


def step_markers(g: CurveGeometry, cfg: FlowConfig, dt: float,
                 speed_sign: float = -1.0) -> CurveGeometry:
    """One explicit Euler step x <- x - dt*kappa^p*nu (purely normal motion);
    ``speed_sign`` = +1 moves the markers outward instead.

    No remeshing happens here; material identity of the markers is kept.
    """
    pts_new = g.x + (speed_sign * dt) * (g.kappa ** cfg.p)[:, None] * g.normal
    return geometry_of_markers(pts_new)  # re-validates finiteness and convexity


class _Run:
    """The bookkeeping of one run of a batch, from ``curve`` at t = 0: its
    clock, stop thresholds, snapshots and counters."""

    def __init__(self, curve: SupportCurve, cfg: FlowConfig):
        self.cfg = cfg
        self.t, self.steps, self.snaps = 0.0, 0, [FlowState(0.0, curve)]
        self.t_end = cfg.t_end
        self.kappa_stop = (cfg.kappa_stop if cfg.kappa_stop is not None
                           else 1e3 * (1.0 / curve.rc_min))
        self.area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * curve.area
        self.dt_min, self.dt_max, self.margin = math.inf, 0.0, math.inf
        self.reason, self.aborted = "t_end", False

    def abort(self, error: type) -> None:
        self.reason, self.aborted = error.__name__.lower(), True

    def advance(self, rows: SupportRows, i: int, dt: float) -> bool:
        """Take the step that row i of ``rows`` holds; True when the run stops."""
        t, rc_min = self.t + dt, rows.rc_min[i]
        self.t, self.steps = t, self.steps + 1
        # comparisons, not min/max calls: the same values, for a fraction of the cost
        if dt < self.dt_min:
            self.dt_min = dt
        if dt > self.dt_max:
            self.dt_max = dt
        margin = rc_min - EPS_CONVEX
        if margin < self.margin:
            self.margin = margin
        t_end = self.t_end
        reason = ("t_end" if t_end is not None and t >= t_end
                  else "kappa_stop" if 1.0 / rc_min >= self.kappa_stop
                  else "area_stop" if rows.area_at_most(i, self.area_stop) else None)
        if reason is not None or self.steps % self.cfg.monitor_every == 0:
            self.snaps.append(FlowState(t, _support_curve(rows, i), self.steps, dt))
        if reason is None:
            return False
        self.reason = reason
        return True

    def trajectory(self) -> Trajectory:
        counters = (dict(dt_min=self.dt_min, dt_max=self.dt_max,
                         convexity_margin=self.margin) if self.steps else {})
        return Trajectory(tuple(self.snaps), self.reason, self.aborted, self.steps, **counters)


def _batch_of(runs: Sequence[_Run]) -> tuple[list, list]:
    """The configs of ``runs`` (ordered by p), and the row slices that share
    an exponent, with that exponent."""
    groups, start = [], 0
    for k in range(1, len(runs) + 1):
        if k == len(runs) or runs[k].cfg.p != runs[start].cfg.p:
            groups.append((slice(start, k), runs[start].cfg.p))
            start = k
    return [run.cfg for run in runs], groups


def run_flows(curves: Sequence[SupportCurve],
              cfgs: Sequence[FlowConfig]) -> list[Trajectory]:
    """Drive each run, from ``curves[k]`` at t = 0 by ``cfgs[k]``, until its
    t_end, kappa_stop or area_stop, all on one grid, stepped together as the
    rows of one batch, and return the trajectory of each.

    A run's snapshots, in ``Trajectory.snapshots``, are its start curve
    itself at t = 0, every ``monitor_every``-th step and its stopping step.  On
    ConvexityLost/NonFinite from a run's step or its timestep bound, that
    run stops with no further snapshot, and its partial trajectory has
    ``aborted=True``; the other runs go on.  Each run's trajectory has the
    same bits as it has alone.

    A run without a timestep bound is stepped with dt = 0 and kappa = 0, so
    its row stays as it is.  Every row stays in the buffers for the whole
    step, and the runs that aborted or stopped leave together after it, by
    one ``SupportRows.take``.
    """
    if len({c.n for c in curves}) > 1:
        raise ConfigInvalid("the runs of one batch must share a grid size")
    runs = [_Run(c, cfg) for c, cfg in zip(curves, cfgs)]
    # Ordered by p, so that each exponent's rows form one slice.
    live = sorted((run for run in runs if run.t_end is None or run.t_end > 0.0),
                  key=lambda run: run.cfg.p)
    if live:
        rows = stack_rows([run.snaps[0].curve for run in live])
        batch_cfgs, groups = _batch_of(live)

    while live:
        dts = stable_dt(rows, batch_cfgs)
        for k, run in enumerate(live):
            if dts[k] is None:
                # a zero step: 0 ** p cannot overflow, and h keeps its values
                run.abort(NonFinite)
                dts[k] = 0.0
                rows.kappa[k] = 0.0
            elif run.t_end is not None and run.t + dts[k] > run.t_end:
                dts[k] = run.t_end - run.t
        for k, exc in step_support(rows, np.array(dts).reshape(-1, 1), groups).items():
            live[k].abort(type(exc))
        kept = [k for k, run in enumerate(live)
                if not run.aborted and not run.advance(rows, k, dts[k])]
        if len(kept) < len(live):
            live, rows = [live[k] for k in kept], rows.take(kept)
            batch_cfgs, groups = _batch_of(live)
    return [run.trajectory() for run in runs]


def run_flow(curve: SupportCurve, cfg: FlowConfig) -> Trajectory:
    """One run of ``run_flows``: drive the flow from ``curve`` until t_end,
    kappa_stop, or area_stop, with the same snapshots and abort rule."""
    return run_flows([curve], [cfg])[0]


def circle_extinction_time(R0: float, p: float) -> float:
    """Extinction time of a circle: R0^(p+1)/(p+1), from R' = -R^-p;
    ConfigInvalid when R0^(p+1) lies past the float range."""
    if not R0 > 0.0:
        raise ConfigInvalid("R0 must be positive")
    in_range("p", p)
    try:
        return R0 ** (p + 1.0) / (p + 1.0)
    except OverflowError:
        raise ConfigInvalid(f"the extinction time R0^(p+1)/(p+1) of R0 = {R0!r} "
                            f"and p = {p!r} exceeds the float range") from None


def estimated_extinction_time(c: SupportCurve, p: float) -> float:
    """Lower bound on extinction via the inscribed circle min h."""
    return circle_extinction_time(float(np.min(c.h)), p)
