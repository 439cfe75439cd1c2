"""Time integration: stability bounds, stepping, stopping, invariants."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcflow.curves
import pcflow.flow
from pcflow import (
    ConfigInvalid,
    ConvexityLost,
    FlowConfig,
    FlowState,
    NonFinite,
    SupportCurve,
    Trajectory,
    circle_extinction_time,
    construct_curve,
    embed_support,
    estimated_extinction_time,
    geometry_of_markers,
    run_flow,
    run_flows,
    stable_dt,
    step_markers,
    step_support,
)
from pcflow.curves import AREA_MARGIN, EPS_CONVEX, SupportRows, settle_rows
from pcflow.flow import marker_dt
from pcflow.identities import marker_window, theorem_property_run
import reference
from reference import diff2_periodic
from test_curves import convex_modes


def rows_of(*curves):
    """The ``SupportRows`` batch of ``curves``, one per row."""
    rows = SupportRows.of(np.stack([c.h for c in curves]))
    assert not settle_rows(rows)
    return rows


def solo_dt(curve, cfg):
    """stable_dt of one curve."""
    return stable_dt(rows_of(curve), [cfg])[0]


def count_area_sums(monkeypatch):
    """Make ``SupportRows.area`` record the row of each call; returns the record."""
    sums, area = [], SupportRows.area
    monkeypatch.setattr(SupportRows, "area", lambda rows, i: sums.append(i) or area(rows, i))
    return sums


def circle_markers(R, m=64):
    th = np.linspace(0, 2 * np.pi, m + 1)[:-1]
    return geometry_of_markers(R * np.column_stack([np.cos(th), np.sin(th)]))


class TestFlowConfig:
    def test_p_must_exceed_one(self):
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=1.0)

    def test_sigma_range(self):
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, sigma=0.0)
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, sigma=1.0)

    def test_negative_t_end_rejected(self):
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, t_end=-1.0)

    def test_nan_t_end_rejected(self):
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, t_end=float("nan"))

    def test_nonpositive_stops_rejected(self):
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, kappa_stop=0.0)
        with pytest.raises(ConfigInvalid):
            FlowConfig(p=2.0, area_stop=-1.0)


class TestStableDt:
    def test_unit_circle_value(self):
        # sigma dtheta^2 / (2 p kappa^(p+1)) = 0.4 (2 pi/256)^2 / 4
        c = construct_curve({"circle": {"R": 1.0}}, 256)
        dt = solo_dt(c, FlowConfig(p=2.0, sigma=0.4))
        assert abs(dt - 0.4 * (2 * np.pi / 256) ** 2 / 4.0) < 1e-18

    def test_rows_get_their_own_bound(self):
        # one bound per row, from that row's config; None where it overflows
        curves = [construct_curve({"circle": {"R": r}}, 64) for r in (1.0, 0.5, 0.5)]
        cfgs = [FlowConfig(p=2.0), FlowConfig(p=3.0, sigma=0.2), FlowConfig(p=1100.0)]
        dts = stable_dt(rows_of(*curves), cfgs)
        assert dts[:2] == [solo_dt(c, cfg) for c, cfg in zip(curves[:2], cfgs[:2])]
        assert dts[2] is None

    def test_marker_bound_scales_with_spacing(self):
        cfg = FlowConfig(p=2.0)
        dt1 = marker_dt(circle_markers(1.0, 64), cfg)
        dt2 = marker_dt(circle_markers(1.0, 128), cfg)
        assert 3.0 < dt1 / dt2 < 5.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
    @pytest.mark.parametrize("spec", [{"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.4}},
                                      {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.1]]}}])
    def test_marker_bound_value(self, spec, p):
        # sigma min(ds)^2 / (2p max(kappa)^(p-1)), bit for bit
        g = geometry_of_markers(embed_support(construct_curve(spec, 128)).x)
        cfg = FlowConfig(p=p, sigma=0.3)
        want = 0.3 * float(np.min(g.ds)) ** 2 / (2.0 * p * float(np.max(g.kappa)) ** (p - 1.0))
        assert marker_dt(g, cfg) == want


class TestSteps:
    def test_support_step_circle_uniform(self):
        c = construct_curve({"circle": {"R": 2.0}}, 64)
        rows = rows_of(c)
        assert not step_support(rows, np.array([[1e-4]]), [(slice(0, 1), 2.0)])
        assert np.allclose(rows.h[0], 2.0 - 1e-4 * 2.0 ** -2.0)

    def test_marker_step_is_purely_normal(self):
        # on a circle the markers move along rays through the origin
        mc = circle_markers(1.5, 64)
        g1 = step_markers(mc, FlowConfig(p=2.0), dt=1e-4)
        ang0 = np.arctan2(mc.x[:, 1], mc.x[:, 0])
        ang1 = np.arctan2(g1.x[:, 1], g1.x[:, 0])
        assert np.max(np.abs(ang1 - ang0)) < 1e-12
        r1 = np.hypot(*g1.x.T)
        assert np.allclose(r1, r1[0])
        assert r1[0] < 1.5

    def test_huge_step_loses_convexity(self):
        # the failing row stays in the buffers; the other row keeps its step
        ellipse = construct_curve({"ellipse": {"a": 1.5, "b": 1.0}}, 64)
        circle = construct_curve({"circle": {"R": 2.0}}, 64)
        rows = rows_of(circle, ellipse)
        faults = step_support(rows, np.array([[1e-4], [10.0]]), [(slice(0, 2), 2.0)])
        assert list(faults) == [1] and isinstance(faults[1], ConvexityLost)
        assert rows.h.shape == (2, 64)
        assert np.allclose(rows.h[0], 2.0 - 1e-4 * 2.0 ** -2.0)

    @pytest.mark.parametrize("fail, error", [
        (lambda h: -h, ConvexityLost),        # h + h'' = 0: 1/rc would divide by 0
        (lambda h: np.nan * h, NonFinite),    # h + h'' is NaN
    ], ids=["zero", "nan"])
    def test_settle_reports_a_failing_row_and_keeps_it(self, monkeypatch, fail, error):
        # the middle row fails; all three rows stay in the buffers, no 1/rc
        # warns (RuntimeWarnings fail the suite), and rows 0 and 2 get the
        # bits of settling each alone
        curves = [construct_curve(spec, 64) for spec in (
            {"ellipse": {"a": 1.3, "b": 1.0}}, {"circle": {"R": 1.0}},
            {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}})]
        alone = {0: rows_of(curves[0]), 2: rows_of(curves[2])}
        diff2 = pcflow.curves.diff2_periodic

        def failing(f, dx, out, work):
            out = diff2(f, dx, out, work)
            out[1] = fail(f[1])
            return out

        monkeypatch.setattr(pcflow.curves, "diff2_periodic", failing)
        rows = SupportRows.of(np.stack([c.h for c in curves]))
        faults = settle_rows(rows)
        assert list(faults) == [1] and type(faults[1]) is error
        assert rows.hg.shape == rows.rcg.shape == rows.kg.shape == (3, 68)
        assert rows.h_min == float(np.min(rows.h))
        for i, solo in alone.items():
            assert rows.rc[i].tobytes() == solo.rc[0].tobytes()
            assert rows.kappa[i].tobytes() == solo.kappa[0].tobytes()
            assert rows.rc_min[i] == solo.rc_min[0]


class TestReferenceStep:
    """The support step and the stored geometry against the plain formulas,
    bit for bit: rc = h + h'', kappa = 1/rc, area = 1/2 sum(h rc) dtheta,
    dt = sigma dtheta^2 / (2p max(kappa)^(p+1)), h <- h - dt kappa^p."""

    @settings(max_examples=20, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256]),
           p=st.floats(min_value=1.1, max_value=4.0))
    def test_twenty_steps_match_reference(self, modes, n, p):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        curve = construct_curve(spec, n)
        cfg = FlowConfig(p=p)
        dtheta = 2.0 * np.pi / n
        h = np.array(curve.h)
        rc = h + diff2_periodic(h, dtheta)
        assert np.array_equal(curve.radius_of_curvature(), rc)
        assert np.array_equal(curve.kappa, 1.0 / rc)
        assert curve.area == 0.5 * float(np.sum(h * rc)) * dtheta
        rows = rows_of(curve)
        for _ in range(20):
            rc = h + diff2_periodic(h, dtheta)
            kappa = 1.0 / rc
            assert np.array_equal(rows.rc[0], rc)
            assert np.array_equal(rows.kappa[0], kappa)
            assert rows.area(0) == 0.5 * float(np.sum(h * rc)) * dtheta
            assert rows.rc_min[0] == float(np.min(rc))
            dt = cfg.sigma * dtheta ** 2 / (2.0 * p * float(np.max(kappa)) ** (p + 1.0))
            h = h - dt * kappa ** p
            dts = stable_dt(rows, [cfg])
            assert dts == [dt]
            assert not step_support(rows, np.array([dts]), [(slice(0, 1), p)])
            assert np.array_equal(rows.h[0], h)


class TestAreaBound:
    """The certified lower bound pi min(h) min(h + h'') (1 - AREA_MARGIN) on
    a row's computed area, which lets the area stop skip the sum."""

    @pytest.mark.parametrize("n", [64, 1024, 65536])
    @pytest.mark.parametrize("R", [1e-4, 0.37, 1.0, 3.0, 1e150])
    def test_circle_area_is_above_the_bound(self, n, R):
        # on a circle every term h_k rc_k is about the smallest one, where
        # the bound is tightest: within about 1e-15 of the area
        rows = rows_of(construct_curve({"circle": {"R": R}}, n))
        rows.h_min = float(np.min(rows.h))
        bound = math.pi * rows.h_min * rows.rc_min[0] * (1.0 - AREA_MARGIN)
        assert bound < rows.area(0) < bound * (1.0 + 2.0 * AREA_MARGIN)
        assert not rows.area_at_most(0, bound)

    def test_undecided_and_unknown_rows_take_the_sum(self, monkeypatch):
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        rows = rows_of(curve)
        step_support(rows, np.array([[1e-5]]), [(slice(0, 1), 2.0)])
        sums = count_area_sums(monkeypatch)
        a = 0.5 * float(np.sum(rows.h[0] * rows.rc[0])) * rows.dtheta
        assert rows.h_min == float(np.min(rows.h))
        assert not rows.area_at_most(0, 0.5 * a) and sums == []   # the bound decides
        assert rows.area_at_most(0, a) and not rows.area_at_most(0, 0.99 * a)
        assert len(sums) == 2
        taken = rows.take([0])            # a row after a take: min h unknown
        assert math.isnan(taken.h_min)
        assert not taken.area_at_most(0, 0.5 * a) and len(sums) == 3


class TestRunFlow:
    def test_t_end_reached_exactly(self):
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        traj = run_flow(c, FlowConfig(p=2.0, t_end=0.01))
        assert traj.terminal_reason == "t_end"
        assert not traj.aborted
        assert traj.snapshots[-1].t == pytest.approx(0.01, abs=1e-15)

    def test_kappa_stop_near_extinction(self):
        c = construct_curve({"circle": {"R": 0.5}}, 64)
        cfg = FlowConfig(p=2.0, kappa_stop=20.0)
        traj = run_flow(c, cfg)
        assert traj.terminal_reason == "kappa_stop"
        assert float(np.max(1.0 / traj.snapshots[-1].curve.radius_of_curvature())) >= 20.0

    def test_area_stop(self):
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        cfg = FlowConfig(p=2.0, area_stop=0.9 * np.pi)
        traj = run_flow(c, cfg)
        assert traj.terminal_reason == "area_stop"
        assert traj.snapshots[-1].curve.area <= 0.9 * np.pi

    def test_area_strictly_decreasing(self):
        c = construct_curve({"ellipse": {"a": 1.5, "b": 1.0}}, 128)
        cfg = FlowConfig(p=2.0, t_end=0.1, monitor_every=20)
        traj = run_flow(c, cfg)
        areas = [s.curve.area for s in traj.snapshots]
        assert all(a1 < a0 for a0, a1 in zip(areas, areas[1:]))

    def test_support_contained_in_initial(self):
        # inward motion: h(theta, t) <= h(theta, 0) pointwise
        c = construct_curve({"ellipse": {"a": 1.4, "b": 1.0}}, 128)
        traj = run_flow(c, FlowConfig(p=2.0, t_end=0.05))
        assert np.all(traj.snapshots[-1].curve.h <= c.h + 1e-12)

    def test_circles_stay_circles(self):
        c = construct_curve({"circle": {"R": 1.0}}, 128)
        traj = run_flow(c, FlowConfig(p=3.0, t_end=0.05))
        h = traj.snapshots[-1].curve.h
        assert float(np.max(h) - np.min(h)) == 0.0

    def test_snapshot_cadence(self):
        # the start, every 10th step, and the stopping step (not a multiple of 10)
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        cfg = FlowConfig(p=2.0, t_end=0.02, monitor_every=10)
        traj = run_flow(c, cfg)
        assert traj.steps % 10 != 0
        assert [s.steps for s in traj.snapshots] == [*range(0, traj.steps, 10), traj.steps]


class RefCurve(NamedTuple):
    """A reference snapshot's curve: its support values only."""

    h: np.ndarray


def run_flow_reference(state, cfg, monitors=()):
    """The flow driver as it was before the run counters and the batch, kept
    as the reference.  It steps on the plain formulas that
    ``TestReferenceStep`` pins: dt = sigma dtheta^2 / (2p max(kappa)^(p+1)),
    h <- h - dt kappa^p, rc = h + h'' by ``reference.diff2_periodic``,
    kappa = 1/rc and area = 1/2 sum(h rc) dtheta.  A step fails with the
    checks of a ``SupportCurve``, in their order, and a timestep bound that
    is not a positive finite number aborts as nonfinite.  Its stop test takes
    max(kappa) from the kappa array."""
    h, kappa, area = state.curve.h, state.curve.kappa, state.curve.area
    dtheta, p, t_end = state.curve.dtheta, cfg.p, cfg.t_end
    kappa_stop = cfg.kappa_stop if cfg.kappa_stop is not None else 1e3 * float(np.max(kappa))
    area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * area

    snaps = [state]
    reason = None
    aborted = False

    if t_end is not None and state.t >= t_end:
        return Trajectory(tuple(snaps), "t_end")

    while True:
        try:
            dt = cfg.sigma * dtheta ** 2 / (2.0 * p * float(np.max(kappa)) ** (p + 1.0))
        except OverflowError:
            dt = math.inf
        if not 0.0 < dt < math.inf:
            reason, aborted = "nonfinite", True
            break
        if t_end is not None and state.t + dt > t_end:
            dt = t_end - state.t
        h = h - dt * kappa ** p
        rc = h + reference.diff2_periodic(h, dtheta)
        rc_min = float(np.min(rc))
        reason = ("nonfinite" if not np.all(np.isfinite(h))
                  else "convexitylost" if np.any(h <= 0.0)
                  else "nonfinite" if math.isnan(rc_min)
                  else "convexitylost" if rc_min <= EPS_CONVEX else None)
        if reason is not None:
            aborted = True
            break
        kappa = 1.0 / rc
        area = 0.5 * float(np.sum(h * rc)) * dtheta
        state = FlowState(t=state.t + dt, curve=RefCurve(h), steps=state.steps + 1,
                          last_dt=dt)

        monitored = False
        if monitors and state.steps % cfg.monitor_every == 0:
            snaps.append(state)
            monitored = True
            for mon in monitors:
                mon(state)

        if t_end is not None and state.t >= t_end:
            reason = "t_end"
        elif float(np.max(kappa)) >= kappa_stop:
            reason = "kappa_stop"
        elif area <= area_stop:
            reason = "area_stop"
        if reason is not None:
            if not monitored:
                snaps.append(state)
            break

    if not aborted and snaps[-1].t != state.t:
        snaps.append(state)
    return Trajectory(tuple(snaps), reason, aborted)


def _slice(state):
    """What a snapshot holds, with the curve as exact bytes."""
    return state.t, state.steps, state.last_dt, state.curve.h.tobytes()


def assert_same_run(curve, cfg):
    """run_flow and the reference, whose monitor switches its snapshots on,
    agree bit for bit from ``curve``; returns the run."""
    ref = run_flow_reference(FlowState(t=0.0, curve=curve), cfg, monitors=[lambda s: None])
    new = run_flow(curve, cfg)
    assert (new.terminal_reason, new.aborted) == (ref.terminal_reason, ref.aborted)
    assert [_slice(s) for s in new.snapshots] == [_slice(s) for s in ref.snapshots]
    return new


# An ellipse or a convex Fourier curve on the support grid.
support_shapes = st.one_of(
    st.builds(lambda a, phase: {"ellipse": {"a": a, "b": 1.0, "phase": phase}},
              st.floats(min_value=1.0, max_value=1.5),
              st.floats(min_value=0.0, max_value=2 * np.pi)),
    convex_modes.map(lambda modes: {"fourier": {"R": 1.0,
                                                "modes": [list(m) for m in modes]}}),
)


def stop_config(curve, p, every, stop):
    """A run of about 120 steps, or half that when ``stop`` is kappa_stop or
    area_stop and the initial rates of change hold; t_end also bounds those."""
    dtheta, kappa = curve.dtheta, curve.kappa
    t_end = 120.37 * solo_dt(curve, FlowConfig(p=p))
    if stop == "t_end":
        return FlowConfig(p=p, t_end=t_end, monitor_every=every)
    if stop == "kappa_stop":
        k0 = float(np.max(kappa))
        return FlowConfig(p=p, t_end=t_end, monitor_every=every,
                          kappa_stop=k0 * (1.0 + 0.5 * k0 ** (p + 1.0) * t_end))
    # dA/dt = -sum(kappa^(p-1)) dtheta
    rate = float(np.sum(kappa ** (p - 1.0))) * dtheta
    return FlowConfig(p=p, t_end=t_end, monitor_every=every,
                      area_stop=curve.area - 0.5 * rate * t_end)


class TestRunFlowReference:
    """run_flow against the per-step reference driver: the same stop and
    the same snapshots, bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(spec=support_shapes, n=st.sampled_from([64, 128, 256]),
           p=st.floats(min_value=1.1, max_value=4.0),
           every=st.sampled_from([1, 7, 50]),
           stop=st.sampled_from(["t_end", "kappa_stop", "area_stop"]))
    def test_matches_reference(self, spec, n, p, every, stop):
        curve = construct_curve(spec, n)
        assert_same_run(curve, stop_config(curve, p, every, stop))

    @pytest.mark.parametrize("stop", ["t_end", "kappa_stop", "area_stop"])
    def test_each_stop_reason(self, stop):
        # a near circle, whose largest curvature grows from the start
        curve = construct_curve({"fourier": {"R": 1.0, "modes": [[2, 0.001, 0.2]]}}, 128)
        traj = assert_same_run(curve,
                               stop_config(curve, 2.5, 7, stop))
        assert traj.terminal_reason == stop
        if stop == "t_end":
            assert traj.snapshots[-1].last_dt < traj.dt_max  # the clamped step

    @pytest.mark.parametrize("spec", [{"circle": {"R": 1.0}},
                                      {"ellipse": {"a": 1.06, "b": 1.0, "phase": 0.3}},
                                      {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}])
    def test_area_stop_at_the_initial_area(self, spec):
        # the area falls below its start on the first step, so that step
        # needs the sum: no bound lies above the area it stops at
        curve = construct_curve(spec, 128)
        traj = assert_same_run(curve,
                               FlowConfig(p=2.0, area_stop=curve.area, monitor_every=7))
        assert (traj.terminal_reason, traj.steps) == ("area_stop", 1)

    @pytest.mark.parametrize("spec, k", [({"circle": {"R": 1.0}}, 37),
                                         ({"ellipse": {"a": 1.06, "b": 1.0}}, 58),
                                         ({"ellipse": {"a": 1.3, "b": 1.0, "phase": 1.1}}, 91)])
    def test_area_stop_at_a_reference_area(self, spec, k):
        # the stop is the reference's own area after step k: the bound lies
        # below it there, and the run must stop at step k exactly
        curve = construct_curve(spec, 128)
        dtheta = curve.dtheta
        t_end = 150.0 * solo_dt(curve, FlowConfig(p=2.0))
        ref = run_flow_reference(FlowState(t=0.0, curve=curve),
                                 FlowConfig(p=2.0, t_end=t_end, monitor_every=1),
                                 monitors=[lambda s: None])
        h = ref.snapshots[k].curve.h
        assert ref.snapshots[k].steps == k
        area_k = 0.5 * float(np.sum(h * (h + diff2_periodic(h, dtheta)))) * dtheta
        cfg = FlowConfig(p=2.0, t_end=t_end, area_stop=area_k, monitor_every=7)
        rc_min = float(np.min(h + diff2_periodic(h, dtheta)))
        assert math.pi * float(np.min(h)) * rc_min * (1.0 - AREA_MARGIN) <= area_k
        traj = assert_same_run(curve, cfg)
        assert (traj.terminal_reason, traj.steps) == ("area_stop", k)
        assert traj.snapshots[-1].curve.area == area_k

    def test_zero_horizon(self):
        curve = construct_curve({"circle": {"R": 1.0}}, 64)
        traj = assert_same_run(curve, FlowConfig(p=2.0, t_end=0.0))
        assert (traj.steps, traj.dt_min, traj.dt_max) == (0, None, None)

    def _stencil_fails(self, monkeypatch, k, value):
        """The program's diff2_periodic and the reference driver's each return
        ``value`` everywhere on their k-th call, so each driver meets it on
        its own k-th step."""
        def failing(diff2):
            calls = []

            def stencil(f, *args):
                calls.append(1)
                return np.full_like(f, value) if len(calls) == k else diff2(f, *args)
            return stencil

        for module in (pcflow.curves, reference):
            monkeypatch.setattr(module, "diff2_periodic", failing(module.diff2_periodic))

    def test_aborted_run(self, monkeypatch):
        # h + h'' = h - 10 < 0 on the 40th step: ConvexityLost inside the step
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        self._stencil_fails(monkeypatch, 40, -10.0)
        traj = assert_same_run(curve,
                               FlowConfig(p=2.0, t_end=0.01, monitor_every=7))
        assert (traj.terminal_reason, traj.aborted) == ("convexitylost", True)
        assert traj.steps == 39

    def test_nan_stencil_aborts_the_step(self, monkeypatch):
        # a NaN h + h'' on the 40th step is NonFinite inside the step
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        self._stencil_fails(monkeypatch, 40, np.nan)
        cfg = FlowConfig(p=2.0, t_end=0.01, monitor_every=7)
        traj = assert_same_run(curve, cfg)
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 39)
        assert [s.steps for s in traj.snapshots] == [0, 7, 14, 21, 28, 35]

    def test_nonfinite_timestep_aborts(self, monkeypatch):
        # the 40th timestep bound is not finite: run_flow keeps the 39 steps taken
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        bound, calls = pcflow.flow.stable_dt, []

        def failing(rows, cfgs):
            calls.append(1)
            dts = bound(rows, cfgs)
            return [None] * len(dts) if len(calls) == 40 else dts

        monkeypatch.setattr(pcflow.flow, "stable_dt", failing)
        traj = run_flow(curve,
                        FlowConfig(p=2.0, t_end=0.01, monitor_every=7))
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 39)
        assert [s.steps for s in traj.snapshots] == [0, 7, 14, 21, 28, 35]

    def test_underflowing_curvature_power_aborts(self):
        # kappa_max ** (p + 1) = 1e-410 underflows to 0: the bound would be
        # infinite, and the run aborts instead of dividing by zero
        curve = construct_curve({"circle": {"R": 1e10}}, 64)
        traj = run_flow(curve, FlowConfig(p=40.0, t_end=1.0))
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 0)

    def test_overflowing_timestep_aborts(self):
        # kappa_max ** (p + 1) = 2 ** 1101 is past the float range
        curve = construct_curve({"circle": {"R": 0.5}}, 64)
        traj = run_flow(curve, FlowConfig(p=1100.0, t_end=0.01))
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 0)


class TestStepWork:
    """Structural guard on the batch loop: no timing, only counts.  Each batch
    step calls ``stable_dt``, ``step_support`` and the stencil once for all
    rows, copies no h through ``SupportCurve(h)``, and builds a
    ``SupportCurve`` only for a snapshot."""

    def count_calls(self, monkeypatch):
        calls = {"__post_init__": 0, "diff2_periodic": 0, "stable_dt": 0,
                 "step_support": 0, "_support_curve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SupportCurve, "__post_init__",
                            counting("__post_init__", SupportCurve.__post_init__))
        for module, name in ((pcflow.curves, "diff2_periodic"), (pcflow.flow, "stable_dt"),
                             (pcflow.flow, "step_support"), (pcflow.flow, "_support_curve")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return calls

    def test_support_step_takes_one_stencil_and_no_copy(self, monkeypatch):
        curve = construct_curve({"ellipse": {"a": 1.2, "b": 1.0}}, 128)
        calls = self.count_calls(monkeypatch)
        traj = run_flow(curve,
                        FlowConfig(p=2.0, t_end=0.05, monitor_every=50))
        steps = traj.snapshots[-1].steps
        assert steps > 300
        assert calls["__post_init__"] == 0
        # one call of each per step, the step count that per-layer timings use
        assert calls["diff2_periodic"] == calls["stable_dt"] == calls["step_support"] == steps
        assert calls["_support_curve"] == len(traj.snapshots) - 1

    def test_batch_step_takes_one_call_of_each(self, monkeypatch):
        specs = [{"ellipse": {"a": 1.2, "b": 1.0}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}, {"circle": {"R": 1.0}}]
        curves = [construct_curve(spec, 128) for spec in specs]
        cfgs = [FlowConfig(p=2.0, t_end=0.05, monitor_every=50),
                FlowConfig(p=3.0, t_end=0.03, monitor_every=7), FlowConfig(p=2.0, t_end=0.02)]
        calls = self.count_calls(monkeypatch)
        trajs = run_flows(curves, cfgs)
        batch_steps = max(traj.steps for traj in trajs)
        assert batch_steps > 300 and len({traj.steps for traj in trajs}) == 3
        assert calls["__post_init__"] == 0
        assert (calls["diff2_periodic"] == calls["stable_dt"] == calls["step_support"]
                == batch_steps)
        assert calls["_support_curve"] == sum(len(traj.snapshots) - 1 for traj in trajs)


    def test_area_is_summed_once_per_snapshot(self, monkeypatch):
        # a theorem-shaped run: the bound decides every step's area stop, and
        # only the snapshots, the start curve's among them, sum the area
        calls = self.count_calls(monkeypatch)
        sums = count_area_sums(monkeypatch)
        result = theorem_property_run({"ellipse": {"a": 1.06, "b": 1.0}}, 2.0, n=512,
                                      horizon_frac=0.04, monitor_every=50)
        assert calls["step_support"] > 1000
        assert len(sums) == len(result.samples) == calls["_support_curve"] + 1


def _full(state):
    """What a snapshot holds, with every array as exact bytes."""
    c = state.curve
    return (*_slice(state), c.kappa.tobytes(), c.radius_of_curvature().tobytes(),
            c.area, c.rc_min)


def batch_and_solo(curves, cfgs):
    """The trajectories of run_flows of all the runs, and of run_flow of each
    alone."""
    return run_flows(curves, cfgs), [run_flow(curve, cfg) for curve, cfg in zip(curves, cfgs)]


def assert_runs_match(batch, solo):
    """Each trajectory of ``batch`` matches the one of ``solo`` beside it bit
    for bit: snapshots, stop reason, abort and counters."""
    for b, s in zip(batch, solo):
        assert (b.terminal_reason, b.aborted, b.steps) == (s.terminal_reason, s.aborted, s.steps)
        assert (b.dt_min, b.dt_max, b.convexity_margin) == (s.dt_min, s.dt_max,
                                                            s.convexity_margin)
        assert [_full(x) for x in b.snapshots] == [_full(x) for x in s.snapshots]


def assert_batch_matches_solo(curves, cfgs):
    """Each run of the batch matches its solo run bit for bit
    (``assert_runs_match``).  Returns the batch's trajectories."""
    batch, solo = batch_and_solo(curves, cfgs)
    assert_runs_match(batch, solo)
    return batch


STOPS = ["t_end", "kappa_stop", "area_stop"]
run_draws = st.tuples(support_shapes,
                      st.one_of(st.sampled_from([1.5, 2.0, 3.0]),
                                st.floats(min_value=1.1, max_value=4.0)),
                      st.sampled_from([1, 7, 50]), st.sampled_from(STOPS))


class TestBatchAgainstSolo:
    """run_flows steps its runs as the rows of one array; each row gets the
    trajectory of its solo run_flow, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(first=run_draws, others=st.lists(run_draws, min_size=1, max_size=4),
           n=st.sampled_from([64, 128]))
    def test_mixed_batch_matches_solo_runs(self, first, others, n):
        # the first row has p = 2.0: kappa ** 2.0 is numpy's square, which an
        # array of exponents holding 2.0 would not take
        curves, cfgs = [], []
        for spec, p, every, stop in [(first[0], 2.0, *first[2:]), *others]:
            curve = construct_curve(spec, n)
            curves.append(curve)
            cfgs.append(stop_config(curve, p, every, stop))
        assert_batch_matches_solo(curves, cfgs)

    def test_each_stop_reason_in_one_batch(self):
        curve = construct_curve({"fourier": {"R": 1.0, "modes": [[2, 0.001, 0.2]]}}, 128)
        cfgs = [stop_config(curve, p, every, stop)
                for p, every, stop in zip([2.0, 2.5, 3.0], [1, 7, 50], STOPS)]
        trajs = assert_batch_matches_solo([curve] * 3, cfgs)
        assert [traj.terminal_reason for traj in trajs] == STOPS
        assert len({traj.steps for traj in trajs}) == 3

    def _stencil_fails_on_circles(self, monkeypatch, k, fail):
        """diff2_periodic returns ``fail(h)`` on the rows that are circles (h
        constant) on its k-th call; clear the returned list to count anew."""
        diff2 = pcflow.curves.diff2_periodic
        calls = []

        def failing(f, dx, out, work):
            calls.append(1)
            out = diff2(f, dx, out, work)
            if len(calls) == k:
                rows, h = np.atleast_2d(out), np.atleast_2d(f)
                circles = np.ptp(h, axis=1) == 0.0
                rows[circles] = fail(h[circles])
            return out

        monkeypatch.setattr(pcflow.curves, "diff2_periodic", failing)
        return calls

    @pytest.mark.parametrize("fail, reason", [
        (lambda h: h - 10.0, "convexitylost"),   # h + h'' = 2h - 10 < 0
        (lambda h: np.nan * h, "nonfinite"),     # h + h'' is NaN
        (lambda h: -h, "convexitylost"),         # h + h'' = 0: 1/rc would divide by 0
    ], ids=["negative", "nan", "zero"])
    def test_aborting_row_leaves_the_others_alone(self, monkeypatch, fail, reason):
        # the circle's 40th step fails inside the step; the rows beside it
        # run on, with the bits of their solo runs, and the failing row's
        # 1/(h + h'') is never taken (RuntimeWarnings fail the suite)
        specs = [{"ellipse": {"a": 1.3, "b": 1.0}}, {"circle": {"R": 1.0}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}]
        curves = [construct_curve(spec, 128) for spec in specs]
        cfgs = [stop_config(c, p, every, "t_end")
                for c, p, every in zip(curves, [2.0, 2.0, 2.5], [7, 1, 50])]
        calls = self._stencil_fails_on_circles(monkeypatch, 40, fail)
        batch, solo = run_flows(curves, cfgs), []
        for curve, cfg in zip(curves, cfgs):
            calls.clear()
            solo.append(run_flow(curve, cfg))
        assert (batch[1].terminal_reason, batch[1].aborted, batch[1].steps) == (reason, True, 39)
        assert_runs_match(batch, solo)
        assert batch[0].steps > 40 and batch[2].steps > 40

    def test_failing_and_stopping_rows_leave_in_one_take(self, monkeypatch):
        # on step 40 the circle's stencil fails and the ellipse reaches its
        # t_end, the time of its own solo run's 40th step: both rows leave
        # the batch after that step by one take, and every row keeps the
        # bits of its solo run
        specs = [{"ellipse": {"a": 1.3, "b": 1.0}}, {"circle": {"R": 1.0}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}]
        curves = [construct_curve(spec, 128) for spec in specs]
        probe = run_flow(curves[0], stop_config(curves[0], 2.0, 1, "t_end"))
        assert probe.snapshots[40].steps == 40
        cfgs = [FlowConfig(p=2.0, t_end=probe.snapshots[40].t, monitor_every=7),
                stop_config(curves[1], 2.0, 1, "t_end"),
                stop_config(curves[2], 2.5, 50, "t_end")]
        calls = self._stencil_fails_on_circles(monkeypatch, 40, lambda h: h - 10.0)
        takes, take = [], SupportRows.take
        monkeypatch.setattr(SupportRows, "take",
                            lambda rows, kept: takes.append((len(calls), kept)) or take(rows, kept))
        batch = run_flows(curves, cfgs)
        # (step, rows kept): the ellipse and the circle leave on step 40,
        # the Fourier curve on its last
        assert takes == [(40, [2]), (batch[2].steps, [])]
        assert [(b.terminal_reason, b.aborted, b.steps) for b in batch[:2]] == [
            ("t_end", False, 40), ("convexitylost", True, 39)]
        solo = []
        for curve, cfg in zip(curves, cfgs):
            calls.clear()
            solo.append(run_flow(curve, cfg))
        assert_runs_match(batch, solo)
        assert batch[2].steps > 40

    def test_row_with_nonpositive_h_leaves_the_others_alone(self, monkeypatch):
        # the circle's 40th timestep takes its h to -9: the batch's min h is
        # not positive, that row aborts, and the rows beside it, whose area
        # bound that min h switches off for the step, stop on their exact
        # areas with the bits of their solo runs
        bound, calls = pcflow.flow.stable_dt, []

        def failing(rows, cfgs):
            calls.append(1)
            dts = bound(rows, cfgs)
            if len(calls) == 40:
                dts = [10.0 if np.ptp(h) == 0.0 else dt for h, dt in zip(rows.h, dts)]
            return dts

        monkeypatch.setattr(pcflow.flow, "stable_dt", failing)
        specs = [{"ellipse": {"a": 1.3, "b": 1.0}}, {"circle": {"R": 1.0}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}]
        curves = [construct_curve(spec, 128) for spec in specs]
        cfgs = [stop_config(curves[0], 2.0, 7, "area_stop"), FlowConfig(p=2.0),
                stop_config(curves[2], 2.5, 1, "area_stop")]
        batch, solo = run_flows(curves, cfgs), []
        for curve, cfg in zip(curves, cfgs):
            calls.clear()
            solo.append(run_flow(curve, cfg))
        assert (batch[1].terminal_reason, batch[1].aborted, batch[1].steps) == (
            "convexitylost", True, 39)
        assert_runs_match(batch, solo)
        assert batch[0].terminal_reason == batch[2].terminal_reason == "area_stop"
        assert batch[0].steps > 40 and batch[2].steps > 40

    def test_row_without_a_timestep_leaves_at_once(self):
        # kappa_max ** (p + 1) = 2 ** 1101 overflows: that row aborts before its
        # first step and raises no numpy overflow warning from kappa ** p
        circle = construct_curve({"circle": {"R": 0.5}}, 64)
        ellipse = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 64)
        cfgs = [FlowConfig(p=2.0, t_end=0.01, monitor_every=7),
                FlowConfig(p=1100.0, t_end=0.01), FlowConfig(p=3.0, t_end=0.01)]
        trajs = assert_batch_matches_solo([ellipse, circle, ellipse], cfgs)
        assert [(t.terminal_reason, t.aborted) for t in trajs] == [
            ("t_end", False), ("nonfinite", True), ("t_end", False)]
        assert trajs[1].steps == 0 and trajs[0].steps > 0

    def test_runs_must_share_a_grid(self):
        curves = [construct_curve({"circle": {"R": 1.0}}, n)
                  for n in (64, 128)]
        with pytest.raises(ConfigInvalid):
            run_flows(curves, [FlowConfig(p=2.0, t_end=0.01)] * 2)


class TestSnapshotsOwnTheirArrays:
    """The batch steps its rows in place; every snapshot holds copies."""

    def test_snapshots_keep_the_bytes_of_their_solo_run(self):
        specs = [{"ellipse": {"a": 1.2, "b": 1.0}}, {"circle": {"R": 1.0}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4]]}}]
        curves = [construct_curve(spec, 128) for spec in specs]
        cfgs = [FlowConfig(p=2.0, t_end=0.008, monitor_every=7),
                FlowConfig(p=3.0, t_end=0.006, monitor_every=1),
                FlowConfig(p=1.5, t_end=0.004, monitor_every=50)]

        def arrays(snapshot):
            c = snapshot.curve
            return c.h, c.radius_of_curvature(), c.kappa

        # a snapshot that viewed the batch's rows would read a later step's
        # values, not its solo run's
        trajs, solo = batch_and_solo(curves, cfgs)
        assert len({traj.steps for traj in trajs}) == 3
        held = []
        for traj, alone in zip(trajs, solo):
            assert len(traj.snapshots) == len(alone.snapshots)
            for snapshot, own in zip(traj.snapshots, alone.snapshots):
                snap_arrays = arrays(snapshot)
                assert [a.tobytes() for a in snap_arrays] == [a.tobytes() for a in arrays(own)]
                assert not any(a.flags.writeable for a in snap_arrays)
                held.append(snap_arrays)
        assert len(held) > 20
        for x, mine in enumerate(held):
            for other in held[x + 1:]:
                assert not any(np.shares_memory(a, b) for a in mine for b in other)


class TestRunCounters:
    """The counters cover the accepted steps: at ``monitor_every`` = 1,
    every snapshot after the start state holds one."""

    def test_support_margin_is_min_radius_of_curvature(self):
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        traj = run_flow(curve,
                        FlowConfig(p=2.0, t_end=0.01, monitor_every=1))
        steps = traj.snapshots[1:]
        margins = [float(np.min(s.curve.radius_of_curvature())) - EPS_CONVEX for s in steps]
        dts = [s.last_dt for s in steps]
        assert traj.steps == traj.snapshots[-1].steps == len(dts) > 0
        assert (traj.dt_min, traj.dt_max) == (min(dts), max(dts))
        assert traj.convexity_margin == min(margins)


class TestAgainstCircleLaw:
    def test_radius_follows_closed_form(self):
        # R(t) = (1 - (p+1) t)^(1/(p+1)) for R0 = 1
        p = 2.0
        c = construct_curve({"circle": {"R": 1.0}}, 128)
        traj = run_flow(c, FlowConfig(p=p, t_end=0.2))
        s = traj.snapshots[-1]
        R = float(np.mean(s.curve.h))
        assert abs(R - (1.0 - (p + 1.0) * s.t) ** (1.0 / (p + 1.0))) < 1e-4

    def test_radius_error_drops_under_refinement(self):
        p = 2.0
        errs = []
        for n in (128, 256):
            c = construct_curve({"circle": {"R": 1.0}}, n)
            traj = run_flow(c, FlowConfig(p=p, t_end=0.2))
            s = traj.snapshots[-1]
            R = float(np.mean(s.curve.h))
            errs.append(abs(R - (1.0 - (p + 1.0) * s.t) ** (1.0 / (p + 1.0))))
        assert errs[0] / errs[1] >= 3.0

    def test_extinction_time_values(self):
        assert circle_extinction_time(1.0, 2.0) == pytest.approx(1.0 / 3.0)
        assert circle_extinction_time(2.0, 1.5) == pytest.approx(2.0 ** 2.5 / 2.5)
        with pytest.raises(ConfigInvalid):
            circle_extinction_time(-1.0, 2.0)
        with pytest.raises(ConfigInvalid):
            circle_extinction_time(1.0, 0.5)

    def test_estimate_lower_bounds_circle(self):
        c = construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 128)
        # min h = b = 1, so the estimate equals the unit-circle time
        assert estimated_extinction_time(c, 2.0) == pytest.approx(1.0 / 3.0)


class TestCrossIntegrator:
    def test_support_and_marker_runs_agree(self):
        # same flow in both representations; compare support functions of
        # the final shapes on the Gauss grid.  The markers take N equal
        # steps to t = 0.02, each within their stability bound.
        n = 256
        c = construct_curve({"ellipse": {"a": 1.2, "b": 1.0}}, n)
        cfg = FlowConfig(p=2.0, t_end=0.02)
        hT = run_flow(c, cfg).snapshots[-1].curve.h
        steps = math.ceil(0.02 / marker_dt(geometry_of_markers(embed_support(c).x), cfg))
        pts = marker_window(c, cfg, 0.02 / steps, steps)[-1].x
        th = 2 * np.pi * np.arange(n) / n
        hm = np.max(pts @ np.vstack([np.cos(th), np.sin(th)]), axis=0)
        assert float(np.max(np.abs(hm - hT))) < 2e-4
