"""Time integration: stability bounds, stepping, stopping, invariants."""

import math

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
    stable_dt,
    step_markers,
    step_support,
)
from pcflow.curves import EPS_CONVEX, diff2_periodic
from pcflow.flow import marker_dt
from pcflow.identities import marker_window
from test_curves import convex_modes


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
        dt = stable_dt(FlowState(t=0.0, curve=c), FlowConfig(p=2.0, sigma=0.4))
        assert abs(dt - 0.4 * (2 * np.pi / 256) ** 2 / 4.0) < 1e-18

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
        cfg = FlowConfig(p=2.0)
        s1 = step_support(FlowState(t=0.0, curve=c), cfg, dt=1e-4)
        assert np.allclose(s1.curve.h, 2.0 - 1e-4 * 2.0 ** -2.0)
        assert s1.t == 1e-4
        assert s1.steps == 1

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
        c = construct_curve({"ellipse": {"a": 1.5, "b": 1.0}}, 64)
        with pytest.raises(ConvexityLost):
            step_support(FlowState(t=0.0, curve=c), FlowConfig(p=2.0), dt=10.0)


class TestReferenceStep:
    """The support step and the stored geometry against the plain formulas,
    bit for bit: rc = h + h'', kappa = 1/rc, area = 1/2 sum(h rc) dtheta,
    dt = sigma dtheta^2 / (2p max(kappa)^(p+1)), h <- h - dt kappa^p."""

    @settings(max_examples=20, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256]),
           p=st.floats(min_value=1.1, max_value=4.0))
    def test_twenty_steps_match_reference(self, modes, n, p):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        state = FlowState(t=0.0, curve=construct_curve(spec, n))
        cfg = FlowConfig(p=p)
        dtheta = 2.0 * np.pi / n
        h = np.array(state.curve.h)
        for _ in range(20):
            rc = h + diff2_periodic(h, dtheta)
            kappa = 1.0 / rc
            c = state.curve
            assert np.array_equal(c.radius_of_curvature(), rc)
            assert np.array_equal(c.kappa, kappa)
            assert c.area == 0.5 * float(np.sum(h * rc)) * dtheta
            dt = cfg.sigma * dtheta ** 2 / (2.0 * p * float(np.max(kappa)) ** (p + 1.0))
            h = h - dt * kappa ** p
            state = step_support(state, cfg, stable_dt(state, cfg))
            assert state.last_dt == dt
            assert np.array_equal(state.curve.h, h)


class TestRunFlow:
    def test_t_end_reached_exactly(self):
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        traj = run_flow(FlowState(t=0.0, curve=c), FlowConfig(p=2.0, t_end=0.01))
        assert traj.terminal_reason == "t_end"
        assert not traj.aborted
        assert traj.snapshots[-1].t == pytest.approx(0.01, abs=1e-15)

    def test_kappa_stop_near_extinction(self):
        c = construct_curve({"circle": {"R": 0.5}}, 64)
        cfg = FlowConfig(p=2.0, kappa_stop=20.0)
        traj = run_flow(FlowState(t=0.0, curve=c), cfg)
        assert traj.terminal_reason == "kappa_stop"
        assert float(np.max(1.0 / traj.snapshots[-1].curve.radius_of_curvature())) >= 20.0

    def test_area_stop(self):
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        cfg = FlowConfig(p=2.0, area_stop=0.9 * np.pi)
        traj = run_flow(FlowState(t=0.0, curve=c), cfg)
        assert traj.terminal_reason == "area_stop"
        assert traj.snapshots[-1].curve.area <= 0.9 * np.pi

    def test_area_strictly_decreasing(self):
        c = construct_curve({"ellipse": {"a": 1.5, "b": 1.0}}, 128)
        cfg = FlowConfig(p=2.0, t_end=0.1, monitor_every=20)
        traj = run_flow(FlowState(t=0.0, curve=c), cfg, monitors=[lambda s: None])
        areas = [s.curve.area for s in traj.snapshots]
        assert all(a1 < a0 for a0, a1 in zip(areas, areas[1:]))

    def test_support_contained_in_initial(self):
        # inward motion: h(theta, t) <= h(theta, 0) pointwise
        c = construct_curve({"ellipse": {"a": 1.4, "b": 1.0}}, 128)
        traj = run_flow(FlowState(t=0.0, curve=c), FlowConfig(p=2.0, t_end=0.05))
        assert np.all(traj.snapshots[-1].curve.h <= c.h + 1e-12)

    def test_circles_stay_circles(self):
        c = construct_curve({"circle": {"R": 1.0}}, 128)
        traj = run_flow(FlowState(t=0.0, curve=c), FlowConfig(p=3.0, t_end=0.05))
        h = traj.snapshots[-1].curve.h
        assert float(np.max(h) - np.min(h)) == 0.0

    def test_monitor_snapshot_cadence(self):
        # the start, every 10th step, and the stopping step (not a multiple of 10)
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        seen = []
        cfg = FlowConfig(p=2.0, t_end=0.02, monitor_every=10)
        traj = run_flow(FlowState(t=0.0, curve=c), cfg,
                        monitors=[lambda s: seen.append(s.steps)])
        assert traj.steps % 10 != 0
        assert seen == [s.steps for s in traj.snapshots]
        assert seen == [*range(0, traj.steps, 10), traj.steps]


def run_flow_reference(state, cfg, monitors=()):
    """The flow driver as it was before the run counters, kept verbatim as the
    reference: its stop test takes max(kappa) from the kappa array, and it
    steps through ``stable_dt`` and ``step_support``, whose bits
    ``TestReferenceStep`` pins to the plain formulas."""
    kappa_stop = (cfg.kappa_stop if cfg.kappa_stop is not None
                  else 1e3 * float(np.max(state.curve.kappa)))
    area_stop = cfg.area_stop if cfg.area_stop is not None else 1e-4 * state.curve.area

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
            state = step_support(state, cfg, dt)
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


def _slice(state):
    """What a snapshot holds, with the curve as exact bytes."""
    return state.t, state.steps, state.last_dt, state.curve.h.tobytes()


def assert_same_run(state, cfg):
    """run_flow and the reference agree bit for bit, and run_flow's monitors
    see exactly its snapshots; returns the run."""
    runs = []
    for driver in (run_flow_reference, run_flow):
        seen = []
        traj = driver(state, cfg, monitors=[lambda s: seen.append(_slice(s))])
        runs.append((traj, seen))
    (ref, _), (new, new_seen) = runs
    assert (new.terminal_reason, new.aborted) == (ref.terminal_reason, ref.aborted)
    assert [_slice(s) for s in new.snapshots] == [_slice(s) for s in ref.snapshots]
    assert new_seen == [_slice(s) for s in new.snapshots]
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
    t_end = 120.37 * stable_dt(FlowState(t=0.0, curve=curve), FlowConfig(p=p))
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
    """run_flow against the per-step reference driver: the same stop, the
    same monitor calls and the same snapshots, bit for bit."""

    @settings(max_examples=50, deadline=None)
    @given(spec=support_shapes, n=st.sampled_from([64, 128, 256]),
           p=st.floats(min_value=1.1, max_value=4.0),
           every=st.sampled_from([1, 7, 50]),
           stop=st.sampled_from(["t_end", "kappa_stop", "area_stop"]))
    def test_matches_reference(self, spec, n, p, every, stop):
        curve = construct_curve(spec, n)
        assert_same_run(FlowState(t=0.0, curve=curve), stop_config(curve, p, every, stop))

    @pytest.mark.parametrize("stop", ["t_end", "kappa_stop", "area_stop"])
    def test_each_stop_reason(self, stop):
        # a near circle, whose largest curvature grows from the start
        curve = construct_curve({"fourier": {"R": 1.0, "modes": [[2, 0.001, 0.2]]}}, 128)
        traj = assert_same_run(FlowState(t=0.0, curve=curve),
                               stop_config(curve, 2.5, 7, stop))
        assert traj.terminal_reason == stop
        if stop == "t_end":
            assert traj.snapshots[-1].last_dt < traj.dt_max  # the clamped step

    def test_zero_horizon(self):
        curve = construct_curve({"circle": {"R": 1.0}}, 64)
        traj = assert_same_run(FlowState(t=0.0, curve=curve), FlowConfig(p=2.0, t_end=0.0))
        assert (traj.steps, traj.dt_min, traj.dt_max) == (0, None, None)

    def _stencil_fails(self, monkeypatch, k, value):
        """diff2_periodic returns ``value`` everywhere on every k-th call, so
        each driver in turn meets it on its own k-th step."""
        diff2 = pcflow.curves.diff2_periodic
        calls = []

        def failing(f, dx):
            calls.append(1)
            return np.full_like(f, value) if len(calls) % k == 0 else diff2(f, dx)

        monkeypatch.setattr(pcflow.curves, "diff2_periodic", failing)

    def test_aborted_run(self, monkeypatch):
        # h + h'' = h - 10 < 0 on the 40th step: ConvexityLost inside the step
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        self._stencil_fails(monkeypatch, 40, -10.0)
        traj = assert_same_run(FlowState(t=0.0, curve=curve),
                               FlowConfig(p=2.0, t_end=0.01, monitor_every=7))
        assert (traj.terminal_reason, traj.aborted) == ("convexitylost", True)
        assert traj.steps == 39

    def test_nan_stencil_aborts_the_step(self, monkeypatch):
        # a NaN h + h'' on the 40th step is NonFinite inside the step
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        self._stencil_fails(monkeypatch, 40, np.nan)
        cfg = FlowConfig(p=2.0, t_end=0.01, monitor_every=7)
        traj = assert_same_run(FlowState(t=0.0, curve=curve), cfg)
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 39)
        seen = []
        run_flow(FlowState(t=0.0, curve=curve), cfg, monitors=[lambda s: seen.append(s.steps)])
        assert seen == [0, 7, 14, 21, 28, 35]

    def test_nonfinite_timestep_aborts(self, monkeypatch):
        # the 40th timestep bound raises: run_flow keeps the 39 steps taken
        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        bound, calls = pcflow.flow.stable_dt, []

        def failing(state, cfg):
            calls.append(1)
            if len(calls) == 40:
                raise NonFinite("stable timestep is not finite")
            return bound(state, cfg)

        monkeypatch.setattr(pcflow.flow, "stable_dt", failing)
        seen = []
        traj = run_flow(FlowState(t=0.0, curve=curve),
                        FlowConfig(p=2.0, t_end=0.01, monitor_every=7),
                        monitors=[lambda s: seen.append(s.steps)])
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 39)
        assert seen == [0, 7, 14, 21, 28, 35]
        assert traj.snapshots[-1].steps == 35

    def test_overflowing_timestep_aborts(self):
        # kappa_max ** (p + 1) = 2 ** 1101 is past the float range
        curve = construct_curve({"circle": {"R": 0.5}}, 64)
        traj = run_flow(FlowState(t=0.0, curve=curve), FlowConfig(p=1100.0, t_end=0.01))
        assert (traj.terminal_reason, traj.aborted, traj.steps) == ("nonfinite", True, 0)


class TestStepWork:
    """Structural guard on the support loop: no timing, only counts."""

    def test_support_step_takes_one_stencil_and_no_copy(self, monkeypatch):
        curve = construct_curve({"ellipse": {"a": 1.2, "b": 1.0}}, 128)
        calls = {"__post_init__": 0, "diff2_periodic": 0, "stable_dt": 0,
                 "step_support": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SupportCurve, "__post_init__",
                            counting("__post_init__", SupportCurve.__post_init__))
        for module, name in ((pcflow.curves, "diff2_periodic"),
                             (pcflow.flow, "stable_dt"), (pcflow.flow, "step_support")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        traj = run_flow(FlowState(t=0.0, curve=curve),
                        FlowConfig(p=2.0, t_end=0.05, monitor_every=50),
                        monitors=[lambda s: None])
        steps = traj.snapshots[-1].steps
        assert steps > 300
        # no step copies h or checks it a second time through SupportCurve(h)
        assert calls["__post_init__"] == 0
        assert calls["diff2_periodic"] == steps
        # one call of each per step, the step count that per-layer timings use
        assert calls["stable_dt"] == calls["step_support"] == steps


class TestRunCounters:
    """The counters cover the accepted steps: every monitor call after the
    start state sees one."""

    def test_support_margin_is_min_radius_of_curvature(self):
        margins, dts = [], []

        def watch(s):
            if s.steps == 0:
                return
            margins.append(float(np.min(s.curve.radius_of_curvature())) - EPS_CONVEX)
            dts.append(s.last_dt)

        curve = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        traj = run_flow(FlowState(t=0.0, curve=curve),
                        FlowConfig(p=2.0, t_end=0.01, monitor_every=1), monitors=[watch])
        assert traj.steps == traj.snapshots[-1].steps == len(dts) > 0
        assert (traj.dt_min, traj.dt_max) == (min(dts), max(dts))
        assert traj.convexity_margin == min(margins)


class TestAgainstCircleLaw:
    def test_radius_follows_closed_form(self):
        # R(t) = (1 - (p+1) t)^(1/(p+1)) for R0 = 1
        p = 2.0
        c = construct_curve({"circle": {"R": 1.0}}, 128)
        traj = run_flow(FlowState(t=0.0, curve=c), FlowConfig(p=p, t_end=0.2))
        s = traj.snapshots[-1]
        R = float(np.mean(s.curve.h))
        assert abs(R - (1.0 - (p + 1.0) * s.t) ** (1.0 / (p + 1.0))) < 1e-4

    def test_radius_error_drops_under_refinement(self):
        p = 2.0
        errs = []
        for n in (128, 256):
            c = construct_curve({"circle": {"R": 1.0}}, n)
            traj = run_flow(FlowState(t=0.0, curve=c), FlowConfig(p=p, t_end=0.2))
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
        hT = run_flow(FlowState(t=0.0, curve=c), cfg).snapshots[-1].curve.h
        steps = math.ceil(0.02 / marker_dt(geometry_of_markers(embed_support(c).x), cfg))
        pts = marker_window(c, cfg, 0.02 / steps, steps)[-1].x
        th = 2 * np.pi * np.arange(n) / n
        hm = np.max(pts @ np.vstack([np.cos(th), np.sin(th)]), axis=0)
        assert float(np.max(np.abs(hm - hT))) < 2e-4
