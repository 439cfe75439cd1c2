"""Time integration: stability bounds, stepping, stopping, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import (
    ConfigInvalid,
    ConvexityLost,
    FlowConfig,
    FlowState,
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
from pcflow.curves import diff2_periodic
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
        mc = circle_markers(1.0, 64)
        cfg = FlowConfig(p=2.0)
        dt1 = stable_dt(FlowState(t=0.0, curve=mc), cfg)
        dt2 = stable_dt(FlowState(t=0.0, curve=circle_markers(1.0, 128)), cfg)
        assert 3.0 < dt1 / dt2 < 5.0


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
        s1 = step_markers(FlowState(t=0.0, curve=mc), FlowConfig(p=2.0), dt=1e-4)
        ang0 = np.arctan2(mc.x[:, 1], mc.x[:, 0])
        ang1 = np.arctan2(s1.curve.x[:, 1], s1.curve.x[:, 0])
        assert np.max(np.abs(ang1 - ang0)) < 1e-12
        r1 = np.hypot(*s1.curve.x.T)
        assert np.allclose(r1, r1[0])
        assert r1[0] < 1.5

    def test_support_step_rejects_marker_state(self):
        with pytest.raises(ConfigInvalid):
            step_support(FlowState(t=0.0, curve=circle_markers(1.0)), FlowConfig(p=2.0))

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
            state = step_support(state, cfg)
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
        c = construct_curve({"circle": {"R": 1.0}}, 64)
        seen = []
        cfg = FlowConfig(p=2.0, t_end=0.02, monitor_every=10)
        run_flow(FlowState(t=0.0, curve=c), cfg, monitors=[lambda s: seen.append(s.steps)])
        assert seen
        assert all(k % 10 == 0 for k in seen)


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
        # the final shapes on the Gauss grid
        n = 256
        c = construct_curve({"ellipse": {"a": 1.2, "b": 1.0}}, n)
        cfg = FlowConfig(p=2.0, t_end=0.02)
        hT = run_flow(FlowState(t=0.0, curve=c), cfg).snapshots[-1].curve.h
        mc = geometry_of_markers(embed_support(c).x)
        pts = run_flow(FlowState(t=0.0, curve=mc), cfg).snapshots[-1].curve.x
        th = 2 * np.pi * np.arange(n) / n
        hm = np.max(pts @ np.vstack([np.cos(th), np.sin(th)]), axis=0)
        assert float(np.max(np.abs(hm - hT))) < 2e-4
