"""Identity verification: evolution residuals, rewrite algebra, trig checks."""

import numpy as np
import pytest

import pcflow.identities
from pcflow import (
    ConfigInvalid,
    FlowConfig,
    FlowState,
    PcflowError,
    Trajectory,
    construct_curve,
    embed_support,
    estimated_extinction_time,
    run_flow,
)
from pcflow.identities import (
    TOLERANCES,
    ResidualReport,
    TwoPointSample,
    evolution_refinement_study,
    first_order_condition_check,
    kappa_evolution_residual,
    marker_window,
    mu0_sweep,
    random_consistent_sample,
    rewrite_equivalence_check,
    rewrite_equivalence_sweep,
    theorem_property_run,
    theorem_property_runs,
    trig_identity_check,
    trig_refined_profile,
    trig_residual_profile,
)
from pcflow.noncollapse import mu_report

ELLIPSE = {"ellipse": {"a": 1.2, "b": 1.0}}


class TestResidualReport:
    def test_orders_are_log2_ratios(self):
        rep = ResidualReport(name="x", resolutions=((64, 1e-4), (128, 2.5e-5)),
                             residuals=(0.04, 0.01), order_floor=1.5, ceiling=0.05)
        assert rep.orders == (2.0,)
        assert rep.estimated_order == 2.0
        assert rep.passed

    def test_ceiling_enforced(self):
        rep = ResidualReport(name="x", resolutions=((64, 1e-4), (128, 2.5e-5)),
                             residuals=(0.4, 0.1), order_floor=1.5, ceiling=0.05)
        assert not rep.passed


class TestEvolutionResiduals:
    def test_window_validation(self):
        c = construct_curve(ELLIPSE, 64)
        cfg = FlowConfig(p=2.0)
        window = marker_window(c, cfg, 1e-5, 6)
        # too short for a centered time difference
        with pytest.raises(ConfigInvalid):
            kappa_evolution_residual(window[:2], 1e-5, 2.0)
        # markers of another grid: no material identity across the window
        remeshed = window[:2] + marker_window(construct_curve(ELLIPSE, 128), cfg, 1e-5, 0)
        with pytest.raises(ConfigInvalid):
            kappa_evolution_residual(remeshed, 1e-5, 2.0)

    def test_unknown_variant_rejected(self):
        c = construct_curve(ELLIPSE, 64)
        window = marker_window(c, FlowConfig(p=2.0), 1e-5, 6)
        with pytest.raises(ConfigInvalid):
            kappa_evolution_residual(window, 1e-5, 2.0, variant="cubic")

    @pytest.mark.parametrize("variant", ["kappa_p", "kappa"])
    def test_joint_refinement_second_order(self, variant):
        rep = evolution_refinement_study(ELLIPSE, 2.0, variant=variant,
                                         base_n=64, levels=2, window_steps=20)
        assert rep.estimated_order >= TOLERANCES["tol_order_joint"]
        assert rep.passed

    def test_wrong_sign_flow_fails(self):
        # outward motion satisfies neither evolution equation
        rep = evolution_refinement_study(ELLIPSE, 2.0, base_n=64, levels=2,
                                         window_steps=20, sign_error=True)
        assert not rep.passed


class TestFirstOrderCondition:
    def test_residual_small_at_argmax(self):
        g = embed_support(construct_curve({"ellipse": {"a": 1.6, "b": 1.0,
                                                          "phase": 0.3}}, 512))
        rep = mu_report(g)
        a = rep.argmax
        res, scale = first_order_condition_check(g, rep.mu, a.i, a.j)
        assert res <= 1.05 * scale

    def test_residual_refines_with_grid(self):
        # worst case over rotated ellipses; the critical-point error is O(ds)
        maxes = []
        for n in (256, 512):
            worst = 0.0
            for a_ax in (1.3, 1.6, 2.0):
                for ph in np.linspace(0.05, 0.7, 4):
                    spec = {"ellipse": {"a": a_ax, "b": 1.0, "phase": float(ph)}}
                    g = embed_support(construct_curve(spec, n))
                    rep = mu_report(g)
                    am = rep.argmax
                    res, _ = first_order_condition_check(g, rep.mu, am.i, am.j)
                    worst = max(worst, res)
            maxes.append(worst)
        assert maxes[0] / maxes[1] >= TOLERANCES["factor_first_order"]


class TestTrigIdentity:
    def test_circle_quarter_separation(self):
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 512))
        chk = trig_identity_check(g, 0, 128)
        assert chk.rhs == pytest.approx(-1.0, abs=1e-12)
        assert chk.residual < 1e-12

    def test_circle_diametral_separation(self):
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 512))
        chk = trig_identity_check(g, 0, 256)
        assert chk.rhs == pytest.approx(0.0, abs=1e-12)
        assert chk.residual < 1e-12

    def test_profile_small_on_ellipse(self):
        g = embed_support(construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 512))
        assert trig_residual_profile(g) <= TOLERANCES["ceil_trig"]

    def test_refined_profile_decays_under_doubling(self):
        r = [trig_refined_profile(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, n))
             for n in (256, 512)]
        assert r[0] / r[1] >= TOLERANCES["factor_trig"]

    def test_refined_profile_takes_one_spectrum(self, monkeypatch):
        # the interpolated support function is the same for every pair
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        assert trig_refined_profile(construct_curve(ELLIPSE, 256)) > 0.0
        assert len(calls) == 1


class TestRewriteEquivalence:
    def test_sample_constraint_enforced(self):
        with pytest.raises(ConfigInvalid):
            TwoPointSample(kappa=1.0, kappa_y=1.0, Z=1.0, d=1.0, mu=1.5, p=2.0,
                           tx=(1.0, 0.0), ty=(0.0, 1.0), w=(1.0, 0.0))

    def test_unit_vectors_enforced(self):
        with pytest.raises(ConfigInvalid):
            TwoPointSample(kappa=1.0, kappa_y=1.0, Z=2.0, d=1.0, mu=1.5, p=2.0,
                           tx=(2.0, 0.0), ty=(0.0, 1.0), w=(0.0, -1.0))

    def test_handmade_sample_agrees_to_roundoff(self):
        # tx = (1, 0), nu = (0, -1), w = -nu gives Z = 2/d
        s = TwoPointSample(kappa=1.3, kappa_y=0.8, Z=2.0 / 0.7, d=0.7, mu=1.4,
                           p=2.5, tx=(1.0, 0.0), ty=(0.6, 0.8), w=(0.0, -1.0))
        assert rewrite_equivalence_check(s) < 1e-14

    def test_random_samples_satisfy_constraint(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_consistent_sample(rng)
            z_cons = 2.0 * float(np.array(s.w) @ s.nu) / s.d
            assert z_cons == pytest.approx(s.Z, rel=1e-12)

    def test_sweep_roundoff_level(self):
        assert rewrite_equivalence_sweep(1000, seed=0) < 1e-13

    def test_sweep_is_deterministic(self):
        assert rewrite_equivalence_sweep(200, seed=3) == rewrite_equivalence_sweep(200, seed=3)


class TestTheoremRun:
    def test_horizon_validation(self):
        with pytest.raises(ConfigInvalid):
            theorem_property_run({"circle": {"R": 1.0}}, 2.0, n=64, horizon_frac=1.5)

    def test_circle_mu_stays_one(self):
        res = theorem_property_run({"circle": {"R": 1.0}}, 2.0, n=64,
                                   horizon_frac=0.3)
        assert res.mu0 == pytest.approx(1.0, abs=1e-6)
        assert res.mu_max == pytest.approx(1.0, abs=1e-6)
        assert res.passed
        # mu is 1 up to roundoff the whole way, so no trend is asserted

    def test_samples_cover_run(self):
        res = theorem_property_run({"ellipse": {"a": 1.1, "b": 1.0}}, 2.0, n=64,
                                   horizon_frac=0.3)
        assert res.samples[0].t == 0.0
        assert res.samples[-1].t == pytest.approx(0.3 / 3.0, rel=1e-12)
        assert all(s0.t < s1.t for s0, s1 in zip(res.samples, res.samples[1:]))

    def test_samples_are_the_run_snapshots(self):
        # one sample per snapshot, the stopping step (not a multiple of 7) included
        spec, p = {"ellipse": {"a": 1.1, "b": 1.0}}, 2.0
        res = theorem_property_run(spec, p, n=64, horizon_frac=0.3, monitor_every=7)
        curve = construct_curve(spec, 64)
        cfg = FlowConfig(p=p, t_end=0.3 * estimated_extinction_time(curve, p),
                         monitor_every=7)
        traj = run_flow(FlowState(t=0.0, curve=curve), cfg, monitors=[lambda s: None])
        assert traj.steps % 7 != 0
        assert [s.t for s in res.samples] == [s.t for s in traj.snapshots]

    def test_every_step_monitoring_stays_bounded(self):
        # mu sampled after every step, not every 50: no short-lived rise of
        # mu above mu0 + tol_mu hides between the default samples
        res = theorem_property_run({"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.0]]}},
                                   2.0, n=256, horizon_frac=0.05, monitor_every=1)
        assert len(res.samples) > 400
        assert max(s.mu for s in res.samples) <= res.mu0 + TOLERANCES["tol_mu"]
        assert res.passed


class TestTheoremBatch:
    """theorem_property_runs steps all its runs as one batch; each result is
    the run's own theorem_property_run, and errors come in serial order."""

    RUNS = [({"ellipse": {"a": 1.05, "b": 1.0}}, 1.5), ({"ellipse": {"a": 1.15, "b": 1.0}}, 2.0),
            ({"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.0]]}}, 2.0),
            ({"ellipse": {"a": 1.1, "b": 1.0, "phase": 0.3}}, 3.0)]

    def test_batch_matches_serial_runs(self):
        batch = theorem_property_runs(self.RUNS, n=64, horizon_frac=0.3, monitor_every=7)
        serial = [theorem_property_run(spec, p, n=64, horizon_frac=0.3, monitor_every=7)
                  for spec, p in self.RUNS]
        assert batch == serial  # samples included, float for float

    def fake_flows(self, monkeypatch, reasons):
        """run_flows stands in: run k stops at its start, aborted with
        ``reasons[k]`` unless that is None."""
        def fake(states, cfgs, monitors):
            for state, mons in zip(states, monitors):
                for mon in mons:
                    mon(state)
            return [Trajectory((state,), reason or "t_end", aborted=reason is not None)
                    for state, reason in zip(states, reasons)]

        monkeypatch.setattr(pcflow.identities, "run_flows", fake)

    def test_first_abort_in_serial_order_is_raised(self, monkeypatch):
        self.fake_flows(monkeypatch, [None, "nonfinite", "convexitylost", None])
        with pytest.raises(PcflowError, match="nonfinite"):
            theorem_property_runs(self.RUNS, n=64)

    def test_an_abort_comes_before_a_later_bad_spec(self, monkeypatch):
        runs = [self.RUNS[0], ({"ellipse": {"a": 0.5, "b": 1.0}}, 2.0)]
        with pytest.raises(ConfigInvalid):
            theorem_property_runs(runs, n=64)
        self.fake_flows(monkeypatch, ["convexitylost"])
        with pytest.raises(PcflowError, match="convexitylost") as exc:
            theorem_property_runs(runs, n=64)
        assert not isinstance(exc.value, ConfigInvalid)


class TestMu0Sweep:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            mu0_sweep([], "ellipse", [1.1])
        with pytest.raises(ConfigInvalid):
            mu0_sweep([2.0], "lemniscate", [1.1])

    def test_rows_match_serial_runs(self):
        # the sweep's per-p rows, from one run per (p, param) taken alone
        p_values, grid = [1.5, 3.0], [1.04, 1.3]
        rows = mu0_sweep(p_values, "ellipse", grid, n=64, horizon_frac=0.3)
        for p, row in zip(p_values, rows):
            results = [theorem_property_run({"ellipse": {"a": a, "b": 1.0}}, p, n=64,
                                            horizon_frac=0.3) for a in grid]
            passed = [k for k, res in enumerate(results) if res.passed]
            assert passed
            assert row["param"] == grid[passed[-1]]
            assert row["mu0_empirical"] == results[passed[-1]].mu0

    def test_small_sweep_reports_largest_passing(self):
        rows = mu0_sweep([2.0], "ellipse", [1.05, 1.1], n=64, horizon_frac=0.3)
        assert len(rows) == 1
        row = rows[0]
        assert row["pass"] == "yes"
        assert row["param"] == 1.1
        assert row["mu0_empirical"] > 1.0
