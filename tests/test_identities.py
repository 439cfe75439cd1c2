"""Identity verification: evolution residuals, rewrite algebra, trig checks."""

import dataclasses
import hashlib
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcflow.flow
import pcflow.identities
from pcflow import (
    ConfigInvalid,
    FlowConfig,
    PcflowError,
    construct_curve,
    embed_support,
    estimated_extinction_time,
    geometry_of_markers,
    run_flow,
    run_flows,
)
from pcflow.curves import BLOCK_ELEMS, SupportCurve, gauss_angles, support_interpolant
from pcflow.flow import marker_dt
from pcflow.identities import (
    REWRITE_SAMPLES,
    TOLERANCES,
    MuSample,
    ResidualReport,
    _arc_derivatives,
    _refined_trig,
    evolution_refinement_study,
    kappa_evolution_residual,
    marker_window,
    mu0_sweep,
    mu_samples,
    random_consistent_sample,
    rewrite_equivalence_check,
    rewrite_equivalence_sweep,
    theorem_property_run,
    theorem_property_runs,
    trig_refined_profile,
)
from pcflow.noncollapse import (
    DIAG_WINDOW,
    _z_pairs,
    chord_maximizers,
    mu_report,
    refined_angles,
)
from reference import (
    CEIL_GRID_TRIG,
    FACTOR_FIRST_ORDER,
    dot_fma,
    first_order_condition_check,
    trig_identity_check,
    trig_residual_profile,
)
from test_curves import convex_modes

ELLIPSE = {"ellipse": {"a": 1.2, "b": 1.0}}
FOURIER = {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4], [5, 0.004, 1.1]]}}


class TestResidualReport:
    def test_orders_are_log2_ratios(self):
        rep = ResidualReport(name="x", resolutions=((64, 1e-4), (128, 2.5e-5)),
                             residuals=(0.04, 0.01), order_floor=1.5, floor=0.0)
        assert rep.orders == (2.0,)
        assert rep.estimated_order == 2.0
        assert rep.passed

    @pytest.mark.parametrize("residuals", [
        (0.0, 0.0, 0.0), (0.04, 0.0, 0.0), (0.04, 0.01, 0.0), (0.0, 0.04, 0.01),
        (math.inf, 0.04, 0.01), (0.04, 0.01, math.nan), (1e-300, 1e300, 1e-300),
    ])
    def test_pair_without_order(self, residuals):
        # a residual that is 0 or not finite, or a ratio past the float
        # range, gives its pair no order, wherever the pair lies, and the
        # report fails
        rep = ResidualReport(name="x", resolutions=((64, 1e-4), (128, 2.5e-5), (256, 6e-6)),
                             residuals=residuals, order_floor=1.5, floor=0.0)
        assert any(math.isnan(order) for order in rep.orders)
        assert math.isnan(rep.estimated_order) and not rep.passed
        assert rep.to_dict()["estimated_order"] is None

    @pytest.mark.parametrize("residuals, order_floor, floor, passed", [
        # the last level below the floor passes, whatever the drop
        ((1e-14, 2e-14), 1.5, 1e-13, True),
        ((1e-14, 1e-14), 1.5, 1e-13, True),
        ((1e-14, 0.0), 1.5, 1e-13, True),
        # at the floor is not below it
        ((1e-13, 1e-13), 1.5, 1e-13, False),
        # a drop at exactly the order floor passes, just short of it fails
        ((0.4, 0.1), 2.0, 0.0, True),
        ((0.4, 0.1), math.log2(4.0) + 1e-12, 0.0, False),
        ((0.9, 0.5), math.log2(1.8), 0.0, True),
        # the residual's size does not matter, only its drop
        ((4e3, 1e3), 2.0, 0.0, True),
        ((4e-3, 1e-3), 2.0, 0.0, True),
        # a one-level ladder passes only by its floor, never vacuously
        ((1e-16,), math.inf, 1e-11, True),
        ((1e-16,), 0.0, 0.0, False),
        ((2e-11,), math.inf, 1e-11, False),
        # 0, inf and nan give no order, and inf and nan lie below no floor
        ((0.0, 0.0), 1.5, 0.0, False),
        ((0.04, math.inf), 1.5, 1.0, False),
        ((0.04, math.nan), 1.5, 1.0, False),
        ((math.nan,), 1.5, 1.0, False),
    ])
    def test_one_rule(self, residuals, order_floor, floor, passed):
        resolutions = tuple((64 << k, 0.0) for k in range(len(residuals)))
        rep = ResidualReport(name="x", resolutions=resolutions, residuals=residuals,
                             order_floor=order_floor, floor=floor)
        assert rep.passed is passed
        assert rep.to_dict()["pass"] is passed


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

    @pytest.mark.parametrize("variant", ["kappa_p", "kappa"])
    def test_joint_refinement_second_order(self, variant):
        reps = {rep.name: rep for rep in evolution_refinement_study(
            ELLIPSE, 2.0, base_n=64, levels=2, window_steps=20)}
        rep = reps[f"kappa_evolution[{variant}]"]
        assert rep.estimated_order >= TOLERANCES["tol_order_joint"]
        assert rep.passed

    def test_wrong_sign_flow_fails(self):
        # outward motion satisfies neither evolution equation
        reps = evolution_refinement_study(ELLIPSE, 2.0, base_n=64, levels=2,
                                          window_steps=20, sign_error=True)
        assert [rep.name for rep in reps] == ["kappa_evolution[kappa_p]",
                                              "kappa_evolution[kappa]"]
        assert not any(rep.passed for rep in reps)

    @pytest.mark.parametrize("sign_error", [False, True])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("spec", [ELLIPSE, FOURIER])
    def test_shared_ladder_matches_frozen_per_variant_study(self, spec, p, sign_error):
        # verify's ladder; the outward Fourier runs lose convexity, and must
        # do so in the same way
        kw = dict(base_n=64, levels=3, window_steps=30, sign_error=sign_error)
        try:
            want = [_evolution_study_frozen(spec, p, variant, **kw)
                    for variant in ("kappa_p", "kappa")]
        except PcflowError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                evolution_refinement_study(spec, p, **kw)
            return
        got = evolution_refinement_study(spec, p, **kw)
        assert len(got) == len(want)
        for rep, ref in zip(got, want):
            assert rep.name == ref.name
            assert rep.resolutions == ref.resolutions
            assert rep.residuals == ref.residuals
            assert rep.estimated_order == ref.estimated_order
            assert rep.passed == ref.passed

    @settings(max_examples=25, deadline=None)
    @given(st.integers(16, 600), st.integers(0, 2 ** 32 - 1),
           st.floats(0.0, 0.4), st.floats(0.5, 3.0))
    def test_arc_derivatives_match_frozen_roll(self, m, seed, jitter, scale):
        rng = np.random.default_rng(seed)
        th = 2.0 * np.pi * (np.arange(m) + jitter * rng.uniform(-1.0, 1.0, m)) / m
        pts = scale * np.column_stack([1.3 * np.cos(th), np.sin(th)])
        f = rng.uniform(0.1, 5.0, (2, m))
        # one f, and a stack of two differentiated row by row
        stacked = _arc_derivatives(pts, f)
        for row in range(2):
            want = _arc_derivatives_frozen(pts, f[row])
            for got in (_arc_derivatives(pts, f[row]), (stacked[0][row], stacked[1][row])):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])


def _marker_mutant(speed=lambda kappa, p: kappa ** p, drift=0.0):
    """A wrong marker flow in place of ``step_markers``: normal speed
    ``speed(kappa, p)`` and a tangential drift ``drift`` * tau per unit time."""
    def step(g, cfg, dt, speed_sign=-1.0):
        v = speed(g.kappa, cfg.p)
        return geometry_of_markers(g.x + (speed_sign * dt) * v[:, None] * g.normal
                                   + (dt * drift) * g.tangent)
    return step


EPS_MUTANT = 0.01
MUTANTS = {
    "scale": _marker_mutant(speed=lambda kappa, p: (1.0 + EPS_MUTANT) * kappa ** p),
    "power": _marker_mutant(speed=lambda kappa, p: kappa ** (p + EPS_MUTANT)),
    "shift": _marker_mutant(speed=lambda kappa, p: kappa ** p + EPS_MUTANT),
    "drift": _marker_mutant(drift=0.1),
}


class TestMutantMatrix:
    """verify's evolution check, on its ladder (base 64, 3 levels, 30
    steps), fails every wrong flow and passes the correct one.  On the
    ellipse a = 1.2 the mutants' orders read at most 0.32 and the correct
    flow's 1.94-1.97.  On the Fourier curve, from base 128, the smaller of
    the two variant orders tells each mutant from the correct flow."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_fails_both_variants(self, monkeypatch, mutant, p):
        monkeypatch.setattr(pcflow.identities, "step_markers", MUTANTS[mutant])
        reps = evolution_refinement_study(ELLIPSE, p, base_n=64, levels=3, window_steps=30)
        assert len(reps) == 2
        for rep in reps:
            assert rep.estimated_order < 0.75 and not rep.passed

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_correct_flow_passes_both_variants(self, p):
        reps = evolution_refinement_study(ELLIPSE, p, base_n=64, levels=3, window_steps=30)
        assert len(reps) == 2
        for rep in reps:
            assert rep.estimated_order >= 1.5 and rep.passed

    # Measured orders (kappa_p, kappa) on FOURIER from base 128:
    #   correct flow  p = 1.5: 1.916, 1.913   2: 1.905, 1.899   3: 1.885, 1.863
    #   scale         p = 1.5: 0.237, 0.202   2: 0.256, 0.188   3: 0.295, 0.166
    #   power         p = 1.5: 0.225, 0.191   2: 0.294, 0.218   3: 0.419, 0.245
    #   drift         p = 1.5: 0.153, 0.156   2: 0.265, 0.256   3: 0.760, 0.545
    #   shift         p = 1.5: 0.774, 0.797   2: 1.542, 1.071   3: 1.982, 1.458
    # The shift mutant is caught by the smaller order alone, 0.042 under the
    # 1.5 floor at p = 3.  The correct flow passes both variants.

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_fourier_mutant_fails_a_variant(self, monkeypatch, mutant, p):
        monkeypatch.setattr(pcflow.identities, "step_markers", MUTANTS[mutant])
        reps = evolution_refinement_study(FOURIER, p, base_n=128, levels=3, window_steps=30)
        assert len(reps) == 2
        assert min(rep.estimated_order for rep in reps) < TOLERANCES["tol_order_joint"]
        assert not all(rep.passed for rep in reps)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_fourier_correct_flow_orders(self, p):
        reps = evolution_refinement_study(FOURIER, p, base_n=128, levels=3, window_steps=30)
        assert len(reps) == 2
        for rep in reps:
            assert rep.estimated_order >= 1.8 and rep.passed


# Limit shape of the support flow.  Convex curves under kappa^p with p > 1
# shrink to round points, and mu is scale-free, so on a correct flow mu - 1
# falls as the area goes to 0.  Each run is read at the last snapshot of a
# flow stopped at 1e-3 and at 1e-4 of its start area, and the pair is judged
# by verify's rule with order floor 1: mu - 1 at least halves per decade of
# area.  The floor is round-off: kappa = 1/(h + h''), where h'' is a stencil
# whose weights sum to 16/3 in magnitude, over dtheta^2 = (2 pi/n)^2, so a
# relative rounding eps of h becomes up to (16/3)(n/(2 pi))^2 eps, about
# 0.14 n^2 eps, in kappa, and mu, a ratio of Z to kappa, about twice that.
# The floor n^2 eps (9.1e-13 at n = 64) covers that bound 3.7x.
LIMIT_N = 64
LIMIT_CURVES = ({"ellipse": {"a": 1.5, "b": 1.0}},
                {"fourier": {"R": 1.0, "modes": [[3, 0.05, 0.0]]}})
LIMIT_P = (1.5, 2.0, 3.0)
LIMIT_AREA_FRACS = (1e-3, 1e-4)


def _limit_shape_reports() -> list:
    """The limit-shape report of each (curve, p) of LIMIT_CURVES x LIMIT_P,
    with both area stops of every run stepped as one batch."""
    starts = [(construct_curve(spec, LIMIT_N), p) for spec in LIMIT_CURVES for p in LIMIT_P]
    runs = [(c, FlowConfig(p=p, kappa_stop=1e300, area_stop=frac * c.area))
            for c, p in starts for frac in LIMIT_AREA_FRACS]
    trajs = run_flows([c for c, _ in runs], [cfg for _, cfg in runs])
    mus = [s.mu - 1.0 for s in mu_samples([traj.snapshots[-1] for traj in trajs])]
    k = len(LIMIT_AREA_FRACS)
    return [ResidualReport("limit_shape", tuple((LIMIT_N, f) for f in LIMIT_AREA_FRACS),
                           tuple(mus[r * k:(r + 1) * k]), order_floor=1.0,
                           floor=LIMIT_N ** 2 * 2.0 ** -52)
            for r in range(len(starts))]


class TestLimitShape:
    """The support stepper at theorem level: a correct flow ends round, an
    anisotropic one does not.  Measured mu - 1 at 1e-3 -> 1e-4 of the area:
    the ellipse a = 1.5 reads 4.7e-6 -> 8.2e-8 (p = 1.5), 2.8e-8 -> 8.6e-11
    (p = 2) and 1.0e-12 -> 1.1e-14 (p = 3), the Fourier curve 4-7e-14 at
    both, which is round-off.  The mutant, which steps each support value
    by dt (1 + eps cos 2 theta) kappa^p, ends flat at 4 eps/(3p - 1) from
    both curves: 1.143e-3, 8.001e-4 and 5.000e-4 at eps = 1e-3, and about
    10x that at eps = 1e-2."""

    def test_correct_flow_ends_round(self):
        for rep in _limit_shape_reports():
            assert rep.passed, rep.residuals

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_anisotropic_mutant_stays_oval(self, monkeypatch, eps):
        step = pcflow.flow.step_support

        def mutant(rows, dt, groups):
            theta = gauss_angles(rows.h.shape[1])
            # the middle columns; kappa's ghost columns hold 0
            scale = np.pad(1.0 + eps * np.cos(2.0 * theta), 2, constant_values=1.0)
            return step(rows, dt * scale, groups)

        monkeypatch.setattr(pcflow.flow, "step_support", mutant)
        reps = _limit_shape_reports()
        assert len(reps) == len(LIMIT_CURVES) * len(LIMIT_P)
        for rep, p in zip(reps, LIMIT_P * len(LIMIT_CURVES)):
            assert not rep.passed, rep.residuals
            assert rep.residuals[-1] == pytest.approx(4.0 * eps / (3.0 * p - 1.0), rel=0.01)


# The frozen reference: the evolution check as it was before both variants
# shared one marker ladder (one ladder per variant, neighbours from np.roll),
# copied verbatim but for the residual's argument checks.  Each report of
# the shared ladder must equal it.  Its
# markers come from the program's geometry_of_markers, which test_curves
# checks against its own frozen np.roll copy.
def _arc_derivatives_frozen(pts, f):
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    l_fwd = np.hypot(*(nxt - pts).T)
    l_bwd = np.hypot(*(pts - prv).T)
    f_nxt = np.roll(f, -1)
    f_prv = np.roll(f, 1)
    ds_f = (f_nxt - f_prv) / (l_bwd + l_fwd)
    lap_f = 2.0 / (l_bwd + l_fwd) * ((f_nxt - f) / l_fwd - (f - f_prv) / l_bwd)
    return ds_f, lap_f


def _kappa_residual_frozen(window, dt, p, variant):
    kappas = [g.kappa for g in window]
    worst = np.zeros(window[0].m)
    for k in range(1, len(window) - 1):
        pts = window[k].x
        kap = kappas[k]
        if variant == "kappa_p":
            f_prev, f_mid, f_next = kappas[k - 1] ** p, kap ** p, kappas[k + 1] ** p
            dfdt = (f_next - f_prev) / (2.0 * dt)
            _, lap = _arc_derivatives_frozen(pts, f_mid)
            rhs = p * kap ** (p - 1.0) * kap ** (2.0 + p)
            res = dfdt - p * kap ** (p - 1.0) * lap - rhs
        else:
            dfdt = (kappas[k + 1] - kappas[k - 1]) / (2.0 * dt)
            ds_k, lap = _arc_derivatives_frozen(pts, kap)
            rhs = kap ** (2.0 + p) + p * (p - 1.0) * kap ** (p - 2.0) * ds_k ** 2
            res = dfdt - p * kap ** (p - 1.0) * lap - rhs
        worst = np.maximum(worst, np.abs(res))
    return worst


def _evolution_study_frozen(spec, p, variant, base_n, levels, window_steps, sign_error):
    cfg = FlowConfig(p=p)
    base = construct_curve(spec, base_n)
    dt0 = 0.5 * marker_dt(geometry_of_markers(embed_support(base).x), cfg)
    resolutions, residuals = [], []
    for lvl in range(levels):
        n = base_n << lvl
        dt = dt0 / 4.0 ** lvl
        curve = construct_curve(spec, n)
        sign = +1.0 if sign_error else -1.0
        window = marker_window(curve, cfg, dt, window_steps, speed_sign=sign)
        res = _kappa_residual_frozen(window, dt, p, variant)
        resolutions.append((n, dt))
        residuals.append(float(np.max(res)))
    return ResidualReport(
        name=f"kappa_evolution[{variant}]",
        resolutions=tuple(resolutions),
        residuals=tuple(residuals),
        order_floor=TOLERANCES["tol_order_joint"],
        floor=0.0,
    )


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
        assert maxes[0] / maxes[1] >= FACTOR_FIRST_ORDER


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
        assert trig_residual_profile(g) <= CEIL_GRID_TRIG

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


# The per-angle evaluator of ``support_interpolant`` and the per-pair loop of
# ``trig_refined_profile`` with its ``_trig_check``, as they were before all
# pairs were evaluated at once, copied verbatim but for the dots ``a @ b``,
# now ``dot_fma``, the rounding they had where they were recorded: the
# batched evaluator and the refined check must give the same bits.
def _support_at_frozen(c):
    n = c.n
    H = np.fft.rfft(c.h)
    k = np.arange(H.size)
    wgt = np.full(H.size, 2.0)
    wgt[0] = 1.0
    if n % 2 == 0:
        wgt[-1] = 1.0

    def at(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ck, sk = np.cos(k * theta), np.sin(k * theta)
        h = float(np.sum(wgt * (H.real * ck - H.imag * sk))) / n
        hp = float(np.sum(wgt * k * (-H.real * sk - H.imag * ck))) / n
        nu = np.array([np.cos(theta), np.sin(theta)])
        tau = np.array([-np.sin(theta), np.cos(theta)])
        return h * nu + hp * tau, nu, tau

    return at


def _trig_check_frozen(w, tx, ty, alpha):
    c2 = math.cos(2.0 * alpha)
    dot = dot_fma(ty, tx)
    if math.cos(alpha) > 1e-2:
        sign = -1.0 if dot_fma(w, ty) * dot_fma(w, tx) > 0.0 else 1.0
    else:
        sign = 1.0 if abs(dot + c2) < abs(-dot + c2) else -1.0
    ty = sign * ty
    lhs = 1.0 - dot_fma(ty, tx) + 2.0 * dot_fma(w, ty - tx) * dot_fma(w, tx)
    rhs = -2.0 * math.cos(alpha) ** 2
    return abs(lhs - rhs)


def _refined_angle_frozen(g, i, j):
    m = g.m
    zm, z0, zp = _z_pairs(g, i, np.array([j - 1, j, j + 1]) % m)
    denom = zm - 2.0 * z0 + zp
    shift = 0.0 if denom == 0.0 else float(np.clip(0.5 * (zm - zp) / denom, -0.5, 0.5))
    return 2.0 * np.pi * (j + shift) / m


def _refined_trig_frozen(c, g, pairs):
    """[(i, residual, alpha)] of each pair the loop did not skip."""
    m = g.m
    support_at = _support_at_frozen(c)
    out = []
    for i, j in pairs:
        if (i - j) % m in (DIAG_WINDOW + 1, m - DIAG_WINDOW - 1):
            continue
        y, _, ty = support_at(_refined_angle_frozen(g, i, j))
        diff = g.x[i] - y
        d = float(np.hypot(diff[0], diff[1]))
        if d < 1e-12:
            continue
        w = diff / d
        alpha = math.asin(min(1.0, abs(dot_fma(w, g.normal[i]))))
        out.append((i, _trig_check_frozen(w, g.tangent[i], ty, alpha), alpha))
    return out


def _refined_pairs(c, g, i, j):
    """The batched refined check in the frozen loop's form, and that loop's."""
    got = list(zip(*(a.tolist() for a in _refined_trig(c, g, *refined_angles(
        g, np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp))))))
    return got, _refined_trig_frozen(c, g, zip(i, j))


GRID_SIZES_64_2048 = [64, 128, 256, 512, 1024, 2048]
fourier_specs = convex_modes.map(
    lambda modes: {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}})
ellipse_specs = st.builds(
    lambda a, phase: {"ellipse": {"a": a, "b": 1.0, "phase": phase}},
    st.floats(min_value=1.0, max_value=2.5), st.floats(min_value=0.0, max_value=2 * math.pi))


class TestRefinedTrigOracle:
    """The batched evaluator and refined trig check against the frozen
    per-angle evaluator and per-pair loop, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(fourier_specs, ellipse_specs),
           n=st.sampled_from(GRID_SIZES_64_2048))
    def test_maximizing_pairs_match_frozen_loop(self, spec, n):
        c = construct_curve(spec, n)
        g = embed_support(c)
        i, j = chord_maximizers(g)
        got, want = _refined_pairs(c, g, i.tolist(), j.tolist())
        assert got == want

    @settings(max_examples=20, deadline=None)
    @given(spec=st.one_of(fourier_specs, ellipse_specs),
           n=st.sampled_from(GRID_SIZES_64_2048),
           theta=st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=40))
    def test_evaluator_matches_frozen_at(self, spec, n, theta):
        # at n = 2048 a block holds 15 angles, so 40 angles take three blocks
        c = construct_curve(spec, n)
        frozen = _support_at_frozen(c)
        got = support_interpolant(c, np.array(theta, dtype=float))
        assert all(a.shape == (len(theta), 2) for a in got)
        for k, t in enumerate(theta):
            x, _, tau = frozen(t)
            assert [a[k].tolist() for a in got] == [x.tolist(), tau.tolist()]

    def test_near_diametral_ellipse(self):
        c = construct_curve({"ellipse": {"a": 1.001, "b": 1.0}}, 2048)
        g = embed_support(c)
        i, j = chord_maximizers(g)
        got, want = _refined_pairs(c, g, i.tolist(), j.tolist())
        assert got == want
        assert sum(math.cos(alpha) <= 1e-2 for _, _, alpha in got) > 0

    def test_circle_diametral_pairs_with_zero_denominator(self):
        # Z is 1/R at every pair of a circle, so the three-point denominator
        # is often exactly 0, and diametral chords take the
        # near-diametral sign rule
        c = construct_curve({"circle": {"R": 1.0}}, 256)
        g = embed_support(c)
        i = list(range(256))
        j = [(k + 128) % 256 for k in i]
        zm, z0, zp = _z_pairs(g, np.array(i)[:, None],
                              (np.array(j)[:, None] + np.arange(-1, 2)) % 256).T
        assert np.any(zm - 2.0 * z0 + zp == 0.0)
        got, want = _refined_pairs(c, g, i, j)
        assert got == want
        assert len(got) == 256
        assert all(math.cos(alpha) <= 1e-2 for _, _, alpha in got)

    def test_pairs_next_to_the_band_are_skipped(self):
        c = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        g = embed_support(c)
        off = [DIAG_WINDOW + 1, 128 - DIAG_WINDOW - 1, DIAG_WINDOW + 2, 40, 64]
        i = [10 * k for k in range(len(off))]
        j = [(a - o) % 128 for a, o in zip(i, off)]
        got, want = _refined_pairs(c, g, i, j)
        assert got == want
        assert [row[0] for row in got] == i[2:]

    def test_chord_shorter_than_1e_12_is_skipped(self):
        # the interpolated curve is the circle of radius 10 about v, where v
        # puts its point at the refined angle of pair 0 on X_i0 of g, up to
        # round-off; j0 near i0 keeps the origin inside that circle
        n = 128
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, n))
        i, j = [5, 20, 90], [10, 70, 30]
        theta_y = _refined_angle_frozen(g, i[0], j[0])
        v = g.x[i[0]] - 10.0 * np.array([math.cos(theta_y), math.sin(theta_y)])
        th = gauss_angles(n)
        c = SupportCurve(10.0 + v[0] * np.cos(th) + v[1] * np.sin(th))
        y, _, _ = _support_at_frozen(c)(theta_y)
        assert 0.0 < np.hypot(*(g.x[i[0]] - y)) < 1e-12
        got, want = _refined_pairs(c, g, i, j)
        assert got == want
        assert [row[0] for row in got] == i[1:]

    def test_refined_profile_memory_is_block_sized(self):
        # the row scan's buffers (512 kB) come and go before the evaluator's
        # four blocks of about BLOCK_ELEMS terms (492 kB at n = 2048): 0.79 MB.
        # Fresh temporaries per block peaked at 1.88 MB here.  The first call
        # also builds the per-grid caches (scan plan, Gauss frame, FFT plan,
        # 0.19 MB), so the measured call is the second.
        c = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 2048)
        trig_refined_profile(c)
        tracemalloc.start()
        try:
            trig_refined_profile(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20


def _first_order_grad_kappa(kappa, Z, d, mu, w, tx):
    """grad kappa from the first-order condition (2/(mu d))(kappa - Z)<w, tx>."""
    return (2.0 / (mu * d)) * (kappa - Z) * (w[0] * tx[0] + w[1] * tx[1])


class TestRewriteEquivalence:
    def test_handmade_sample_agrees_to_roundoff(self):
        # tx = (1, 0), nu = (0, -1), w = -nu gives Z = 2/d
        s = dict(kappa=1.3, kappa_y=0.8, Z=2.0 / 0.7, d=0.7, mu=1.4,
                 p=2.5, tx=(1.0, 0.0), ty=(0.6, 0.8), w=(0.0, -1.0))
        s["grad_kappa"] = _first_order_grad_kappa(s["kappa"], s["Z"], s["d"], s["mu"],
                                                  s["w"], s["tx"])
        assert rewrite_equivalence_check(**s) < 1e-14

    def test_random_samples_satisfy_constraint(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_consistent_sample(rng)
            tx = s["tx"]
            nu = (tx[1], -tx[0])
            z_cons = 2.0 * float(np.array(s["w"]) @ nu) / s["d"]
            assert z_cons == pytest.approx(s["Z"], rel=1e-12)
            for name in ("tx", "ty", "w"):
                assert math.hypot(*s[name]) == pytest.approx(1.0, abs=1e-15)
            assert s["grad_kappa"] == _first_order_grad_kappa(
                s["kappa"], s["Z"], s["d"], s["mu"], s["w"], tx)

    def test_identity_holds_off_the_constraint(self):
        # With grad kappa from the first-order condition the two forms are
        # equal as polynomials: a Z unrelated to w and d, and tangents and a
        # chord direction that are not unit vectors, leave round-off alone.
        rng = random.Random(11)
        worst = 0.0
        for _ in range(500):
            kappa, Z, d, mu = (rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0),
                               rng.uniform(0.2, 3.0), rng.uniform(1.0001, 2.0))
            tx, ty, w = ((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(3))
            worst = max(worst, rewrite_equivalence_check(
                kappa=kappa, kappa_y=rng.uniform(0.3, 3.0), Z=Z, d=d, mu=mu,
                p=rng.uniform(1.1, 4.0), tx=tx, ty=ty, w=w,
                grad_kappa=_first_order_grad_kappa(kappa, Z, d, mu, w, tx)))
        assert worst < 1e-14

    def test_a_wrong_grad_kappa_is_seen(self):
        # the check is not vacuous: off the first-order condition the forms differ
        s = random_consistent_sample(random.Random(5))
        assert rewrite_equivalence_check(**s) < 1e-14
        s["grad_kappa"] += 0.1
        assert rewrite_equivalence_check(**s) > 1e-3

    def test_sweep_roundoff_level(self):
        assert REWRITE_SAMPLES == 1000
        assert rewrite_equivalence_sweep(seed=0) < 1e-13

    def test_sweep_is_deterministic(self):
        assert rewrite_equivalence_sweep(seed=3) == rewrite_equivalence_sweep(seed=3)

    def test_sweep_bits_are_pinned(self):
        # bit for bit on ten seeds; the golden verify.json digest covers one
        assert [rewrite_equivalence_sweep(seed=k).hex() for k in range(10)] == [
            "0x1.1647c621d776bp-52", "0x1.101c706fbfbdep-52", "0x1.0d9aab2d7c105p-52",
            "0x1.f57fb7a6d1400p-53", "0x1.bd551099d83d8p-53", "0x1.2cf820a4edac9p-52",
            "0x1.d37d7c294f5fcp-53", "0x1.e0fb59f9ad29ap-53", "0x1.396f1ac78c03dp-52",
            "0x1.ea606126bae2bp-53"]


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
        traj = run_flow(curve, cfg)
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


def _start_runs(runs, n=64):
    """The (start curve, p) of each (spec, p) of ``runs``, one curve per run."""
    return [(construct_curve(spec, n), p) for spec, p in runs]


class TestTheoremBatch:
    """theorem_property_runs steps all its runs as one batch; each result is
    the run's own theorem_property_run.  A bad p raises before any run
    steps; after the flow, the first aborted run in run order raises."""

    RUNS = [({"ellipse": {"a": 1.05, "b": 1.0}}, 1.5), ({"ellipse": {"a": 1.15, "b": 1.0}}, 2.0),
            ({"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.0]]}}, 2.0),
            ({"ellipse": {"a": 1.1, "b": 1.0, "phase": 0.3}}, 3.0)]

    def test_batch_matches_serial_runs(self):
        batch = theorem_property_runs(_start_runs(self.RUNS), horizon_frac=0.3,
                                      monitor_every=7)
        serial = [theorem_property_run(spec, p, n=64, horizon_frac=0.3, monitor_every=7)
                  for spec, p in self.RUNS]
        assert batch == serial  # samples included, float for float

    def fake_flows(self, monkeypatch, reasons):
        """run_flows stands in: run k stops at its start, aborted with
        ``reasons[k]`` unless that is None."""
        def fake(curves, cfgs):
            starts = run_flows(curves, [dataclasses.replace(cfg, t_end=0.0) for cfg in cfgs])
            return [dataclasses.replace(traj, terminal_reason=reason or "t_end",
                                        aborted=reason is not None)
                    for traj, reason in zip(starts, reasons)]

        monkeypatch.setattr(pcflow.identities, "run_flows", fake)

    def test_first_abort_in_serial_order_is_raised(self, monkeypatch):
        self.fake_flows(monkeypatch, [None, "nonfinite", "convexitylost", None])
        with pytest.raises(PcflowError, match="nonfinite"):
            theorem_property_runs(_start_runs(self.RUNS))

    def test_a_bad_p_raises_before_any_run_steps(self, monkeypatch):
        # a step of the first run would raise TypeError
        curve = construct_curve(self.RUNS[0][0], 64)
        monkeypatch.setattr(pcflow.flow, "step_support", None)
        with pytest.raises(ConfigInvalid, match="p: must exceed 1"):
            theorem_property_runs([(curve, 1.5), (curve, 0.5)])


class TestTheoremSamples:
    """The mu samples of theorem runs, taken after the flow in one batched
    pass, on the runs of TestTheoremBatch."""

    RUNS = TestTheoremBatch.RUNS

    def test_samples_digest(self):
        # every MuSample field of the batch, as recorded before the samples
        # were taken after the flow in one batched pass
        results = theorem_property_runs(_start_runs(self.RUNS), horizon_frac=0.3,
                                        monitor_every=7)
        text = repr([dataclasses.astuple(s) for r in results for s in r.samples])
        assert sum(len(r.samples) for r in results) == 92
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f21816a1030e98626eefbd07ea43b28354014c3b4a3c876a3bc79691f59eb660")

    def test_runs_that_pass_one_curve_share_their_start(self):
        # 2 exponents x 2 curves: the two start curves, each passed to two
        # runs, give each run the results it has alone
        curves = [construct_curve(self.RUNS[k][0], 64) for k in (0, 2)]
        runs = [(curve, p) for p in (1.5, 3.0) for curve in curves]
        batch = theorem_property_runs(runs, horizon_frac=0.3, monitor_every=7)
        assert batch[0].samples[0] == batch[2].samples[0]
        serial = [theorem_property_run(self.RUNS[k][0], p, n=64, horizon_frac=0.3,
                                       monitor_every=7)
                  for p in (1.5, 3.0) for k in (0, 2)]
        assert batch == serial


# The frozen reference oracle: a theorem run's mu sample as a monitor callback
# took it on each snapshot before the samples were batched, copied verbatim.
def _mu_sample_reference(t: float, g) -> MuSample:
    rep = mu_report(g)
    a = rep.argmax
    return MuSample(
        t=t, mu=rep.mu, i=a.i, j=a.j, d=a.d, Z=a.Z,
        # Z with roles swapped, for the symmetry check at the maximizer.
        Z_ji=float(_z_pairs(g, a.j, a.i)), alpha=a.alpha,
        d_lt_inv_Z=(a.Z > 0.0 and a.d < 1.0 / a.Z),
        kappa_i=float(g.kappa[a.i]), kappa_j=float(g.kappa[a.j]),
    )


def _assert_samples_match_reference(states):
    """mu_samples against the reference on each state, every field compared
    with == and as exact text (repr tells -0.0 from 0.0)."""
    got = mu_samples(states)
    want = [_mu_sample_reference(s.t, embed_support(s.curve)) for s in states]
    assert got == want
    assert [repr(dataclasses.astuple(s)) for s in got] == [
        repr(dataclasses.astuple(s)) for s in want]


def _kept_states(spec, p, n, horizon_frac, monitor_every):
    """The snapshots of a theorem run."""
    curve = construct_curve(spec, n)
    return run_flow(curve,
                    FlowConfig(p=p, t_end=horizon_frac * estimated_extinction_time(curve, p),
                               monitor_every=monitor_every)).snapshots


def _seeded_spec(family: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if family == "ellipse":
        return {"ellipse": {"a": float(rng.uniform(1.02, 1.5)), "b": 1.0,
                            "phase": float(rng.uniform(0.0, 2.0 * np.pi))}}
    # sum |a_k| (k^2 - 1) <= 0.48 < R: strictly convex
    return {"fourier": {"R": 1.0, "modes": [
        [3, float(rng.uniform(-0.03, 0.03)), float(rng.uniform(0.0, 2.0 * np.pi))],
        [5, float(rng.uniform(-0.01, 0.01)), float(rng.uniform(0.0, 2.0 * np.pi))]]}}


class TestMuSamplesMatchReference:
    """The batched sampler against the frozen per-snapshot path."""

    @pytest.mark.parametrize("n, horizon_frac", [(64, 0.3), (128, 0.2), (512, 0.03)])
    @pytest.mark.parametrize("family", ["ellipse", "fourier"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_curves(self, n, horizon_frac, family, seed):
        p = (1.5, 2.0, 3.0)[seed % 3 + (family == "fourier")]
        states = _kept_states(_seeded_spec(family, seed), p, n, horizon_frac, 25)
        assert len(states) > 5
        _assert_samples_match_reference(states)

    def test_every_step(self):
        states = _kept_states(_seeded_spec("fourier", 2), 2.0, 64, 0.2, 1)
        assert len(states) > 50
        _assert_samples_match_reference(states)

    def test_batch_with_an_aborted_run(self):
        # the circle's timestep bound overflows: it aborts before its first
        # step, and its start snapshot is sampled with the others
        specs = [_seeded_spec("ellipse", 3), {"circle": {"R": 0.5}}, _seeded_spec("fourier", 3)]
        curves = [construct_curve(spec, 64) for spec in specs]
        cfgs = [FlowConfig(p=2.0, t_end=0.01, monitor_every=7),
                FlowConfig(p=1100.0, t_end=0.01), FlowConfig(p=3.0, t_end=0.01, monitor_every=5)]
        trajs = run_flows(curves, cfgs)
        assert [t.aborted for t in trajs] == [False, True, False]
        assert len(trajs[1].snapshots) == 1
        _assert_samples_match_reference([s for t in trajs for s in t.snapshots])

    def test_chunks_of_seven(self, monkeypatch):
        # 7 curves per chunk at n = 64, from two runs of one start curve
        monkeypatch.setattr(pcflow.identities, "BLOCK_ELEMS", 7 * 64)
        spec = _seeded_spec("ellipse", 4)
        curve = construct_curve(spec, 64)
        trajs = run_flows([curve] * 2,
                          [FlowConfig(p=p, t_end=0.2 * estimated_extinction_time(curve, p),
                                      monitor_every=3) for p in (1.5, 3.0)])
        states = trajs[0].snapshots + trajs[1].snapshots
        assert len(states) > 3 * 7
        _assert_samples_match_reference(states)

    @pytest.fixture(scope="class")
    def every_step_states(self):
        """More than 400 snapshots at n = 256, 64 curves per chunk."""
        states = _kept_states({"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.0]]}},
                              2.0, 256, 0.05, 1)
        assert len(states) > 400 and len(states) % (BLOCK_ELEMS // 256) != 0
        return states

    def test_chunk_boundary(self, every_step_states):
        _assert_samples_match_reference(every_step_states)

    def test_memory_is_bounded_by_the_chunk(self, every_step_states):
        # the sampler's peak above the snapshots it is given: the arrays of
        # one chunk of 64 curves, not of all the snapshots (which would
        # peak near 7.5 MB here)
        states = every_step_states
        tracemalloc.start()
        try:
            mu_samples(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * BLOCK_ELEMS * 8


class TestMu0Sweep:
    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            mu0_sweep([], "ellipse", [1.1])
        with pytest.raises(ConfigInvalid):
            mu0_sweep([2.0], "lemniscate", [1.1])
        # the last passing entry is reported as the largest
        for grid in ([1.1, 1.05], [1.05, 1.05]):
            with pytest.raises(ConfigInvalid, match="strictly ascending"):
                mu0_sweep([2.0], "ellipse", grid)

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
