"""Numerical verification of the flow's evolution equations and the
two-point calculus identities behind the non-collapsing argument.

All material-derivative checks run on the marker integrator (purely normal
motion), so the time derivative at a marker is an honest material
derivative with no gauge correction.

A theorem run (``theorem_property_run``, or many as one batch in
``theorem_property_runs``) takes no mu sample while it flows.  After the
flow, ``mu_samples`` turns the snapshots that the runs return into
``MuSample`` records in one batched pass, a chunk of curves at a time, with
the fields that ``mu_report`` gives on each snapshot's embedding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .config import SWEEP_DEFAULTS, ExperimentConfig, check_sweep, grid_size, in_range
from .curves import (
    BLOCK_ELEMS,
    CurveGeometry,
    SupportCurve,
    _next,
    _prev,
    construct_curve,
    embed_support,
    gauss_frame,
    geometry_of_markers,
    support_interpolant,
    support_positions,
)
from .errors import ConfigInvalid, NonFinite, PcflowError
from .flow import (
    FlowConfig,
    estimated_extinction_time,
    marker_dt,
    run_flow,
    run_flows,
    step_markers,
)
from .noncollapse import chord_maximizers, dot2, mu_pairs, refined_angles, z_at

# Central tolerance table.  The underlying theory fixes no numerics, so all
# discrete tolerances live here and nowhere else.
TOLERANCES = {
    # 4x the largest grid mu rise measured on a correct run (2.5e-3, p = 5, n = 128)
    "tol_mu": 0.01,
    # (2n, dt/4) quarters O(ds^2 + dt): order 2; each mutant has a variant <= 1.46
    "tol_order_joint": 1.5,
    # the rewrite relative to Sigma|terms| is a few eps (2.4e-16 on seeds 0-4)
    "tol_rewrite": 1e-11,
    # a first-order decay halves the trig residual per doubling, less 10%
    "factor_trig": 1.8,
    # 4x the 2m eps of support_interpolant's (m/2 + 1)-term sum on m points
    "floor_trig_per_n": 8.0 * 2.0 ** -52,
}


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one check across a refinement ladder, judged by
    ``verify``'s one convergence rule: the report passes iff its last
    residual lies below ``floor`` (round-off), or the ladder has two or more
    levels and every order is at least ``order_floor``.  Orders are ratios,
    and each nonzero floor bounds a dimensionless residual, so no verdict
    depends on the curve's size."""

    name: str
    resolutions: tuple          # ((n, dt), ...)
    residuals: tuple            # max-norm residual per resolution
    order_floor: float
    floor: float

    @property
    def orders(self) -> tuple:
        """log2 of each ratio of consecutive residuals; nan, no order, for a
        pair with a residual that is 0 or not finite."""
        r = self.residuals
        ratios = (a / b if 0.0 < b < math.inf else math.nan for a, b in zip(r, r[1:]))
        return tuple(math.log2(q) if 0.0 < q < math.inf else math.nan for q in ratios)

    @property
    def estimated_order(self) -> float:
        """The smallest order (``np.min``, so nan when some pair has none)."""
        return float(np.min(self.orders)) if self.orders else math.nan

    @property
    def passed(self) -> bool:
        return self.residuals[-1] < self.floor or self.estimated_order >= self.order_floor

    def to_dict(self) -> dict:
        """This report as ``verify.json`` writes it: resolutions as
        [[n, dt], ...], and an order that is not a finite number as null."""
        order = self.estimated_order
        return {
            "name": self.name,
            "resolutions": [[int(n), float(dt)] for n, dt in self.resolutions],
            "residuals": [float(r) for r in self.residuals],
            "estimated_order": order if math.isfinite(order) else None,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# evolution equations along the marker flow


def _arc_derivatives(pts: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Periodic centered first derivative and Laplacian in arc length of f,
    or of each row of f, sampled at the markers ``pts``."""
    l_fwd = np.hypot(*(_next(pts) - pts).T)
    l_bwd = np.hypot(*(pts - _prev(pts)).T)
    f_nxt = np.concatenate((f[..., 1:], f[..., :1]), axis=-1)
    f_prv = np.concatenate((f[..., -1:], f[..., :-1]), axis=-1)
    ds_f = (f_nxt - f_prv) / (l_bwd + l_fwd)
    lap_f = 2.0 / (l_bwd + l_fwd) * ((f_nxt - f) / l_fwd - (f - f_prv) / l_bwd)
    return ds_f, lap_f


VARIANTS = ("kappa_p", "kappa")


def kappa_evolution_residual(window: list[CurveGeometry], dt: float,
                             p: float) -> list[np.ndarray]:
    """Pointwise residuals of the curvature evolution equation, one per
    variant, in the order of VARIANTS.

    ``window`` is a list of >= 3 consecutive marker snapshots ``dt`` apart
    with unbroken material identity, as ``marker_window`` returns.  Variant
    ``kappa_p`` checks
    d/dt(kappa^p) - p kappa^(p-1) Lap(kappa^p) = p kappa^(p-1) kappa^(2+p);
    variant ``kappa`` checks
    d/dt kappa - p kappa^(p-1) Lap kappa = kappa^(2+p)
                                           + p(p-1) kappa^(p-2) |ds kappa|^2.
    Each residual is maximized over interior times.  The variants share each
    snapshot's kappa^p, p kappa^(p-1) and kappa^(2+p), and one
    ``_arc_derivatives`` call differentiates both their f at once.  A
    residual past the float range (p kappa^(2p+1) overflows first) raises
    NonFinite.
    """
    if len(window) < 3:
        raise ConfigInvalid("need at least 3 consecutive snapshots")
    m0 = window[0].m
    if any(g.m != m0 for g in window):
        raise ConfigInvalid("remeshing inside the window breaks material identity")

    kappas = [g.kappa for g in window]
    worst = [np.zeros(m0), np.zeros(m0)]
    with np.errstate(over="ignore", invalid="ignore"):
        f = [[kap ** p for kap in kappas], kappas]      # each variant's f, as in VARIANTS
        for k in range(1, len(window) - 1):
            kap = kappas[k]
            p_kap = p * kap ** (p - 1.0)
            kap_2p = kap ** (2.0 + p)
            ds_f, lap = _arc_derivatives(window[k].x, np.stack([fv[k] for fv in f]))
            rhs = (p_kap * kap_2p, kap_2p + p * (p - 1.0) * kap ** (p - 2.0) * ds_f[1] ** 2)
            for fv, lp, r, w in zip(f, lap, rhs, worst):
                res = (fv[k + 1] - fv[k - 1]) / (2.0 * dt) - p_kap * lp - r
                np.maximum(w, np.abs(res), out=w)
    if not all(np.isfinite(w).all() for w in worst):
        raise NonFinite("evolution residual exceeds the float range")
    return worst


def marker_window(curve: SupportCurve, cfg: FlowConfig, dt: float,
                  steps: int, speed_sign: float = -1.0) -> list[CurveGeometry]:
    """The markers of ``curve`` and each of ``steps`` fixed-dt marker steps."""
    window = [geometry_of_markers(embed_support(curve).x)]
    for _ in range(steps):
        window.append(step_markers(window[-1], cfg, dt, speed_sign))
    return window


def evolution_refinement_study(spec: dict, p: float, base_n: int = 64,
                               levels: int = 3, window_steps: int = 30,
                               sign_error: bool = False) -> list[ResidualReport]:
    """Residuals of the evolution equation under (n, dt) -> (2n, dt/4), one
    report per variant, in the order of VARIANTS.  The defaults are
    ``verify``'s ladder.

    Each (n, dt) level's marker window is stepped once, and both variants
    are evaluated on it.  ``sign_error`` flips the motion to +kappa^p nu; it
    exists only so the harness can demonstrate that a wrong flow fails the
    check.
    """
    cfg = FlowConfig(p=p)
    sign = +1.0 if sign_error else -1.0
    curve = construct_curve(spec, base_n)
    dt0 = 0.5 * marker_dt(geometry_of_markers(embed_support(curve).x), cfg)
    resolutions, residuals = [], []
    for lvl in range(levels):
        n = base_n << lvl
        dt = dt0 / 4.0 ** lvl
        if lvl:
            curve = construct_curve(spec, n)
        window = marker_window(curve, cfg, dt, window_steps, speed_sign=sign)
        resolutions.append((n, dt))
        residuals.append([float(np.max(res))
                          for res in kappa_evolution_residual(window, dt, p)])
    return [ResidualReport(
        name=f"kappa_evolution[{variant}]",
        resolutions=tuple(resolutions),
        residuals=tuple(level[k] for level in residuals),
        order_floor=TOLERANCES["tol_order_joint"],
        floor=0.0,
    ) for k, variant in enumerate(VARIANTS)]


# ---------------------------------------------------------------------------
# two-point identities at maximizing pairs


def _trig_sides(w: np.ndarray, tx: np.ndarray, ty: np.ndarray,
                alpha: list) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the trig identity
    1 - <ty, tx> + 2 <w, ty - tx><w, tx> = -2 cos^2(alpha), one per row of
    the (N, 2) chord directions w and tangents tx, ty and the contact angles
    alpha.  The tangent ty at the second point carries a sign freedom (the
    choice of coordinates there); it is fixed so that <ty, tx> =
    -cos(2 alpha), with the mirror configuration <w, ty> = -<w, tx> breaking
    ties.

    Each 2-vector dot is ``noncollapse.dot2`` (not a0 b0 + a1 b1), and the
    cosines are ``math.cos``.
    """
    dot = dot2(ty, tx).tolist()
    w_ty, w_tx = dot2(w, ty), dot2(w, tx)
    sign, rhs = [], []
    for a, dt, mirror in zip(alpha, dot, (w_ty * w_tx).tolist()):
        cos_a = math.cos(a)
        if cos_a > 1e-2:
            # Mirror configuration: the tangency chord reflects the tangent at
            # x onto the one at y, so <w, ty> and <w, tx> get opposite signs.
            sign.append(-1.0 if mirror > 0.0 else 1.0)
        else:
            # Near-diametral chords (<w, t> ~ 0, where the mirror rule is
            # degenerate): match <ty, tx> = -cos(2 alpha) instead.
            c2 = math.cos(2.0 * a)
            sign.append(1.0 if abs(dt + c2) < abs(-dt + c2) else -1.0)
        rhs.append(-2.0 * cos_a ** 2)
    ty = ty * np.array(sign)[:, None]
    lhs = 1.0 - dot2(ty, tx) + 2.0 * dot2(w, ty - tx) * w_tx
    return lhs, np.array(rhs)


def _refined_trig(c: SupportCurve, g, i: np.ndarray,
                  theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, residual, alpha) of the refined trig check at each point i of
    ``c``'s embedding ``g`` against the interpolated point at its angle
    theta, as ``refined_angles`` gives them, all pairs at once; chords
    shorter than 1e-12 are skipped."""
    y, ty = support_interpolant(c, theta)
    diff = g.x[i] - y
    d = np.hypot(diff[:, 0], diff[:, 1])
    keep = ~(d < 1e-12)
    i, diff, d, ty = i[keep], diff[keep], d[keep], ty[keep]
    w = diff / d[:, None]
    alpha = [math.asin(min(1.0, abs(v))) for v in dot2(w, g.normal[i]).tolist()]
    lhs, rhs = _trig_sides(w, g.tangent[i], ty, alpha)
    return i, np.abs(lhs - rhs), np.array(alpha)


def trig_refined_profile(c: SupportCurve) -> float:
    """Max trig-identity residual over sub-grid refined maximizing pairs.

    The grid argmax of Z(i, .) is dyadically sticky (its offset from the
    continuum tangency point need not shrink when n doubles), so residual
    decay under refinement is measured here instead: each maximizer is
    refined by one parabolic step through the three grid samples around
    the argmax, and the configuration is evaluated spectrally at the
    interpolated angle.  Pairs whose j - 1 or j + 1 lies in the diagonal
    band, and chords shorter than 1e-12, are skipped.

    All pairs are evaluated at once: the three-point Z, the shift, the
    angles and chords as arrays, the interpolant as one blocked evaluator
    call.  Only the arcsine and cosines are ``math`` calls per pair.
    """
    g = embed_support(c)
    _, residual, _ = _refined_trig(c, g, *refined_angles(g, *chord_maximizers(g)))
    return max([0.0, *residual.tolist()])


# ---------------------------------------------------------------------------
# algebraic rewrite equivalence (pure two-point algebra, no curve)


def _dot(a, b) -> float:
    """<a, b> of two float pairs."""
    return a[0] * b[0] + a[1] * b[1]


def rewrite_equivalence_check(kappa: float, kappa_y: float, Z: float, d: float,
                              mu: float, p: float, tx: tuple, ty: tuple, w: tuple,
                              grad_kappa: float) -> float:
    """Relative difference of the two equivalent right-hand-side forms at one
    two-point configuration: Python floats, and float pairs for the tangents
    tx, ty and the chord direction w.

    Form A is the raw grouped expression; form B regroups the chord terms
    around the factor 1 - <ty,tx> + 2<w, ty - tx><w, tx> + (1-p)/(2p).
    With grad kappa set from the first-order condition
    grad kappa = (2/(mu d))(kappa - Z) <w, tx>, the two forms agree as
    polynomials for any values: neither unit vectors nor Z = 2<w, nu>/d is
    needed.  Both are evaluated term by term; the difference is normalized
    by the sum of term magnitudes, so the result is round-off level.
    """
    k, ky, gk = kappa, kappa_y, grad_kappa
    dk2 = gk * gk
    tyx = _dot(ty, tx)
    w_tx = _dot(w, tx)
    w_ty = _dot(w, ty)

    terms_a = [
        -mu * k ** (p + 2.0),
        -mu * p * (p - 1.0) * k ** (p - 2.0) * dk2,
        p * k ** (p + 1.0) * Z,
        -2.0 * (1.0 + p) / d ** 2 * k ** p,
        4.0 * p / d ** 2 * k ** p * tyx,
        2.0 / d ** 2 * ky ** p,
        -2.0 * p / d ** 2 * k ** (p - 1.0) * ky,
        4.0 * p / d ** 2 * k ** (p - 1.0) * Z,
        -4.0 * p / d ** 2 * k ** (p - 1.0) * Z * tyx,
        (1.0 - p) * k ** p * Z * Z,
        4.0 * p * mu / d * k ** (p - 1.0) * gk * (w_tx - w_ty),
    ]
    bracket = 1.0 - tyx + 2.0 * (w_ty - w_tx) * w_tx + (1.0 - p) / (2.0 * p)
    terms_b = [
        -(mu * k - p * Z) * k ** (p + 1.0),
        -mu * p * (p - 1.0) * k ** (p - 2.0) * dk2,
        2.0 / d ** 2 * ky ** p,
        -2.0 * p / d ** 2 * k ** (p - 1.0) * ky,
        (1.0 - p) * k ** p * Z * Z,
        4.0 * p / d ** 2 * k ** (p - 1.0) * (Z - k) * bracket,
        2.0 * (p - 1.0) / d ** 2 * Z * k ** (p - 1.0),
    ]
    a, b = math.fsum(terms_a), math.fsum(terms_b)
    scale = max(1e-300, sum(abs(t) for t in terms_a) + sum(abs(t) for t in terms_b))
    return abs(a - b) / scale


def random_consistent_sample(rng: random.Random) -> dict:
    """The keyword arguments of ``rewrite_equivalence_check`` at a random
    two-point configuration: unit tx, ty and w with Z = 2<w, nu>/d, where nu
    is tx rotated by -pi/2, and grad kappa from the first-order condition."""
    psi = rng.uniform(0.0, 2.0 * math.pi)
    tx = (math.cos(psi), math.sin(psi))
    nu = (tx[1], -tx[0])
    alpha = rng.uniform(0.05, 0.5 * math.pi)
    side = -1.0 if rng.random() < 0.5 else 1.0
    s_a, c_a = math.sin(alpha), side * math.cos(alpha)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    d = rng.uniform(0.2, 3.0)
    kappa, kappa_y = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
    mu, p = rng.uniform(1.0001, 2.0), rng.uniform(1.1, 4.0)
    Z = 2.0 * math.sin(alpha) / d
    w = (s_a * nu[0] + c_a * tx[0], s_a * nu[1] + c_a * tx[1])
    return {"kappa": kappa, "kappa_y": kappa_y, "Z": Z, "d": d, "mu": mu, "p": p,
            "tx": tx, "ty": (math.cos(phi), math.sin(phi)), "w": w,
            "grad_kappa": (2.0 / (mu * d)) * (kappa - Z) * _dot(w, tx)}


# Samples of verify's rewrite sweep.
REWRITE_SAMPLES = 1000


def rewrite_equivalence_sweep(seed: int = 0) -> float:
    """Max relative rewrite residual over REWRITE_SAMPLES random samples drawn
    from the stdlib stream ``random.Random(seed)``."""
    rng = random.Random(seed)
    return max(
        rewrite_equivalence_check(**random_consistent_sample(rng))
        for _ in range(REWRITE_SAMPLES)
    )


# ---------------------------------------------------------------------------
# theorem-level property: preservation of mu along the flow


@dataclass(frozen=True)
class MuSample:
    t: float
    mu: float
    i: int
    j: int
    d: float
    Z: float
    Z_ji: float
    alpha: float
    d_lt_inv_Z: bool
    kappa_i: float
    kappa_j: float


@dataclass(frozen=True)
class TheoremRunResult:
    mu0: float
    mu_end: float
    mu_max: float
    passed: bool
    samples: tuple[MuSample, ...] = field(repr=False, default=())


def mu_samples(states) -> list[MuSample]:
    """The MuSample of each of the ``FlowState`` objects ``states``, whose
    curves share a grid, taken in one batched pass.

    Every field equals that of ``mu_report(embed_support(state.curve))`` and
    of Z at the maximizer's pair with roles swapped.  A curve that several
    states share is sampled once.  The curves go in chunks of
    ``BLOCK_ELEMS // n`` (at least 1), so that each per-point array of a
    chunk holds at most BLOCK_ELEMS values: their support rows are stacked and embedded by
    ``support_positions``, ``mu_pairs`` finds each mu, its pair and the
    pair's chord, scanning exactly only the rows that its pre-scan leaves,
    and Z_ji and the curvatures are array operations over the chunk.
    """
    slots: dict[int, int] = {}
    curves = []
    for state in states:
        if id(state.curve) not in slots:
            slots[id(state.curve)] = len(curves)
            curves.append(state.curve)
    per = max(1, BLOCK_ELEMS // curves[0].n) if curves else 1
    fields = [f for k in range(0, len(curves), per) for f in _mu_fields(curves[k:k + per])]
    return [MuSample(state.t, *fields[slots[id(state.curve)]]) for state in states]


def _mu_fields(curves: list[SupportCurve]) -> list[tuple]:
    """The MuSample fields after t of each of ``curves``, which share a grid,
    in the order of the dataclass."""
    kappa = np.stack([c.kappa for c in curves])
    x = support_positions(np.stack([c.h for c in curves]))
    nu = gauss_frame(kappa.shape[1])[1]
    mu, i, j, (d, _, Z, alpha) = mu_pairs(x, nu, kappa)
    s = np.arange(len(curves))
    # Z with roles swapped, for the symmetry check at the maximizer.
    Z_ji = z_at(x[s, j], nu[j], x[s, i])
    with np.errstate(divide="ignore", over="ignore"):
        d_lt_inv_z = (Z > 0.0) & (d < 1.0 / Z)
    return list(zip(mu.tolist(), i.tolist(), j.tolist(), d.tolist(),
                    Z.tolist(), Z_ji.tolist(), alpha.tolist(), d_lt_inv_z.tolist(),
                    kappa[s, i].tolist(), kappa[s, j].tolist()))


def _theorem_config(curve: SupportCurve, p: float, horizon_frac: float, sigma: float,
                    monitor_every: int) -> FlowConfig:
    """The config of the theorem run of ``curve`` at p."""
    t_end = in_range("horizon_frac", horizon_frac) * estimated_extinction_time(curve, p)
    return FlowConfig(p=p, sigma=sigma, t_end=t_end, monitor_every=monitor_every)


def _theorem_results(trajs) -> list[TheoremRunResult]:
    """The results of the theorem runs with trajectories ``trajs``, whose
    snapshots are all sampled by one ``mu_samples`` call.  The first run
    that aborted raises PcflowError."""
    for traj in trajs:
        if traj.aborted:
            raise PcflowError(f"flow aborted during theorem run: {traj.terminal_reason}")
    samples = iter(mu_samples([state for traj in trajs for state in traj.snapshots]))
    results = []
    for traj in trajs:
        run = tuple(next(samples) for _ in traj.snapshots)
        mus = np.array([sample.mu for sample in run])
        mu0, mu_end, mu_max = float(mus[0]), float(mus[-1]), float(np.max(mus))
        results.append(TheoremRunResult(
            mu0=mu0, mu_end=mu_end, mu_max=mu_max,
            passed=mu_max <= mu0 + TOLERANCES["tol_mu"], samples=run,
        ))
    return results


# The horizon of a theorem run, as a fraction of the extinction estimate.
THEOREM_HORIZON_FRAC = 0.8


def theorem_property_runs(runs: list[tuple[SupportCurve, float]],
                          horizon_frac: float = THEOREM_HORIZON_FRAC,
                          sigma: float = ExperimentConfig.sigma,
                          monitor_every: int = ExperimentConfig.monitor_every
                          ) -> list[TheoremRunResult]:
    """The theorem run of each (start curve, p) of ``runs``, as
    ``theorem_property_run`` takes it, with all the flows stepped as one
    batch by ``run_flows``.  Runs that pass the same curve object share it
    read-only, so its t = 0 sample is taken once.  Every config is built
    before any run steps, so a bad p or horizon raises ConfigInvalid first;
    after the flow, the first run that aborted raises PcflowError."""
    cfgs = [_theorem_config(curve, p, horizon_frac, sigma, monitor_every)
            for curve, p in runs]
    return _theorem_results(run_flows([curve for curve, _ in runs], cfgs))


def theorem_property_run(spec: dict, p: float, n: int = ExperimentConfig.n,
                         horizon_frac: float = THEOREM_HORIZON_FRAC,
                         sigma: float = ExperimentConfig.sigma,
                         monitor_every: int = ExperimentConfig.monitor_every
                         ) -> TheoremRunResult:
    """Evolve a convex curve and test preservation of the ratio mu: the
    one-run case of ``theorem_property_runs``, on ``construct_curve(spec,
    n)``.  Its flow is ``run_flow``, the one-row ``run_flows``, which
    benchmarks/tracing.py times as the flow layer.

    mu is sampled after the flow, by ``mu_samples``, on every snapshot that
    the run returns (see ``run_flows``).  Passes iff
    max_t mu(t) <= mu(0) + ``TOLERANCES["tol_mu"]`` over the horizon
    ``horizon_frac`` times the inscribed-circle extinction estimate.
    """
    curve = construct_curve(spec, n)
    cfg = _theorem_config(curve, p, horizon_frac, sigma, monitor_every)
    return _theorem_results([run_flow(curve, cfg)])[0]


def mu0_sweep(p_values, family: str, grid, n: int = SWEEP_DEFAULTS["n"],
              horizon_frac: float = SWEEP_DEFAULTS["horizon_frac"],
              sigma: float = ExperimentConfig.sigma) -> list[dict]:
    """Empirical estimate of the largest preserved initial mu per exponent.

    Scans the curve family over ``grid`` (strictly ascending shape
    parameters) and reports, per p, the largest parameter whose run
    preserves mu.  The arguments meet ``config.check_sweep``.  Every grid
    entry's curve is built first, once, and one that fails raises
    ConfigInvalid naming the entry; then all len(p_values) x len(grid) runs,
    sampled every ``ExperimentConfig.monitor_every`` steps, are one batch.
    The output is an observation about the discrete runs, not a proved
    threshold; callers must label it EMPIRICAL.
    """
    p_values, grid = list(p_values), list(grid)
    check_sweep(p_values, family, grid)
    curves = []
    for param in grid:
        spec = ({"ellipse": {"a": param, "b": 1.0}} if family == "ellipse"
                else {"fourier": {"R": 1.0, "modes": [[3, param, 0.0]]}})
        try:
            curves.append(construct_curve(spec, n))
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"sweep.grid: entry {param!r}: {exc}") from exc
    results = theorem_property_runs([(curve, p) for p in p_values for curve in curves],
                                    horizon_frac, sigma)
    rows = []
    for j, p in enumerate(p_values):
        row = results[j * len(grid):(j + 1) * len(grid)]
        passes = [result.passed for result in row]
        last = max((k for k, ok in enumerate(passes) if ok), default=None)
        rows.append({"p": p, "family": family, "param": float("nan"),
                     "mu0_empirical": 1.0, "pass": "no"} if last is None else
                    {"p": p, "family": family, "param": grid[last],
                     "mu0_empirical": row[last].mu0,
                     "pass": "yes" if all(passes[:last + 1]) else "ambiguous"})
    return rows


# ---------------------------------------------------------------------------
# the verify suite


def verify_suite(spec: dict, p: float, n: int, seed: int,
                 sign_error: bool = False) -> dict:
    """{"reports": [...], "pass": all pass} of ``pcflow verify``, each report
    a ``ResidualReport`` with (order floor, floor): both evolution variants
    (``tol_order_joint``, 0: their residuals carry units), the seeded rewrite
    sweep as one level (inf, ``tol_rewrite``), and the refined trig residual
    at n and 2n (log2 ``factor_trig``, ``floor_trig_per_n`` * 2n)."""
    grid_size(2 * n, "verify grid 2n")  # first: the O(n^2) profile at n comes before 2n
    reports = evolution_refinement_study(spec, p, sign_error=sign_error)
    reports.append(ResidualReport(
        "rewrite_equivalence", ((REWRITE_SAMPLES, 0.0),), (rewrite_equivalence_sweep(seed),),
        order_floor=math.inf, floor=TOLERANCES["tol_rewrite"]))
    reports.append(ResidualReport(
        "trig_identity", ((n, 0.0), (2 * n, 0.0)),
        tuple(trig_refined_profile(construct_curve(spec, k)) for k in (n, 2 * n)),
        order_floor=math.log2(TOLERANCES["factor_trig"]),
        floor=TOLERANCES["floor_trig_per_n"] * 2 * n))
    dicts = [rep.to_dict() for rep in reports]
    return {"reports": dicts, "pass": all(d["pass"] for d in dicts)}
