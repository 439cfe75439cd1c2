"""Numerical verification of the flow's evolution equations and the
two-point calculus identities behind the non-collapsing argument.

All material-derivative checks run on the marker integrator (purely normal
motion), so the time derivative at a marker is an honest material
derivative with no gauge correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import grid_size
from .curves import (
    CurveGeometry,
    SupportCurve,
    construct_curve,
    embed_support,
    geometry_of_markers,
    support_interpolant,
)
from .errors import ConfigInvalid, PcflowError
from .flow import (
    FlowConfig,
    FlowState,
    estimated_extinction_time,
    marker_dt,
    run_flow,
    run_flows,
    step_markers,
)
from .noncollapse import DIAG_WINDOW, _z_pairs, chord_config, mu_report, row_scan

# Central tolerance table.  The underlying theory fixes no numerics, so all
# discrete tolerances live here and nowhere else.
TOLERANCES = {
    "tol_mu": 0.01,        # drift allowance for mu(t) at n = 512
    "tol_alpha": 0.02,     # rad, slack on the alpha <= pi/4 bound at n = 512
    "tol_sym": 5e-3,       # relative, Z symmetry at the maximizing pair
    "tol_order_joint": 1.5,        # order floor for (n, dt) -> (2n, dt/4)
    "tol_rewrite": 1e-11,          # relative, pure-algebra rewrite check
    "ceil_evolution": 5e-2,        # final-residual ceiling, evolution eqs
    "ceil_trig": 1e-2,             # trig identity residual at n = 512
    "factor_trig": 1.8,            # residual drop per grid doubling
    "floor_trig_per_n": 8.0 * 2.0 ** -52,  # trig round-off floor / n: 4 (2n) eps
    # covers support_interpolant's (n/2 + 1)-term sum; >= 1e-13 from n = 64 on
    "factor_first_order": 1.8,
}


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one identity across a refinement ladder."""

    name: str
    resolutions: tuple          # ((n, dt), ...)
    residuals: tuple            # max-norm residual per resolution
    order_floor: float
    ceiling: float

    @property
    def orders(self) -> tuple:
        return tuple(
            math.log2(self.residuals[k] / self.residuals[k + 1])
            for k in range(len(self.residuals) - 1)
        )

    @property
    def estimated_order(self) -> float:
        return min(self.orders) if self.orders else float("nan")

    @property
    def passed(self) -> bool:
        return (self.estimated_order >= self.order_floor
                and self.residuals[-1] <= self.ceiling)

    def to_dict(self) -> dict:
        return _record(self.name, self.resolutions, self.residuals,
                       self.estimated_order, self.passed)


def _record(name: str, resolutions, residuals, order: float, passed) -> dict:
    """One ``verify.json`` report: resolutions as [[n, dt], ...]."""
    return {
        "name": name,
        "resolutions": [[int(n), float(dt)] for n, dt in resolutions],
        "residuals": [float(r) for r in residuals],
        "estimated_order": float(order),
        "pass": bool(passed),
    }


# ---------------------------------------------------------------------------
# evolution equations along the marker flow


def _arc_derivatives(pts: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Periodic centered first derivative and Laplacian of f in arc length."""
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    l_fwd = np.hypot(*(nxt - pts).T)
    l_bwd = np.hypot(*(pts - prv).T)
    f_nxt = np.roll(f, -1)
    f_prv = np.roll(f, 1)
    ds_f = (f_nxt - f_prv) / (l_bwd + l_fwd)
    lap_f = 2.0 / (l_bwd + l_fwd) * ((f_nxt - f) / l_fwd - (f - f_prv) / l_bwd)
    return ds_f, lap_f


def kappa_evolution_residual(window: list[CurveGeometry], dt: float, p: float,
                             variant: str = "kappa_p") -> np.ndarray:
    """Pointwise residual of the curvature evolution equation.

    ``window`` is a list of >= 3 consecutive marker snapshots ``dt`` apart
    with unbroken material identity, as ``marker_window`` returns.  Variant
    ``kappa_p`` checks
    d/dt(kappa^p) - p kappa^(p-1) Lap(kappa^p) = p kappa^(p-1) kappa^(2+p);
    variant ``kappa`` checks
    d/dt kappa - p kappa^(p-1) Lap kappa = kappa^(2+p)
                                           + p(p-1) kappa^(p-2) |ds kappa|^2.
    Returns the per-marker residual maximized over interior times.
    """
    if len(window) < 3:
        raise ConfigInvalid("need at least 3 consecutive snapshots")
    if variant not in ("kappa_p", "kappa"):
        raise ConfigInvalid(f"unknown variant '{variant}'")
    m0 = window[0].m
    if any(g.m != m0 for g in window):
        raise ConfigInvalid("remeshing inside the window breaks material identity")

    kappas = [g.kappa for g in window]
    worst = np.zeros(m0)
    for k in range(1, len(window) - 1):
        pts = window[k].x
        kap = kappas[k]
        if variant == "kappa_p":
            f_prev, f_mid, f_next = kappas[k - 1] ** p, kap ** p, kappas[k + 1] ** p
            dfdt = (f_next - f_prev) / (2.0 * dt)
            _, lap = _arc_derivatives(pts, f_mid)
            rhs = p * kap ** (p - 1.0) * kap ** (2.0 + p)
            res = dfdt - p * kap ** (p - 1.0) * lap - rhs
        else:
            dfdt = (kappas[k + 1] - kappas[k - 1]) / (2.0 * dt)
            ds_k, lap = _arc_derivatives(pts, kap)
            rhs = kap ** (2.0 + p) + p * (p - 1.0) * kap ** (p - 2.0) * ds_k ** 2
            res = dfdt - p * kap ** (p - 1.0) * lap - rhs
        worst = np.maximum(worst, np.abs(res))
    return worst


def marker_window(curve: SupportCurve, cfg: FlowConfig, dt: float,
                  steps: int, speed_sign: float = -1.0) -> list[CurveGeometry]:
    """The markers of ``curve`` and each of ``steps`` fixed-dt marker steps."""
    window = [geometry_of_markers(embed_support(curve).x)]
    for _ in range(steps):
        window.append(step_markers(window[-1], cfg, dt, speed_sign))
    return window


def evolution_refinement_study(spec: dict, p: float, variant: str = "kappa_p",
                               base_n: int = 128, levels: int = 3,
                               window_steps: int = 50,
                               sign_error: bool = False) -> ResidualReport:
    """Residuals of the evolution equation under (n, dt) -> (2n, dt/4).

    ``sign_error`` flips the motion to +kappa^p nu; it exists only so the
    harness can demonstrate that a wrong flow fails the check.
    """
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
        res = kappa_evolution_residual(window, dt, p, variant)
        resolutions.append((n, dt))
        residuals.append(float(np.max(res)))
    return ResidualReport(
        name=f"kappa_evolution[{variant}]",
        resolutions=tuple(resolutions),
        residuals=tuple(residuals),
        order_floor=TOLERANCES["tol_order_joint"],
        ceiling=TOLERANCES["ceil_evolution"],
    )


# ---------------------------------------------------------------------------
# two-point identities at maximizing pairs


def first_order_condition_check(g, mu: float, i: int, j: int) -> tuple[float, float]:
    """Residual of ds kappa = (2/(mu d))(kappa - Z) <w, tangent> at (i, j).

    Returns (residual, scale) where scale = kappa^2 * ds is the expected
    O(grid) magnitude of the discrete critical-point error.
    """
    cfg_pt = chord_config(g, i, j)
    ds_k, _ = _arc_derivatives(g.x, g.kappa)
    w = np.array(cfg_pt.w)
    rhs = (2.0 / (mu * cfg_pt.d)) * (g.kappa[i] - cfg_pt.Z) * float(w @ g.tangent[i])
    residual = abs(float(ds_k[i]) - rhs)
    scale = float(g.kappa[i]) ** 2 * float(g.ds[i])
    return residual, scale


@dataclass(frozen=True)
class TrigCheck:
    lhs: float
    rhs: float          # -2 cos^2(alpha)
    residual: float
    alpha: float


def trig_identity_check(g, i: int, j: int) -> TrigCheck:
    """Check 1 - <ty, tx> + 2 <w, ty - tx><w, tx> = -2 cos^2(alpha).

    The tangent at j carries a sign freedom (choice of coordinates at the
    second point); it is fixed so that <ty, tx> = -cos(2 alpha), with the
    mirror configuration <w, ty> = -<w, tx> breaking ties.
    """
    cfg_pt = chord_config(g, i, j)
    return _trig_check(np.array(cfg_pt.w), g.tangent[i], g.tangent[j], cfg_pt.alpha)


def _trig_check(w: np.ndarray, tx: np.ndarray, ty: np.ndarray,
                alpha: float) -> TrigCheck:
    """The trig identity for chord direction w, tangents tx, ty and contact
    angle alpha, after fixing the sign of ty (see ``trig_identity_check``)."""
    c2 = math.cos(2.0 * alpha)
    dot = float(ty @ tx)
    if math.cos(alpha) > 1e-2:
        # Mirror configuration: the tangency chord reflects the tangent at
        # x onto the one at y, so <w, ty> and <w, tx> get opposite signs.
        sign = -1.0 if float(w @ ty) * float(w @ tx) > 0.0 else 1.0
    else:
        # Near-diametral chords (<w, t> ~ 0, where the mirror rule is
        # degenerate): match <ty, tx> = -cos(2 alpha) instead.
        sign = 1.0 if abs(dot + c2) < abs(-dot + c2) else -1.0
    ty = sign * ty
    lhs = 1.0 - float(ty @ tx) + 2.0 * float(w @ (ty - tx)) * float(w @ tx)
    rhs = -2.0 * math.cos(alpha) ** 2
    return TrigCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), alpha=alpha)


def _chord_maximizers(g) -> list[tuple[int, int]]:
    """(i, argmax_j Z(i, j)) for every point whose inscribed curvature is
    attained by a chord; points where the osculating circle beats every
    chord have no chord configuration and are skipped."""
    row_max, row_arg = row_scan(g)
    return [(int(i), int(row_arg[i]))
            for i in np.flatnonzero(row_max > g.kappa * (1.0 + 1e-9))]


def trig_refined_profile(c: SupportCurve) -> float:
    """Max trig-identity residual over sub-grid refined maximizing pairs.

    The grid argmax of Z(i, .) is dyadically sticky (its offset from the
    continuum tangency point need not shrink when n doubles), so residual
    decay under refinement is measured here instead: each maximizer is
    refined by one parabolic step through the three grid samples around
    the argmax, and the configuration is evaluated spectrally at the
    interpolated angle.
    """
    g = embed_support(c)
    m = g.m
    support_at = support_interpolant(c)
    worst = 0.0
    for i, j in _chord_maximizers(g):
        if (i - j) % m in (DIAG_WINDOW + 1, m - DIAG_WINDOW - 1):
            continue  # j - 1 or j + 1 lies in the excluded diagonal band
        zm, z0, zp = _z_pairs(g, i, np.array([j - 1, j, j + 1]) % m)
        denom = zm - 2.0 * z0 + zp
        shift = 0.0 if denom == 0.0 else float(np.clip(0.5 * (zm - zp) / denom, -0.5, 0.5))
        theta_y = 2.0 * np.pi * (j + shift) / m
        y, _, ty = support_at(theta_y)
        diff = g.x[i] - y
        d = float(np.hypot(diff[0], diff[1]))
        if d < 1e-12:
            continue
        w = diff / d
        alpha = math.asin(min(1.0, abs(float(w @ g.normal[i]))))
        worst = max(worst, _trig_check(w, g.tangent[i], ty, alpha).residual)
    return worst


def trig_residual_profile(g) -> float:
    """Max trig-identity residual over per-point maximizing pairs."""
    return max((trig_identity_check(g, i, j).residual
                for i, j in _chord_maximizers(g)), default=0.0)


# ---------------------------------------------------------------------------
# algebraic rewrite equivalence (pure two-point algebra, no curve)


@dataclass(frozen=True)
class TwoPointSample:
    """Synthetic two-point configuration for the algebraic rewrite check.

    The gradient of kappa is *set* from the first-order condition
    grad kappa = (2/(mu d))(kappa - Z) <w, tx>, which is the substitution
    under which the two expressions agree identically.
    """

    kappa: float
    kappa_y: float
    Z: float
    d: float
    mu: float
    p: float
    tx: tuple[float, float]
    ty: tuple[float, float]
    w: tuple[float, float]

    def __post_init__(self):
        for name in ("kappa", "kappa_y", "Z", "d", "mu"):
            if not getattr(self, name) > 0.0:
                raise ConfigInvalid(f"{name} must be positive")
        if not self.p > 1.0:
            raise ConfigInvalid("p must exceed 1")
        for name in ("tx", "ty", "w"):
            v = np.array(getattr(self, name))
            if abs(float(v @ v) - 1.0) > 1e-9:
                raise ConfigInvalid(f"{name} must be a unit vector")
        nu = self.nu
        z_cons = 2.0 * float(np.array(self.w) @ nu) / self.d
        if abs(z_cons - self.Z) > 1e-9 * max(1.0, abs(self.Z)):
            raise ConfigInvalid("sample violates Z = 2<w, nu>/d")

    @property
    def nu(self) -> np.ndarray:
        tx = self.tx
        return np.array([tx[1], -tx[0]])   # tangent rotated by -pi/2

    @property
    def grad_kappa(self) -> float:
        w = np.array(self.w)
        tx = np.array(self.tx)
        return (2.0 / (self.mu * self.d)) * (self.kappa - self.Z) * float(w @ tx)


def rewrite_equivalence_check(s: TwoPointSample) -> float:
    """Relative difference of the two equivalent right-hand-side forms.

    Form A is the raw grouped expression; form B regroups the chord terms
    around the factor 1 - <ty,tx> + 2<w, ty - tx><w, tx> + (1-p)/(2p).
    Both are evaluated term by term; the difference is normalized by the
    sum of term magnitudes, so the result is round-off level (pure algebra).
    """
    k, ky, Z, d, mu, p = s.kappa, s.kappa_y, s.Z, s.d, s.mu, s.p
    tx, ty, w = np.array(s.tx), np.array(s.ty), np.array(s.w)
    gk = s.grad_kappa
    dk2 = gk * gk
    tyx = float(ty @ tx)
    w_tx = float(w @ tx)
    w_ty = float(w @ ty)

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


def random_consistent_sample(rng: np.random.Generator) -> TwoPointSample:
    """Draw a random sample satisfying the Z = 2<w, nu>/d constraint."""
    psi = rng.uniform(0.0, 2.0 * np.pi)
    tx = (math.cos(psi), math.sin(psi))
    nu = np.array([tx[1], -tx[0]])
    txv = np.array(tx)
    alpha = rng.uniform(0.05, 0.5 * np.pi)
    side = rng.choice([-1.0, 1.0])
    w = math.sin(alpha) * nu + side * math.cos(alpha) * txv
    phi = rng.uniform(0.0, 2.0 * np.pi)
    d = rng.uniform(0.2, 3.0)
    return TwoPointSample(
        kappa=rng.uniform(0.3, 3.0),
        kappa_y=rng.uniform(0.3, 3.0),
        Z=2.0 * math.sin(alpha) / d,
        d=d,
        mu=rng.uniform(1.0001, 2.0),
        p=rng.uniform(1.1, 4.0),
        tx=tx,
        ty=(math.cos(phi), math.sin(phi)),
        w=(float(w[0]), float(w[1])),
    )


def rewrite_equivalence_sweep(n_samples: int = 1000, seed: int = 0) -> float:
    """Max relative rewrite residual over seeded random samples."""
    if n_samples < 1:
        raise ConfigInvalid("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    return max(
        rewrite_equivalence_check(random_consistent_sample(rng))
        for _ in range(n_samples)
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


def _mu_sample(t: float, g) -> MuSample:
    rep = mu_report(g)
    a = rep.argmax
    return MuSample(
        t=t, mu=rep.mu, i=a.i, j=a.j, d=a.d, Z=a.Z,
        # Z with roles swapped, for the symmetry check at the maximizer.
        Z_ji=float(_z_pairs(g, a.j, a.i)), alpha=a.alpha,
        d_lt_inv_Z=(a.Z > 0.0 and a.d < 1.0 / a.Z),
        kappa_i=float(g.kappa[a.i]), kappa_j=float(g.kappa[a.j]),
    )


def _theorem_start(spec: dict, p: float, n: int, horizon_frac: float, sigma: float,
                   monitor_every: int):
    """The start state, config and mu monitor of one theorem run, and the
    list the monitor fills."""
    if not 0.0 < horizon_frac <= 0.9:
        raise ConfigInvalid("horizon_frac must lie in (0, 0.9]")
    curve = construct_curve(spec, n)
    t_end = horizon_frac * estimated_extinction_time(curve, p)
    cfg = FlowConfig(p=p, sigma=sigma, t_end=t_end, monitor_every=monitor_every)
    samples: list[MuSample] = []

    def monitor(state: FlowState) -> None:
        samples.append(_mu_sample(state.t, embed_support(state.curve)))

    return FlowState(t=0.0, curve=curve), cfg, monitor, samples


def _theorem_result(traj, samples: list[MuSample]) -> TheoremRunResult:
    if traj.aborted:
        raise PcflowError(f"flow aborted during theorem run: {traj.terminal_reason}")
    mus = np.array([s.mu for s in samples])
    mu0, mu_end, mu_max = float(mus[0]), float(mus[-1]), float(np.max(mus))
    return TheoremRunResult(
        mu0=mu0, mu_end=mu_end, mu_max=mu_max,
        passed=mu_max <= mu0 + TOLERANCES["tol_mu"], samples=tuple(samples),
    )


def theorem_property_runs(runs: list[tuple[dict, float]], n: int = 512,
                          horizon_frac: float = 0.8, sigma: float = 0.4,
                          monitor_every: int = 50) -> list[TheoremRunResult]:
    """``theorem_property_run`` of each (spec, p) of ``runs``, with all the
    flows stepped as one batch by ``run_flows``.  The first error of the runs
    taken one after another is raised: a run that aborts raises PcflowError
    before a later run's curve or config is checked."""
    starts, error = [], None
    for spec, p in runs:
        try:
            starts.append(_theorem_start(spec, p, n, horizon_frac, sigma, monitor_every))
        except PcflowError as exc:
            error = exc
            break
    trajs = run_flows([s[0] for s in starts], [s[1] for s in starts],
                      [[s[2]] for s in starts])
    results = [_theorem_result(traj, s[3]) for traj, s in zip(trajs, starts)]
    if error is not None:
        raise error
    return results


def theorem_property_run(spec: dict, p: float, n: int = 512,
                         horizon_frac: float = 0.8, sigma: float = 0.4,
                         monitor_every: int = 50) -> TheoremRunResult:
    """Evolve a convex curve and test preservation of the ratio mu: the
    one-run case of ``theorem_property_runs``.  Its flow is ``run_flow``,
    the one-row ``run_flows``, which benchmarks/tracing.py times as the
    flow layer.

    mu is sampled on every snapshot of the run (see ``run_flows``).  Passes
    iff max_t mu(t) <= mu(0) + ``TOLERANCES["tol_mu"]`` over the horizon
    ``horizon_frac`` times the inscribed-circle extinction estimate.
    """
    state, cfg, monitor, samples = _theorem_start(spec, p, n, horizon_frac, sigma,
                                                  monitor_every)
    return _theorem_result(run_flow(state, cfg, monitors=[monitor]), samples)


def mu0_sweep(p_values, family: str, grid, n: int = 128,
              horizon_frac: float = 0.5, sigma: float = 0.4) -> list[dict]:
    """Empirical estimate of the largest preserved initial mu per exponent.

    Scans the curve family over ``grid`` (ascending shape parameters) and
    reports, per p, the largest parameter whose run preserves mu.  All
    len(p_values) x len(grid) runs are one ``theorem_property_runs`` batch.
    The output is an observation about the discrete runs, not a proved
    threshold; callers must label it EMPIRICAL.
    """
    p_values = list(p_values)
    grid = list(grid)
    if not p_values or not grid:
        raise ConfigInvalid("mu0_sweep needs nonempty p and parameter grids")
    if family not in ("ellipse", "fourier"):
        raise ConfigInvalid(f"unknown family '{family}'")

    def spec_for(param: float) -> dict:
        if family == "ellipse":
            return {"ellipse": {"a": param, "b": 1.0}}
        return {"fourier": {"R": 1.0, "modes": [[3, param, 0.0]]}}

    runs = [(spec_for(param), p) for p in p_values for param in grid]
    results = theorem_property_runs(runs, n=n, horizon_frac=horizon_frac, sigma=sigma)
    rows = []
    for j, p in enumerate(p_values):
        row = results[j * len(grid):(j + 1) * len(grid)]
        passes = [result.passed for result in row]
        if not any(passes):
            rows.append({"p": p, "family": family, "param": float("nan"),
                         "mu0_empirical": 1.0, "pass": "no"})
            continue
        last_pass = max(k for k, ok in enumerate(passes) if ok)
        monotone = all(passes[: last_pass + 1])
        rows.append({
            "p": p,
            "family": family,
            "param": grid[last_pass],
            "mu0_empirical": row[last_pass].mu0,
            "pass": "yes" if monotone else "ambiguous",
        })
    return rows


# ---------------------------------------------------------------------------
# the verify suite


def verify_suite(spec: dict, p: float, n: int, seed: int,
                 sign_error: bool = False) -> dict:
    """{"reports": [...], "pass": all pass} of ``pcflow verify``: both evolution
    variants, the seeded rewrite sweep, and the refined trig residual at n
    and 2n, which passes below ``ceil_trig`` at the round-off floor or when
    it drops by ``factor_trig``."""
    grid_size(2 * n, "verify grid 2n")  # first: the O(n^2) profile at n comes before 2n
    reports = [evolution_refinement_study(spec, p, variant=variant, base_n=64, levels=3,
                                          window_steps=30, sign_error=sign_error).to_dict()
               for variant in ("kappa_p", "kappa")]

    rewrite_max = rewrite_equivalence_sweep(1000, seed=seed)
    reports.append(_record("rewrite_equivalence", [(1000, 0.0)], [rewrite_max],
                           float("nan"), rewrite_max <= TOLERANCES["tol_rewrite"]))

    r0, r1 = (trig_refined_profile(construct_curve(spec, k)) for k in (n, 2 * n))
    trig_ok = (r0 <= TOLERANCES["ceil_trig"]
               and (r0 < TOLERANCES["floor_trig_per_n"] * n
                    or r0 / max(r1, 1e-300) >= TOLERANCES["factor_trig"]))
    reports.append(_record("trig_identity", [(n, 0.0), (2 * n, 0.0)], [r0, r1],
                           float(np.log2(r0 / r1)) if r1 > 0 else float("inf"), trig_ok))
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}
