"""Two-point non-collapsing quantities.

Z(i, j) = 2 <X_i - X_j, nu_i> / |X_i - X_j|^2 is the curvature of the circle
through X_j tangent to the curve at X_i.  Its supremum over j is the
curvature of the largest interior circle touching at i, and
mu = max_i sup_j Z(i, j) / kappa(i) is the global non-collapsing ratio
(delta = 1/mu in the tangent-ball formulation).

Z is computed by one kernel, ``_z_pairs``, at broadcast index pairs, on
split x/y coordinates with elementwise ufuncs only (no BLAS, so no thread
count can change a bit).  The row scan behind ``mu_report`` and the trig
profiles evaluates it on SCAN_ROWS rows at a time, so it holds
O(SCAN_ROWS * m) memory, never the m x m matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurveGeometry
from .errors import DegenerateChord, NotConverged

# Samples this close to the diagonal are excluded from the pair scan; the
# diagonal limit kappa(i) enters as an explicit candidate instead.
DIAG_WINDOW = 2
# Rows of Z evaluated at once by the pair scan.
SCAN_ROWS = 32


@dataclass(frozen=True)
class TwoPointConfig:
    """One chord configuration (i, j) with its derived quantities."""

    i: int
    j: int
    d: float
    w: tuple[float, float]   # unit chord direction (X_i - X_j)/d
    Z: float
    alpha: float             # contact angle, sin(alpha) = |<w, nu_i>|


@dataclass(frozen=True)
class NonCollapseReport:
    z_sup: np.ndarray        # per-point inscribed curvature sup_j Z
    kappa: np.ndarray
    mu: float
    argmax: TwoPointConfig
    r_oracle: np.ndarray | None = None

    @property
    def delta_equiv(self) -> float:
        return 1.0 / self.mu

    def to_dict(self) -> dict:
        per_point = []
        for i in range(self.z_sup.size):
            entry = {
                "i": int(i),
                "kappa": float(self.kappa[i]),
                "Z_sup": float(self.z_sup[i]),
            }
            entry["r_oracle"] = (
                float(self.r_oracle[i]) if self.r_oracle is not None else None
            )
            per_point.append(entry)
        a = self.argmax
        return {
            "mu": float(self.mu),
            "delta_equiv": float(self.delta_equiv),
            "argmax": {
                "i": a.i, "j": a.j, "d": a.d, "Z": a.Z, "alpha": a.alpha,
            },
            "per_point": per_point,
        }


def _z_pairs(g: CurveGeometry, i, j) -> np.ndarray:
    """Z at the broadcast index pairs (i, j) from split coordinates, rounded
    as 2 <diff, nu_i> / <diff, diff>; no band mask (the diagonal is nan)."""
    x, y = g.x[:, 0], g.x[:, 1]
    dx, dy = x[i] - x[j], y[i] - y[j]
    Z = dx * g.normal[i, 0] + dy * g.normal[i, 1]
    dx *= dx
    dx += dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        Z *= 2.0
        Z /= dx
    return Z


def _z_rows(g: CurveGeometry, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of Z, -inf within DIAG_WINDOW of the cyclic diagonal."""
    rows = np.arange(start, min(stop, g.m))[:, None]
    Z = _z_pairs(g, rows, np.arange(g.m))
    Z[rows - start, (rows + np.arange(-DIAG_WINDOW, DIAG_WINDOW + 1)) % g.m] = -np.inf
    return Z


def row_scan(g: CurveGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max and first argmax of Z, SCAN_ROWS rows at a time."""
    row_max = np.empty(g.m)
    row_arg = np.empty(g.m, dtype=np.intp)
    for start in range(0, g.m, SCAN_ROWS):
        Z = _z_rows(g, start, start + SCAN_ROWS)
        row_arg[start:start + SCAN_ROWS] = arg = np.argmax(Z, axis=1)
        row_max[start:start + SCAN_ROWS] = np.take_along_axis(Z, arg[:, None], 1)[:, 0]
    return row_max, row_arg


def z_value(g: CurveGeometry, i: int, j: int) -> float:
    """Two-point quantity at a single pair, equal to ``z_matrix(g)[i, j]``."""
    if min((i - j) % g.m, (j - i) % g.m) <= DIAG_WINDOW:
        raise DegenerateChord(f"Z is undefined within {DIAG_WINDOW} samples "
                              "of the diagonal")
    return float(_z_pairs(g, i, j))


def z_matrix(g: CurveGeometry) -> np.ndarray:
    """Dense m x m pair matrix Z[i, j].  No program path builds it."""
    return _z_rows(g, 0, g.m)


def chord_config(g: CurveGeometry, i: int, j: int) -> TwoPointConfig:
    diff = g.x[i] - g.x[j]
    d = float(np.hypot(diff[0], diff[1]))
    if i == j or d < 1e-12:
        raise DegenerateChord("degenerate chord")
    w = diff / d
    Z = 2.0 * float(w @ g.normal[i]) / d
    alpha = float(np.arcsin(np.clip(abs(float(w @ g.normal[i])), 0.0, 1.0)))
    return TwoPointConfig(i=int(i), j=int(j), d=d, w=(float(w[0]), float(w[1])),
                          Z=Z, alpha=alpha)


def inscribed_curvature(g: CurveGeometry, i: int) -> float:
    """sup_j Z(i, j) with the diagonal limit kappa(i) as a candidate."""
    return max(float(g.kappa[i]), float(np.max(_z_rows(g, i, i + 1))))


def mu_report(g: CurveGeometry, include_oracle: bool = False) -> NonCollapseReport:
    """Global non-collapsing report: per-point Z_sup, mu, argmax pair.

    Ties in the argmax are broken toward the smallest (i, j) pair, so the
    result is independent of any internal partitioning.
    """
    row_max, row_arg = row_scan(g)
    z_sup = np.maximum(g.kappa, row_max)
    ratios = z_sup / g.kappa
    i_star = int(np.argmax(ratios))
    cfg = chord_config(g, i_star, int(row_arg[i_star]))
    mu = float(ratios[i_star])
    r = None
    if include_oracle:
        r = np.array([inscribed_radius_oracle(g, i) for i in range(g.m)])
    return NonCollapseReport(z_sup=z_sup, kappa=g.kappa, mu=mu,
                             argmax=cfg, r_oracle=r)


def inscribed_radius_oracle(g: CurveGeometry, i: int, max_iter: int = 200) -> float:
    """Largest r with the disc of radius r tangent at X_i inside the curve.

    Independent geometric oracle: binary search on r with a sample-based
    containment test (distance from the candidate center to every curve
    sample must be >= r, up to a round-off slack).  Samples only: for
    convex curves at n >= 512 the sampling error is O(max ds^2 * kappa).
    """
    x = g.x
    xi = x[i]
    nu = g.normal[i]
    diam = float(np.max(np.hypot(x[:, 0] - xi[0], x[:, 1] - xi[1])))
    tol_r = 1e-10 * diam
    tol_geom = 1e-9 * diam

    def contained(r: float) -> bool:
        center = xi - r * nu
        dist = np.hypot(x[:, 0] - center[0], x[:, 1] - center[1])
        return bool(np.min(dist) >= r - tol_geom)

    lo, hi = 0.0, diam
    if contained(hi):
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol_r:
            return 0.5 * (lo + hi)
    raise NotConverged("inscribed-radius bisection did not reach tolerance")


def alpha_check(g: CurveGeometry, i: int, j: int) -> tuple[float, bool]:
    """Contact angle alpha = arcsin|<w, nu_i>| and the flag d < 1/Z."""
    cfg = chord_config(g, i, j)
    d_lt_inv_z = cfg.Z > 0.0 and cfg.d < 1.0 / cfg.Z
    return cfg.alpha, d_lt_inv_z
