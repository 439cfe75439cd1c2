"""Two-point non-collapsing quantities.

Z(i, j) = 2 <X_i - X_j, nu_i> / |X_i - X_j|^2 is the curvature of the circle
through X_j tangent to the curve at X_i.  Its supremum over j is the
curvature of the largest interior circle touching at i, and
mu = max_i sup_j Z(i, j) / kappa(i) is the global non-collapsing ratio
(delta = 1/mu in the tangent-ball formulation).

Z is computed from one expression, ``_half_z``, which writes Z/2 =
<diff, nu_i> / <diff, diff> into caller-given arrays with elementwise ufuncs
only (no BLAS, so no thread count can change a bit).  The x and y
coordinates go through each ufunc together, as the two halves of one
buffer, and ``_fill`` writes the i operands into the buffers first, so that
no ufunc broadcasts an operand along the inner axis.  ``z_at`` evaluates it
at broadcast points and doubles the result into an array of its own, and
``_z_pairs`` is ``z_at`` at index pairs of one curve.  The row scan behind
``mu_report``, the trig profiles and the theorem runs' mu samples,
``row_scans``, evaluates it on blocks of whole rows, about BLOCK_ELEMS pairs
each, in three (2, rows, m) buffers allocated once per call for all the
curves it scans (the third holds each curve's points tiled down the rows,
filled once per curve), and doubles only the row maxima: it holds
O(BLOCK_ELEMS + m) memory per curve, never the m x m matrix.  Its index
plan (rows per block, row starts, band indices) depends on m alone and is
built once per m.  Doubling is exact, so for every normal or zero quotient
2 RN(a/b) = RN(2a/b), the rounding of 2 <diff, nu_i> / <diff, diff>; nan
and +-inf carry through.  ``mu_maximizers`` finds mu, its pair and the
pair's chord on many curves at once, in one ``chords`` call, each curve with
the bits it has alone; ``mu_report`` is its case of one curve.

Callers pass points and normals as the curves hold them, x and y last; the
x/y-first layout of the blocks is ``row_scans``' own.  The pair selection
of the refined trig check lives here too: ``chord_maximizers`` picks the
rows whose best chord beats the osculating circle, and ``refined_angles``
moves each pair's j to the vertex of the parabola through Z around it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import GRID_SIZES
from .curves import BLOCK_ELEMS, CurveGeometry
from .errors import DegenerateChord, NotConverged

# Samples this close to the diagonal are excluded from the pair scan; the
# diagonal limit kappa(i) enters as an explicit candidate instead.
DIAG_WINDOW = 2
# Bisection steps allowed to the disc oracle.
ORACLE_MAX_ITER = 200
# Relative margin of the disc oracle's squared containment test.  The
# squared distance s = dx*dx + dy*dy is within 2 ulp of dx^2 + dy^2,
# b2 = bound*bound within 1 ulp of bound^2, and libm hypot(dx, dy) within
# 1 ulp of sqrt(dx^2 + dy^2): together far below 1e-12 while s and b2 are
# normal.  So s >= b2 (1 + margin) implies hypot >= bound, s < b2 (1 - margin)
# implies hypot < bound, and only a sample inside the margin needs hypot.
ORACLE_MARGIN = 1e-12


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
        oracle = ([None] * self.z_sup.size if self.r_oracle is None
                  else self.r_oracle.tolist())
        per_point = [{"i": i, "kappa": k, "Z_sup": z, "r_oracle": r}
                     for i, (k, z, r) in enumerate(zip(self.kappa.tolist(),
                                                       self.z_sup.tolist(), oracle))]
        a = self.argmax
        return {
            "mu": float(self.mu),
            "delta_equiv": float(self.delta_equiv),
            "argmax": {
                "i": a.i, "j": a.j, "d": a.d, "Z": a.Z, "alpha": a.alpha,
            },
            "per_point": per_point,
        }


def _half_z(d, u) -> np.ndarray:
    """Z/2 = (dx nu_x + dy nu_y) / (dx^2 + dy^2), written into ``u[0]`` and
    returned.  Along their first axis, ``d`` holds (dx, dy) = X_i - X_j and
    ``u`` holds nu_i, both of the full (2, ...) shape; the callers fill them
    (``_fill``).  The caller sets the errstate (the diagonal is 0/0)."""
    np.multiply(d, u, out=u)                 # dx nu_x, dy nu_y
    dot, d2 = u[0, ...], d[0, ...]           # 0-d views for one pair
    np.add(dot, u[1, ...], out=dot)
    np.multiply(d, d, out=d)
    np.add(d2, d[1, ...], out=d2)
    return np.divide(dot, d2, out=dot)


def _fill(d, u, p_i, n_i, p_j) -> None:
    """X_i - X_j into ``d`` and nu_i into ``u``: each i operand is written
    into its buffer by a broadcast fill before the subtraction, because an
    operand broadcast along the inner axis costs several times a same-shape
    pass."""
    d[...] = p_i
    np.subtract(d, p_j, out=d)
    u[...] = n_i


def _z_pairs(g: CurveGeometry, i, j) -> np.ndarray:
    """Z at the broadcast index pairs (i, j); no band mask (the diagonal is
    nan)."""
    return z_at(g.x[i], g.normal[i], g.x[j])


def z_at(p_i, n_i, p_j) -> np.ndarray:
    """Z at the points p_i with normals n_i against the points p_j, arrays
    whose last axis holds x and y and whose other axes broadcast.  The
    result owns its memory (doubling copies it out of the fill buffers), so
    keeping it keeps none of them."""
    # x and y last, where they broadcast like the points; the kernel sees
    # the transposes, which put them first
    d, u = np.empty((2, *np.broadcast_shapes(np.shape(p_i), np.shape(p_j))))
    _fill(d, u, p_i, n_i, p_j)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _half_z(d.T, u.T).T * 2.0


def _band(rows: np.ndarray, m: int) -> np.ndarray:
    """Columns within DIAG_WINDOW of the cyclic diagonal, one row per entry
    of the column vector ``rows``."""
    return (rows + np.arange(-DIAG_WINDOW, DIAG_WINDOW + 1)) % m


def scan_rows(m: int) -> int:
    """Rows per block of the row scan on m samples."""
    return max(1, min(m, BLOCK_ELEMS // m))


# Keyed by m, a grid size on every program path
@functools.lru_cache(maxsize=GRID_SIZES)
def _scan_plan(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The row scan's rows per block, the flat index of each row's first
    entry in a block, and the flat index of each band entry in its row's
    block, one row per sample; the arrays are read-only."""
    rows = scan_rows(m)
    row_start = np.arange(rows) * m
    band = row_start[np.arange(m) % rows, None] + _band(np.arange(m)[:, None], m)
    row_start.flags.writeable = band.flags.writeable = False
    return rows, row_start, band


def row_scan(g: CurveGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max and first argmax of Z: the one-curve ``row_scans``."""
    row_max, row_arg = row_scans(g.x[None], g.normal)
    return row_max[0], row_arg[0]


def row_scans(x: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max and first argmax of Z for each of S curves on m samples
    that share the normals ``normal``: ``x`` is (S, m, 2) and ``normal`` is
    (m, 2), and both results are (S, m).

    Each curve is scanned ``scan_rows(m)`` rows at a time, in one set of
    three buffers for all the curves.  The third holds the curve's points
    p_j tiled down the block's rows, filled once per curve, so that each
    block subtracts it same-shape.  The normals, and each curve's points
    before its blocks, are copied once into the x/y-first layout of the
    buffers.  Each block holds Z/2 with the band at -inf; the argmax of Z/2
    is that of Z, and the row maxima are doubled once at the end.
    """
    m = x.shape[1]
    rows, row_start, band = _scan_plan(m)
    # One allocation: as separate 128 kB arrays, malloc handed the pages
    # back and faulted them in again on every call at m = 2048.
    buf = np.empty((3, 2, rows, m))
    n_i = np.ascontiguousarray(normal.T)[:, :, None]
    row_max = np.empty((x.shape[0], m))
    row_arg = np.empty((x.shape[0], m), dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for curve, curve_max, curve_arg in zip(x, row_max, row_arg):
            (d, u, p_j), starts = buf, row_start
            p = np.ascontiguousarray(curve.T)
            p_j[...] = p[:, None, :]
            p_i = p[:, :, None]
            for start in range(0, m, rows):
                s = slice(start, start + rows)
                if m - start < rows:             # the last block is partial
                    k = m - start
                    d, u, p_j, starts = d[:, :k], u[:, :k], p_j[:, :k], starts[:k]
                _fill(d, u, p_i[:, s], n_i[:, s], p_j)
                z = _half_z(d, u)
                flat = z.reshape(-1)
                flat[band[s]] = -np.inf
                arg = z.argmax(axis=1, out=curve_arg[s])
                flat.take(starts + arg, out=curve_max[s])
    row_max *= 2.0
    return row_max, row_arg


def z_matrix(g: CurveGeometry) -> np.ndarray:
    """Dense m x m pair matrix Z[i, j], -inf within DIAG_WINDOW of the cyclic
    diagonal.  No program path builds it."""
    rows = np.arange(g.m)[:, None]
    Z = _z_pairs(g, rows, np.arange(g.m))
    Z[rows, _band(rows, g.m)] = -np.inf
    return Z


def chords(x_i: np.ndarray, x_j: np.ndarray,
           nu_i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length d, unit direction w = (x_i - x_j)/d, Z = 2 <w, nu_i>/d and
    contact angle alpha = arcsin|<w, nu_i>| of each chord, one per row of
    the (N, 2) arrays; DegenerateChord if one is shorter than 1e-12.

    <w, nu_i> is ``np.vecdot``, which rounds as the BLAS dot ``w @ nu_i``
    does; the rest is elementwise, so each row has the bits it has alone.
    """
    diff = x_i - x_j
    d = np.hypot(diff[:, 0], diff[:, 1])
    if (d < 1e-12).any():
        raise DegenerateChord("degenerate chord")
    w = diff / d[:, None]
    wn = np.vecdot(w, nu_i)
    # the clip of |<w, nu_i>| to [0, 1] that arcsin needs, nan kept
    return d, w, 2.0 * wn / d, np.arcsin(np.minimum(np.abs(wn), 1.0))


def mu_report(g: CurveGeometry, include_oracle: bool = False) -> NonCollapseReport:
    """Global non-collapsing report: per-point Z_sup, mu, argmax pair.

    Ties in the argmax are broken toward the smallest (i, j) pair, so the
    result is independent of any internal partitioning.
    """
    z_sup, mu, i, j, chord = mu_maximizers(g.x[None], g.normal, g.kappa[None])
    d, w, Z, alpha = (a[0].tolist() for a in chord)
    cfg = TwoPointConfig(i=int(i[0]), j=int(j[0]), d=d, w=tuple(w), Z=Z, alpha=alpha)
    r = None
    if include_oracle:
        r = np.array([inscribed_radius_oracle(g, i) for i in range(g.m)])
    return NonCollapseReport(z_sup=z_sup[0], kappa=g.kappa, mu=float(mu[0]),
                             argmax=cfg, r_oracle=r)


def mu_maximizers(x: np.ndarray, normal: np.ndarray, kappa: np.ndarray) -> tuple:
    """Z_sup = max(kappa, sup_j Z) per point, and mu with its pair (i, j) and
    the pair's ``chords`` (d, w, Z, alpha) per curve, for S curves given as
    to ``row_scans`` with their (S, m) curvatures ``kappa``: i is the first
    argmax of Z_sup / kappa and j the first argmax of Z(i, .)."""
    row_max, row_arg = row_scans(x, normal)
    z_sup = np.maximum(kappa, row_max)
    ratios = z_sup / kappa
    s = np.arange(kappa.shape[0])
    i = ratios.argmax(axis=1)
    j = row_arg[s, i]
    return z_sup, ratios[s, i], i, j, chords(x[s, i], x[s, j], normal[i])


def chord_maximizers(g: CurveGeometry) -> tuple[np.ndarray, np.ndarray]:
    """The points i whose inscribed curvature is attained by a chord, and
    argmax_j Z(i, j) for each; points where the osculating circle beats
    every chord have no chord configuration and are skipped."""
    row_max, row_arg = row_scan(g)
    i = np.flatnonzero(row_max > g.kappa * (1.0 + 1e-9))
    return i, row_arg[i]


def refined_angles(g: CurveGeometry, i: np.ndarray,
                   j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, theta) of each grid pair (i, j) whose j - 1 and j + 1 lie outside
    the diagonal band: theta is the angle of the vertex of the parabola
    through Z(i, j - 1), Z(i, j) and Z(i, j + 1), at most half a grid step
    from j's (j's when the three are collinear)."""
    m = g.m
    keep = ~np.isin((i - j) % m, (DIAG_WINDOW + 1, m - DIAG_WINDOW - 1))
    i, j = i[keep], j[keep]
    zm, z0, zp = _z_pairs(g, i[:, None], (j[:, None] + np.arange(-1, 2)) % m).T
    denom = zm - 2.0 * z0 + zp
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(denom == 0.0, 0.0, np.clip(0.5 * (zm - zp) / denom, -0.5, 0.5))
    return i, 2.0 * np.pi * (j + shift) / m


def inscribed_radius_oracle(g: CurveGeometry, i: int) -> float:
    """Largest r with the disc of radius r tangent at X_i inside the curve.

    Independent geometric oracle: binary search on r with a sample-based
    containment test (distance from the candidate center to every curve
    sample must be >= r, up to a round-off slack).  Samples only: for
    convex curves at n >= 512 the sampling error is O(max ds^2 * kappa).

    Each test decides min_k hypot(x_k - cx, y_k - cy) >= bound exactly, but
    mostly without hypot: the squared distances s_k are compared with
    b2 = bound^2 widened by ORACLE_MARGIN on either side, and only a minimum
    inside that margin, or a b2 outside the normal range (where the squares
    lose precision), goes to the hypot scan.  A test first tries the sample
    that failed the last full test, decided the same way.  So the decisions,
    and the radius, are those of the exact hypot test alone.
    """
    x, y = np.ascontiguousarray(g.x.T)
    xi0, xi1 = float(g.x[i, 0]), float(g.x[i, 1])
    nu0, nu1 = float(g.normal[i, 0]), float(g.normal[i, 1])
    diam = float(np.max(np.hypot(x - xi0, y - xi1)))
    tol_r = 1e-10 * diam
    tol_geom = 1e-9 * diam
    lo_f, hi_f = 1.0 - ORACLE_MARGIN, 1.0 + ORACLE_MARGIN
    tiny = float(np.finfo(float).tiny)
    s, t = np.empty((2, x.size))
    # the centre as 0-d operands: numpy converts a Python float on every call
    cx0, cy0 = np.empty(()), np.empty(())
    witness = None              # the sample that failed the last full test

    def contained(r: float) -> bool:
        nonlocal witness
        cx, cy = xi0 - r * nu0, xi1 - r * nu1
        bound = r - tol_geom
        if bound <= 0.0:        # hypot is never negative
            return True
        b2 = bound * bound
        squared = tiny <= b2 < math.inf
        if witness is not None:
            dx, dy = witness[0] - cx, witness[1] - cy
            d2 = dx * dx + dy * dy
            if squared and d2 < b2 * lo_f:
                return False
            if not (squared and d2 >= b2 * hi_f) and not np.hypot(dx, dy) >= bound:
                return False
        if squared:
            cx0[()] = cx
            cy0[()] = cy
            np.subtract(x, cx0, out=s)
            np.multiply(s, s, out=s)
            np.subtract(y, cy0, out=t)
            np.multiply(t, t, out=t)
            np.add(s, t, out=s)
            k = int(s.argmin())
            if s[k] >= b2 * hi_f:
                return True
            if s[k] < b2 * lo_f:
                witness = float(x[k]), float(y[k])
                return False
        dist = np.hypot(x - cx, y - cy)
        k = int(dist.argmin())
        if dist[k] >= bound:
            return True
        witness = float(x[k]), float(y[k])
        return False

    lo, hi = 0.0, diam
    with np.errstate(over="ignore", under="ignore"):
        if contained(hi):
            return hi
        for _ in range(ORACLE_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if contained(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol_r:
                return 0.5 * (lo + hi)
    raise NotConverged("inscribed-radius bisection did not reach tolerance")

