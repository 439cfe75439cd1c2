"""Two-point non-collapsing quantities.

Z(i, j) = 2 <X_i - X_j, nu_i> / |X_i - X_j|^2 is the curvature of the circle
through X_j tangent to the curve at X_i.  Its supremum over j is the
curvature of the largest interior circle touching at i, and
mu = max_i sup_j Z(i, j) / kappa(i) is the global non-collapsing ratio
(delta = 1/mu in the tangent-ball formulation).

Z is computed from one expression, ``_half_z``, which writes Z/2 =
<diff, nu_i> / <diff, diff> into caller-given arrays with elementwise ufuncs
only (no BLAS, so no thread count or BLAS core can change a bit).  The x and y
coordinates go through each ufunc together, as the two halves of one
buffer, and ``_fill`` writes the i operands into the buffers first, so that
no ufunc broadcasts an operand along the inner axis.  ``z_at`` evaluates it
at broadcast points and doubles the result into an array of its own, and
``_z_pairs`` is ``z_at`` at index pairs of one curve.  The row scan behind
``mu_report``, the trig profiles and the theorem runs' mu samples,
``row_scans``, evaluates it on blocks of whole rows, about BLOCK_ELEMS pairs
each, in three (2, rows, m) buffers allocated once per call for all the
curves it scans (the third holds the j points: each curve's tiled down the
rows once for a whole scan, gathered per block for a scan of marked rows),
and doubles only the row maxima: it holds O(BLOCK_ELEMS + m) memory per
curve, never the m x m matrix.  Its index plan (rows per block, row starts,
band indices) depends on m alone and is built once per m.  Doubling is
exact, so for every normal or zero quotient 2 RN(a/b) = RN(2a/b), the
rounding of 2 <diff, nu_i> / <diff, diff>; nan and +-inf carry through.
``mu_maximizers`` finds mu, its pair and the pair's chord on many curves at
once, in one ``chords`` call, each curve with the bits it has alone;
``mu_report`` is its case of one curve.  The chord's 2-vector dot is
``dot2``, elementwise too.

``mu_pairs`` gives the same mu, pair and chord without the per-point Z_sup,
and scans few rows: ``prescan_rows`` bounds every row's ratio from above and
below by two matrix products per block and a derived margin
(PRESCAN_RANGE), and ``row_scans`` re-scans exactly only the rows whose
upper bound reaches the largest lower bound.  The theorem runs' mu samples
take it (``identities.mu_samples``, behind ``theorem_property_runs`` and
``sweep-mu0``).  The products use BLAS, but they only choose rows: every
value still comes from ``_half_z`` and ``dot2``, so no output depends on
BLAS.
``mu_report`` and ``chord_maximizers`` keep the full scan, because their
per-point Z_sup is an output.

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


# The pre-scan's bound on a row's sup Z.  With u = 2^-53 and g_k = k u /
# (1 - k u), per curve X = max_j |x_j| + |y_j| and V = max_i |nu_x,i| +
# |nu_y,i| (1-norms: |x_j| <= X, |nu_i| <= V, |x_i x_j| + |y_i y_j| <= X^2
# and |x nu_x| + |y nu_y| <= X V).  On the float points and normals, the
# exact N = <x_i - x_j, nu_i> and D = |x_i - x_j|^2 satisfy |N| <= V sqrt(D).
# - Products.  Their inputs c_i = <x_i, nu_i> and s_i = |x_i|^2 are 2-term
#   dots, within g_2 X V and g_2 X^2 of exact; -2 x, -nu and 1 are exact.
#   A k-term dot in any summation order, with or without FMA, lies within
#   g_k sum |a_t b_t| of its exact value.  So the k = 3 product N~ lies
#   within g_3 (2 + g_2) X V + g_2 X V <= 9 u X V of N, and the k = 4
#   product D~ within g_4 (4 + 2 g_2) X^2 + 2 g_2 X^2 <= 21 u X^2 of D; the
#   code takes E_N = 16 u X V and E_D = 32 u X^2.
# - Quotient.  Let Dm > 2 E_D be at most every non-band D~ of the row (the
#   code takes the least D~ of the row's block, band excluded).  Then every
#   non-band D >= D~ - E_D >= Dm/2, so |N~/D~ - N/D| <= E_N/D~ + |N/D|
#   E_D/D~ <= E_N/Dm + sqrt(2) V E_D/Dm^1.5, and rounding N~/D~ adds
#   u |N~/D~| <= 1.5 u V/sqrt(Dm) to first order.
# - ``_half_z``.  Its numerator lies within g_3 V sqrt(D) of N and its
#   denominator within g_4 D of D, so with the divide its Z/2 lies within
#   8 u V/sqrt(D) <= 11.4 u V/sqrt(Dm) of N/D.
# - So every non-band Z/2 of the row lies within M0 = E_N/Dm + 1.5 V
#   E_D/Dm^1.5 + 13 u V/sqrt(Dm) of its pre-scan value, and the row's max
#   within M0 of the pre-scan's max (a max moves by at most the largest move
#   of its terms).  The code takes M = 2 M0, which covers the second-order
#   terms, X and V computed a relative u low, and the few roundings of M
#   itself.  It requires X and V in PRESCAN_RANGE: then no product
#   overflows, and one that underflows errs by at most u 2^-1022, far below
#   u X V.
# - Ratios.  The exact row max q* is a float within M of the pre-scan's
#   max q~, so RN(q~ - M) <= q* <= RN(q~ + M); doubling is exact, and
#   max(kappa, .), division by kappa > 0 and rounding are monotone, so the
#   ratio RN(max(kappa, 2 q*) / kappa) lies between the same expressions in
#   RN(q~ -+ M).  A row whose upper bound falls below the largest lower
#   bound has a ratio below mu: it neither holds mu nor ties it.
# A curve with X or V out of range, a kappa not finite and positive, or a
# row with Dm <= 2 E_D keeps every row.  Correctness constants, not tuning
# knobs.
PRESCAN_RANGE = (2.0 ** -250, 2.0 ** 250)
# Pairs per block of the pre-scan's products: at n = 64..1024, blocks of
# 2 and 8 BLOCK_ELEMS pairs were no faster.
PRESCAN_ELEMS = 4 * BLOCK_ELEMS


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


def _scan_block(d, u, p_i, n_i, p_j, starts, band, out_max, out_arg) -> None:
    """Row max of Z/2, the band at -inf, into ``out_max`` and its first
    argmax into ``out_arg``, for the block of rows whose entries start at
    the flat ``starts`` of the block buffers and whose band entries are at
    the flat ``band``."""
    _fill(d, u, p_i, n_i, p_j)
    z = _half_z(d, u)
    flat = z.reshape(-1)
    flat[band] = -np.inf
    arg = z.argmax(axis=1, out=out_arg)
    flat.take(starts + arg, out=out_max)


def row_scan(g: CurveGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max and first argmax of Z: the one-curve ``row_scans``."""
    row_max, row_arg = row_scans(g.x[None], g.normal)
    return row_max[0], row_arg[0]


def row_scans(x: np.ndarray, normal: np.ndarray,
              rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row max and first argmax of Z for each of S curves on m samples
    that share the normals ``normal``: ``x`` is (S, m, 2) and ``normal`` is
    (m, 2), and both results are (S, m).  Given an (S, m) boolean ``rows``,
    only the rows it marks are scanned, and the others hold -inf and 0.

    The rows go ``scan_rows(m)`` at a time through one set of three
    buffers.  The third holds the points p_j of each row's curve, so that
    each block subtracts them same-shape: a whole scan tiles each curve's
    points down it once, a scan of marked rows gathers them per block.  The
    normals, and the points, are copied once into the x/y-first layout of
    the buffers.  Each block holds Z/2 with the band at -inf; the argmax of
    Z/2 is that of Z, and the row maxima are doubled once at the end.
    """
    S, m = x.shape[:2]
    block, row_start, band = _scan_plan(m)
    # One allocation: as separate 128 kB arrays, malloc handed the pages
    # back and faulted them in again on every call at m = 2048.
    buf = np.empty((3, 2, block, m))
    n_i = np.ascontiguousarray(normal.T)[:, :, None]
    row_max = np.full((S, m), -np.inf)
    row_arg = np.zeros((S, m), dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        if rows is None:
            for curve, curve_max, curve_arg in zip(x, row_max, row_arg):
                (d, u, p_j), starts = buf, row_start
                p = np.ascontiguousarray(curve.T)
                p_j[...] = p[:, None, :]
                p_i = p[:, :, None]
                for start in range(0, m, block):
                    s = slice(start, start + block)
                    if m - start < block:        # the last block is partial
                        k = m - start
                        d, u, p_j, starts = d[:, :k], u[:, :k], p_j[:, :k], starts[:k]
                    _scan_block(d, u, p_i[:, s], n_i[:, s], p_j, starts, band[s],
                                curve_max[s], curve_arg[s])
        else:
            c, r = np.nonzero(rows)
            p = np.ascontiguousarray(x.transpose(2, 0, 1))     # (2, S, m)
            p_i = p[:, c, r][:, :, None]
            for start in range(0, c.size, block):
                s = slice(start, start + block)
                cs, rs = c[s], r[s]
                k = cs.size
                p_j = buf[2].reshape(-1)[:2 * k * m].reshape(2, k, m)
                np.take(p, cs, axis=1, out=p_j, mode="clip")
                block_max, block_arg = np.empty(k), np.empty(k, dtype=np.intp)
                _scan_block(buf[0, :, :k], buf[1, :, :k], p_i[:, s], n_i[:, rs], p_j,
                            row_start[:k], row_start[:k, None] + _band(rs[:, None], m),
                            block_max, block_arg)
                row_max[cs, rs], row_arg[cs, rs] = block_max, block_arg
    row_max *= 2.0
    return row_max, row_arg


def z_matrix(g: CurveGeometry) -> np.ndarray:
    """Dense m x m pair matrix Z[i, j], -inf within DIAG_WINDOW of the cyclic
    diagonal.  No program path builds it."""
    rows = np.arange(g.m)[:, None]
    Z = _z_pairs(g, rows, np.arange(g.m))
    Z[rows, _band(rows, g.m)] = -np.inf
    return Z


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into a high and a low half of 26 bits each,
    whose sum is a exactly."""
    c = 134217729.0 * a                      # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RN(a + b) and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over a last axis of length 2, rounded as RN(a1 b1 + RN(a0 b0 +
    0)): the rounding of OpenBLAS's ddot where it fuses the second
    multiply-add (its SkylakeX kernel; older cores round both products),
    from elementwise ufuncs only, so that no BLAS core or thread count can
    change a bit.

    The fused step is Boldo and Melquiond's emulated FMA ("Emulation of FMA
    and correctly rounded sums: proved algorithms using rounding to odd",
    IEEE Trans. Comput. 57, 2008): the product is split exactly into uh + ul
    (Dekker), c + uh into th + tl (TwoSum), and RN(th + RO(tl + ul)), with
    RO the rounding to odd, is RN(a1 b1 + c).  Exact while no product
    overflows or underflows, as for the unit vectors it is given; NaN
    carries through.
    """
    a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    c = a0 * b0 + 0.0
    uh = a1 * b1
    (ah, al), (bh, bl) = _split(a1), _split(b1)
    ul = ((ah * bh - uh) + ah * bl + al * bh) + al * bl
    th, tl = _two_sum(c, uh)
    v, e = _two_sum(tl, ul)
    # round to odd: an inexact v with an even last bit moves to its
    # neighbour toward tl + ul, which is odd
    even = (np.asarray(v).view(np.int64) & 1) == 0
    v = np.where((e != 0.0) & even, np.nextafter(v, np.copysign(np.inf, e)), v)
    return th + v


def chords(x_i: np.ndarray, x_j: np.ndarray,
           nu_i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length d, unit direction w = (x_i - x_j)/d, Z = 2 <w, nu_i>/d and
    contact angle alpha = arcsin|<w, nu_i>| of each chord, one per row of
    the (N, 2) arrays; DegenerateChord if one is shorter than 1e-12.

    <w, nu_i> is ``dot2``; the rest is elementwise too, so each row has the
    bits it has alone.
    """
    diff = x_i - x_j
    d = np.hypot(diff[:, 0], diff[:, 1])
    if (d < 1e-12).any():
        raise DegenerateChord("degenerate chord")
    w = diff / d[:, None]
    wn = dot2(w, nu_i)
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
    return (z_sup, *_maximizers(x, normal, z_sup / kappa, row_arg))


def _maximizers(x, normal, ratios, row_arg) -> tuple:
    """mu, i, j and the chords of each curve's first argmax of ``ratios``."""
    s = np.arange(ratios.shape[0])
    i = ratios.argmax(axis=1)
    j = row_arg[s, i]
    return ratios[s, i], i, j, chords(x[s, i], x[s, j], normal[i])


def prescan_rows(x: np.ndarray, normal: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """The (S, m) mask of the rows that can hold each curve's mu, for S
    curves given as to ``mu_maximizers``: the rows whose ratio can reach the
    largest lower bound, by the margin derived at PRESCAN_RANGE.

    Per block of about PRESCAN_ELEMS pairs, two matrix products give N~ =
    <x_i, nu_i> - <x_j, nu_i> and D~ = |x_i|^2 + |x_j|^2 - 2 <x_i, x_j>, and
    one divide and one row max give each row's approximate sup Z/2; a block
    holds whole rows of one curve, or whole curves when m is small.  The
    products use BLAS, but the mask only selects rows: no output depends
    on it."""
    S, m = kappa.shape
    rows = max(1, min(m, PRESCAN_ELEMS // m))
    group = max(1, PRESCAN_ELEMS // (rows * m))
    cols = _band(np.arange(m)[:, None], m)
    q_max, d_min = np.empty((2, S, m))
    num_buf, den_buf = np.empty((2, group * rows * m))
    with np.errstate(all="ignore"):
        for c0 in range(0, S, group):
            pts = x[c0:c0 + group]
            g = len(pts)
            sq = np.vecdot(pts, pts)
            b = np.empty((g, 4, m))          # rows 1, x_j, y_j, |x_j|^2
            b[:, 0] = 1.0
            b[:, 1:3] = pts.transpose(0, 2, 1)
            b[:, 3] = sq
            a_d = np.empty((g, m, 4))        # |x_i|^2, -2 x_i, 1
            a_d[..., 0] = sq
            np.multiply(pts, -2.0, out=a_d[..., 1:3])
            a_d[..., 3] = 1.0
            a_n = np.empty((g, m, 3))        # <x_i, nu_i>, -nu_i
            a_n[..., 0] = np.vecdot(pts, normal)
            a_n[..., 1:] = -normal
            for r0 in range(0, m, rows):
                r = slice(r0, r0 + rows)
                k = min(rows, m - r0)
                num = num_buf[:g * k * m].reshape(g, k, m)
                den = den_buf[:g * k * m].reshape(g, k, m)
                np.matmul(a_n[:, r], b[:, :3], out=num)
                np.matmul(a_d[:, r], b, out=den)
                band = (np.arange(k) * m)[:, None] + cols[r]
                den.reshape(g, -1)[:, band] = np.inf
                d_min[c0:c0 + g, r] = den.min(axis=(1, 2))[:, None]
                np.divide(num, den, out=num)
                num.reshape(g, -1)[:, band] = -np.inf
                np.fmax.reduce(num, axis=2, out=q_max[c0:c0 + g, r])
        del num_buf, den_buf
        u = 2.0 ** -53
        X = np.abs(x).sum(axis=2).max(axis=1)[:, None]
        V = float(np.abs(normal).sum(axis=1).max())
        e_n, e_d = 16.0 * u * X * V, 32.0 * u * X * X
        lo_s, hi_s = PRESCAN_RANGE
        sure = ((lo_s <= X[:, 0]) & (X[:, 0] <= hi_s) & (lo_s <= V <= hi_s)
                & (d_min > 2.0 * e_d).all(axis=1)
                & ((kappa > 0.0) & (kappa < math.inf)).all(axis=1))
        # the margin 2 (E_N/Dm + 1.5 V E_D/Dm^1.5 + 13 u V/sqrt(Dm)), in place
        margin = 1.5 * V * e_d / d_min
        root = np.sqrt(d_min, out=d_min)
        margin += e_n / root
        margin += 13.0 * u * V
        margin *= 2.0
        margin /= root
        hi = np.add(q_max, margin, out=root)
        lo = np.subtract(q_max, margin, out=margin)
        for bound in (hi, lo):
            bound *= 2.0
            np.maximum(kappa, bound, out=bound)
            bound /= kappa
        keep = hi >= lo.max(axis=1, keepdims=True)
    keep[~sure] = True
    return keep


def mu_pairs(x: np.ndarray, normal: np.ndarray, kappa: np.ndarray) -> tuple:
    """mu with its pair (i, j) and the pair's ``chords`` per curve, bit for
    bit as ``mu_maximizers`` gives them, with the exact scan run only on the
    ``prescan_rows``."""
    rows = prescan_rows(x, normal, kappa)
    row_max, row_arg = row_scans(x, normal, rows)
    ratios = np.maximum(kappa, row_max) / kappa
    ratios[~rows] = -np.inf
    return _maximizers(x, normal, ratios, row_arg)


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

