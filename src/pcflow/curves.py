"""Closed convex plane curves.

Two discrete representations are used throughout:

* ``SupportCurve`` -- the support function h(theta) sampled on a uniform
  Gauss-angle grid theta_i = 2*pi*i/n.  Convexity is the sign condition
  h + h'' > 0 and the curvature is kappa = 1/(h + h'').
* ``CurveGeometry`` -- positions, unit tangents and normals, curvature and
  arc-length weights of a closed curve.  A marker curve, a positively
  oriented polyline of material points, is the ``CurveGeometry`` that
  ``geometry_of_markers`` recovers from the points by periodic finite
  differences; ``embed_support`` gives a support curve's.

Each curve state computes its derived geometry once, on construction, and
keeps it.  Both representations expose ``kappa`` and ``area``.  Their
arrays are read-only: ``_readonly`` copies an array unless it is already
read-only and owns its memory, so an embedding shares the curve's kappa and
the nu and tau of ``gauss_frame``, which, like the Gauss angles, are
computed once per grid size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import GRID_SIZES, ExperimentConfig, curve_spec, grid_size
from .errors import ConfigInvalid, ConvexityLost, NonConvexSpec, NonFinite

# Convexity threshold on h + h'': below this the curve is treated as
# degenerate rather than merely round-off noisy.
EPS_CONVEX = 1e-9

MIN_MARKERS = 16

# Values that one block of a blocked computation holds: the terms of the
# interpolation series that ``support_interpolant`` sums at once (angles x
# (n/2 + 1)), the pairs of Z that the row scan evaluates at once (whole rows
# per block), and the per-point values of a chunk of mu samples.
BLOCK_ELEMS = 16384


def gauss_angles(n: int) -> np.ndarray:
    """Uniform Gauss-angle grid theta_i = 2*pi*i/n."""
    return 2.0 * np.pi * np.arange(n) / n


@functools.lru_cache(maxsize=GRID_SIZES)
def gauss_frame(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays theta = ``gauss_angles(n)``, nu = (cos, sin) and
    tau = (-sin, cos) of the n-point grid, the last two (n, 2), computed once
    per grid size."""
    theta = gauss_angles(n)
    nu = np.column_stack([np.cos(theta), np.sin(theta)])
    tau = np.column_stack([-np.sin(theta), np.cos(theta)])
    for a in (theta, nu, tau):
        a.flags.writeable = False
    return theta, nu, tau


def diff1_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central first derivative along the last axis, so
    each row of a 2-d f gets the same bits as it would alone."""
    g = np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)   # two ghosts at each end
    return (-g[..., 4:] + 8.0 * g[..., 3:-1] - 8.0 * g[..., 1:-3] + g[..., :-4]) / (12.0 * dx)


# 0-d operands: numpy converts a Python float operand on every call
_SIXTEEN, _THIRTY = np.array(16.0), np.array(30.0)


def diff2_periodic(f: np.ndarray, dx: float, out: np.ndarray,
                   work: np.ndarray) -> np.ndarray:
    """Fourth-order periodic central second derivative along the last axis,
    computed with nothing allocated, so each row of a 2-d f gets the same
    bits as it would alone.

    f, ``out`` and ``work`` are C-contiguous arrays of one shape, and each
    row of f carries two periodic ghost values at each end of its last
    axis.  The derivative at the middle values of each row is written into
    the same places of ``out``, which is returned, and ``work`` is scratch.
    The rows go through each ufunc as one flat run: a row's ghost values
    keep its stencil inside the row, and the places of the ghost columns in
    ``out`` get values that mean nothing."""
    g, acc, tmp = f.ravel(), out.ravel()[2:-2], work.ravel()[2:-2]
    np.multiply(g[3:-1], _SIXTEEN, out=acc)
    np.subtract(acc, g[4:], out=acc)             # -g[i+2] + 16 g[i+1], exactly
    np.multiply(g[2:-2], _THIRTY, out=tmp)
    np.subtract(acc, tmp, out=acc)
    np.multiply(g[1:-3], _SIXTEEN, out=tmp)
    np.add(acc, tmp, out=acc)
    np.subtract(acc, g[:-4], out=acc)
    np.divide(acc, 12.0 * dx * dx, out=acc)
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is a read-only float64 ndarray that owns its
    memory (so not a view of a writable array), else a read-only float
    copy."""
    if (type(a) is np.ndarray and a.dtype == np.float64
            and not a.flags.writeable and a.flags.owndata):
        return a
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


# Relative margin of the certified lower bound on a support row's area,
# which lets the area stop skip the sum.  Every h_k >= h_min > 0 and
# rc_k >= rc_min > EPS_CONVEX, so the discrete area 1/2 dtheta sum h_k rc_k,
# with dtheta = 2 pi/n, is at least pi h_min rc_min.  The computed area lies
# below the exact sum by a relative error of at most about 37 unit roundoffs
# u = 2^-53: 1 for each product h_k rc_k, normal while h_min rc_min >= 1e-300;
# at most 34 additions on any term's path through numpy's pairwise sum of
# positive terms (24 inside a block of at most 128 terms: 14 in its 8 running
# sums, 3 joining them and 7 for a remainder; 9 halvings up to n = 65536 =
# GRID_MAX; 1 for the first term); and 2 for dtheta and its product.
# Computing pi h_min rc_min (1 - AREA_MARGIN) rounds 4 more times, upward at
# worst.  So when that value exceeds a level, so does the computed area:
# AREA_MARGIN = 1e-12 covers those 41 u about 200 times.  A correctness
# constant, not a tuning knob.
AREA_MARGIN = 1e-12


class SupportRows:
    """The geometry of R curves on one Gauss-angle grid, one curve per row,
    in buffers that each support step overwrites (``flow.step_support``).

    ``hg``, ``rcg`` and ``kg`` are C-contiguous (R, n + 4) arrays whose rows
    hold h, rc = h + h'' and kappa = 1/rc in their middle n columns, with two
    ghost columns at each end: those of ``hg`` receive h's periodic values
    before each stencil, those of ``rcg`` hold values that mean nothing, and
    those of ``kg`` hold 0, so that a step can run over whole rows.  ``h``,
    ``rc`` and ``kappa`` are the (R, n) middles, ``hf`` and ``rcf`` the
    flat runs from the first row's middle to the last's, ``ghosts`` the
    (ghost columns, their source columns) pairs of ``hg``, and ``work`` is
    scratch shaped like ``hg``; ``dtheta`` is the grid spacing.  The views
    are made once per set of buffers: at n = 512 making one costs about a
    third of a ufunc pass over a row.  Per row, ``rc_min`` = min(h + h'');
    ``h_min`` is the least h of the whole batch, failing rows included, as
    the last ``settle_rows`` found it, and NaN where that is unknown.

    No area is stored: ``area(i)`` sums row i's when it is read, and
    ``area_at_most`` decides the area stop by the bound of AREA_MARGIN
    where it can, so most steps never sum it."""

    __slots__ = ("hg", "rcg", "kg", "work", "h", "rc", "kappa", "hf", "rcf", "ghosts",
                 "dtheta", "rc_min", "h_min")

    def __init__(self, hg: np.ndarray, rcg: np.ndarray, kg: np.ndarray, rc_min: list):
        self.hg, self.rcg, self.kg, self.work = hg, rcg, kg, np.empty_like(hg)
        self.h, self.rc, self.kappa = hg[:, 2:-2], rcg[:, 2:-2], kg[:, 2:-2]
        self.hf, self.rcf = hg.ravel()[2:-2], rcg.ravel()[2:-2]
        self.ghosts = ((hg[:, :2], hg[:, -4:-2]), (hg[:, -2:], hg[:, 2:4]))
        self.dtheta = 2.0 * np.pi / self.h.shape[1]
        self.rc_min, self.h_min = rc_min, math.nan

    @classmethod
    def of(cls, h: np.ndarray) -> "SupportRows":
        """Rows holding the (R, n) support values h, their geometry unset."""
        hg, rcg = np.empty((2, h.shape[0], h.shape[1] + 4))
        rows = cls(hg, rcg, np.zeros_like(hg), [])
        rows.h[...] = h
        return rows

    def take(self, rows: list) -> "SupportRows":
        """The rows ``rows``, in that order, in new buffers; their ``h_min``
        is unknown."""
        return SupportRows(self.hg[rows], self.rcg[rows], self.kg[rows],
                           [self.rc_min[i] for i in rows])

    def area(self, i: int) -> float:
        """The enclosed area 1/2 sum(h rc) dtheta of row i, summed when
        called."""
        return 0.5 * float(np.add.reduce(self.h[i] * self.rc[i])) * self.dtheta

    def area_at_most(self, i: int, level: float) -> bool:
        """``area(i) <= level`` for a positive ``level``, without the sum when
        pi h_min rc_min, the bound of AREA_MARGIN, already lies above it."""
        hr = self.h_min * self.rc_min[i]   # NaN while h_min is unknown
        if hr >= 1e-300 and math.pi * hr * (1.0 - AREA_MARGIN) > level:
            return False
        return self.area(i) <= level


def stack_rows(curves: list) -> SupportRows:
    """The rows of the ``SupportCurve`` objects ``curves``, which share a
    grid, from their stored geometry: no check and no stencil."""
    rows = SupportRows.of(np.stack([c.h for c in curves]))
    rows.rc[...] = [c.radius_of_curvature() for c in curves]
    rows.kappa[...] = [c.kappa for c in curves]
    rows.rc_min = [c.rc_min for c in curves]
    return rows


def _h_faults(h: np.ndarray) -> dict:
    """{row: error} for the rows of h that are not finite (NonFinite) or not
    positive (ConvexityLost); their values that are not finite become 1.0,
    which keeps the stencil finite."""
    faults = {}
    finite = np.isfinite(h)
    for i, (fin, pos) in enumerate(zip(finite.all(axis=1).tolist(),
                                       (h > 0.0).all(axis=1).tolist())):
        if not fin:
            faults[i] = NonFinite("support values must be finite")
        elif not pos:
            faults[i] = ConvexityLost("support function must be strictly positive")
    np.copyto(h, 1.0, where=~finite)
    return faults


def settle_rows(rows: SupportRows) -> dict:
    """Compute the geometry of the support values ``rows.h`` in the buffers
    of ``rows`` by one stencil, and return {row: error} for the rows that
    fail, which stay in the buffers.  A row fails, in this order, with
    NonFinite unless it is finite, with ConvexityLost unless it is positive,
    with NonFinite if min rc is NaN, and with ConvexityLost unless min rc >
    EPS_CONVEX.  A failing row's rc becomes 1.0 before 1/rc is taken, so it
    raises no numpy warning, and its geometry means nothing.  No area is
    summed here: ``SupportRows.area`` sums a row's when it is read.

    h holds no +inf: a support step's h - dt kappa^p, with h finite, dt >= 0
    and kappa^p >= 0 or +inf, cannot be +inf, and ``SupportCurve`` rejects
    +inf before it gets here.  So a row of h fails only if its minimum is
    NaN or <= 0, and one reduction checks them all (``_h_faults`` then
    sorts the failing rows).  That minimum is kept as ``h_min``: it is at
    most every row's least h, and NaN or a value <= 0 switches the area
    bound off."""
    h, hg = rows.h, rows.hg
    # a ufunc reduction: the array method adds a Python-level call
    h_min = float(np.minimum.reduce(h, axis=None))
    faults = {} if h_min > 0.0 else _h_faults(h)
    for ghost, source in rows.ghosts:
        ghost[...] = source
    d2 = diff2_periodic(hg, rows.dtheta, rows.rcg, rows.work)
    # rc = h + h'' as one flat run, like the stencil: the ghost columns get
    # finite values that mean nothing
    np.add(rows.hf, d2.ravel()[2:-2], out=rows.rcf)
    rc_min = np.minimum.reduce(rows.rc, axis=1).tolist()
    for i, m in enumerate(rc_min):
        if not m > EPS_CONVEX and i not in faults:
            faults[i] = (NonFinite("h + h'' is not finite") if m != m else
                         ConvexityLost(f"discrete convexity violated: min(h + h'') = {m:.6g}"
                                       f" <= EPS_CONVEX = {EPS_CONVEX:.6g}"))
    for i in faults:
        rows.rc[i] = 1.0
    rows.rc_min, rows.h_min = rc_min, h_min
    np.reciprocal(rows.rc, out=rows.kappa)
    return faults


@dataclass(frozen=True)
class SupportCurve:
    """Convex curve as support values on the uniform Gauss-angle grid.

    h + h'', ``kappa`` = 1/(h + h''), the enclosed ``area`` and
    ``rc_min`` = min(h + h'') are ``settle_rows`` of h as one row, computed
    once when the curve is built, the area by ``SupportRows.area``; the
    arrays are read-only.  NaN or +inf in h raises NonFinite at once, by
    one max reduction; every other check is ``settle_rows``'s.
    """

    h: np.ndarray
    kappa: np.ndarray = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)
    rc_min: float = field(init=False, repr=False, compare=False)
    _rc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = _readonly(np.atleast_1d(self.h))
        object.__setattr__(self, "h", h)
        if h.ndim != 1:
            raise ConfigInvalid("support values must be a 1-d array")
        grid_size(h.size, "support grid size")
        if not np.maximum.reduce(h) < math.inf:
            raise NonFinite("support values must be finite")
        rows = SupportRows.of(h[None])
        faults = settle_rows(rows)
        if faults:
            raise faults[0]
        self._set_geometry(rows, 0)

    def _set_geometry(self, rows: SupportRows, i: int) -> None:
        """Copy the geometry of row i of ``rows``, which a step may overwrite."""
        object.__setattr__(self, "_rc", _readonly(rows.rc[i]))
        object.__setattr__(self, "kappa", _readonly(rows.kappa[i]))
        object.__setattr__(self, "area", rows.area(i))
        object.__setattr__(self, "rc_min", rows.rc_min[i])

    @property
    def n(self) -> int:
        return self.h.size

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n

    def radius_of_curvature(self) -> np.ndarray:
        """h + h'' by the periodic fourth-order stencil."""
        return self._rc


def _support_curve(rows: SupportRows, i: int) -> SupportCurve:
    """The ``SupportCurve`` of row i of ``rows``, whose check has passed: no
    second check or stencil.  Its arrays are read-only copies of the row, so
    the steps that overwrite the rows leave it as it is."""
    curve = object.__new__(SupportCurve)
    object.__setattr__(curve, "h", _readonly(rows.h[i]))
    curve._set_geometry(rows, i)
    return curve


@dataclass(frozen=True)
class CurveGeometry:
    """Per-sample geometry of a closed convex curve plus totals.

    Built by ``geometry_of_markers``; ``flow.step_markers`` maps one to the
    next along the marker-form flow.
    """

    x: np.ndarray          # (m, 2) positions
    tangent: np.ndarray    # (m, 2) unit tangents
    normal: np.ndarray     # (m, 2) outward unit normals
    kappa: np.ndarray      # (m,) curvature > 0
    ds: np.ndarray         # (m,) arc-length weights
    length: float
    area: float

    def __post_init__(self):
        for name in ("x", "tangent", "normal", "kappa", "ds"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.kappa.size


def _next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=0)``: each entry's periodic successor, from two
    slices joined (a roll pays for general shifts on every call)."""
    return np.concatenate((a[1:], a[:1]))


def _prev(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, 1, axis=0)``: each entry's periodic predecessor."""
    return np.concatenate((a[-1:], a[:-1]))


def construct_curve(spec: dict, n: int = ExperimentConfig.n) -> SupportCurve:
    """Build a SupportCurve from a curve specification, which
    ``config.curve_spec`` checks and puts in its normal form.

    Raises NonConvexSpec, a ConvexityLost, for non-convex data and
    ConfigInvalid for a spec that breaks ``curve_spec``'s rule, and for a
    curve too large for the float range: its support values, its area or the
    square (2 max h)^2 that bounds every squared chord must be finite.  The
    flow only shrinks h, so the two-point kernel's squares stay finite on
    every run that starts from the curve.
    """
    n = grid_size(n)
    (kind, params), = curve_spec(spec).items()
    with np.errstate(over="ignore", invalid="ignore"):
        h = _support_values(kind, params, gauss_frame(n)[0])
        two_max = 2.0 * float(np.max(h))
        if not (np.isfinite(h).all() and math.isfinite(two_max * two_max)):
            raise ConfigInvalid(f"{kind}: curve too large for the float range")
        try:
            curve = SupportCurve(h)
        except ConvexityLost as exc:
            raise NonConvexSpec(f"{kind}: {exc}") from exc
    if not math.isfinite(curve.area):
        raise ConfigInvalid(f"{kind}: curve area too large for the float range")
    return curve


def _support_values(kind: str, params: dict, theta: np.ndarray) -> np.ndarray:
    """The support values at the angles ``theta`` of the curve of a normal
    spec's ``kind`` and ``params``; they may overflow, which
    ``construct_curve`` checks."""
    if kind == "circle":
        return np.full(theta.size, params["R"])
    if kind == "ellipse":
        t = theta - params["phase"]
        return np.sqrt((params["a"] * np.cos(t)) ** 2 + (params["b"] * np.sin(t)) ** 2)
    h = np.full(theta.size, params["R"])
    for k, amp, phi in params["modes"]:
        h = h + amp * np.cos(k * theta + phi)
    return h


def embed_support(c: SupportCurve) -> CurveGeometry:
    """Embed X(theta) = h*nu + h'*tau with nu = (cos, sin), tau = (-sin, cos).

    The returned geometry carries the analytic normals/tangents of the
    Gauss-angle parametrization (exact, not finite-differenced): it shares
    the read-only arrays of ``gauss_frame`` and the curve's kappa.
    """
    _, nu, tau = gauss_frame(c.n)
    x = support_positions(c.h)
    ds = c.radius_of_curvature() * c.dtheta
    # nothing else holds these new arrays, so CurveGeometry keeps them uncopied
    x.flags.writeable = ds.flags.writeable = False
    return CurveGeometry(
        x=x, tangent=tau, normal=nu, kappa=c.kappa, ds=ds,
        length=float(np.sum(ds)), area=c.area,
    )


def support_positions(h: np.ndarray) -> np.ndarray:
    """The embedded positions X = h*nu + h'*tau of the support values h on
    the uniform grid of their last axis, with x and y on a new last axis:
    (n, 2) for one curve, (R, n, 2) for R curves as rows, each row with the
    bits it has alone."""
    n = h.shape[-1]
    _, nu, tau = gauss_frame(n)
    hp = diff1_periodic(h, 2.0 * np.pi / n)
    x = h[..., None] * nu
    x += hp[..., None] * tau
    return x


def support_interpolant(c: SupportCurve, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, tangents), each (len(theta), 2), of the support embedding
    at the 1-D array of angles ``theta``.

    Uses trigonometric interpolation of the sampled support function, so
    the result is spectrally consistent with the grid representation.  The
    spectrum is computed once per call.  The (n/2 + 1)-term series is summed
    for about BLOCK_ELEMS // (n/2 + 1) angles at a time, in four (angles,
    n/2 + 1) buffers allocated once per call.  Each angle's row is formed by
    the same elementwise operations as for that angle alone and summed by
    ``np.sum`` along the row, so every value equals the one-angle
    evaluation's, bit for bit.
    """
    n = c.n
    H = np.fft.rfft(c.h)
    re, im = H.real.copy(), H.imag.copy()
    neg_re = -re
    k = np.arange(H.size, dtype=float)
    wgt = np.full(H.size, 2.0)
    wgt[0] = 1.0
    if n % 2 == 0:
        wgt[-1] = 1.0
    wk = wgt * k
    rows = max(1, BLOCK_ELEMS // k.size)
    h, hp = np.empty(theta.size), np.empty(theta.size)
    buf = np.empty((4, min(rows, theta.size), k.size))
    for start in range(0, theta.size, rows):
        s = slice(start, start + rows)
        arg, ck, sk, t = buf[:, :h[s].size]
        np.multiply(theta[s, None], k, out=arg)
        np.cos(arg, out=ck)
        np.sin(arg, out=sk)
        # h: sum of wgt (Re H cos - Im H sin)
        np.multiply(re, ck, out=arg)
        np.multiply(im, sk, out=t)
        np.subtract(arg, t, out=arg)
        arg *= wgt
        np.sum(arg, axis=1, out=h[s])
        # h': sum of wgt k (-Re H sin - Im H cos)
        np.multiply(neg_re, sk, out=arg)
        np.multiply(im, ck, out=t)
        np.subtract(arg, t, out=arg)
        arg *= wk
        np.sum(arg, axis=1, out=hp[s])
    h /= n
    hp /= n
    cos, sin = np.cos(theta), np.sin(theta)
    nu = np.column_stack([cos, sin])
    tau = np.column_stack([-sin, cos])
    return h[:, None] * nu + hp[:, None] * tau, tau


def geometry_of_markers(points) -> CurveGeometry:
    """Validated discrete geometry of a marker polyline: a marker curve.

    ``points`` is an (m, 2) array of at least MIN_MARKERS finite, distinct
    consecutive points, ordered counterclockwise.  Curvature is the
    circumscribed-circle curvature of each vertex triple (exact on circles,
    second order in general); tangents are centered chords; the outward
    normal is the tangent rotated by -pi/2.  A convex simple polyline turns
    left at every vertex and by 2*pi in total; one that winds around more
    than once is rejected as well.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigInvalid("marker points must be an (m, 2) array")
    if pts.shape[0] < MIN_MARKERS:
        raise ConfigInvalid(f"need at least {MIN_MARKERS} markers, got {pts.shape[0]}")
    # ufunc reductions: at these sizes the fixed cost of each numpy call is
    # most of the work, and np.all/np.min/np.sum add a Python-level call
    if not np.logical_and.reduce(np.isfinite(pts), axis=None):
        raise NonFinite("marker positions must be finite")
    nxt, prv = _next(pts), _prev(pts)
    # pts[k] - pts[k-1] is the forward edge of k - 1: the same subtraction
    e_fwd = nxt - pts
    e_bwd = _prev(e_fwd)
    l_fwd = np.hypot(e_fwd[:, 0], e_fwd[:, 1])
    l_bwd = _prev(l_fwd)
    if np.minimum.reduce(l_fwd) < 1e-14:
        raise NonFinite("consecutive markers coincide")
    # Shoelace sign fixes the orientation convention (counterclockwise).
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * float(np.add.reduce(x * nxt[:, 1] - nxt[:, 0] * y))
    if area <= 0.0:
        raise ConfigInvalid("marker polygon must be positively oriented")
    chord = nxt - prv
    l_chord = np.hypot(chord[:, 0], chord[:, 1])
    if np.minimum.reduce(l_chord) < 1e-14:
        raise NonFinite("degenerate marker spacing")

    tangent = chord / l_chord[:, None]
    # Outward normal for a counterclockwise curve: rotate tangent by -pi/2.
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])

    cross = e_bwd[:, 0] * e_fwd[:, 1] - e_bwd[:, 1] * e_fwd[:, 0]
    with np.errstate(over="ignore"):
        lengths = l_bwd * l_fwd * l_chord
    if not np.logical_and.reduce(np.isfinite(lengths)):
        raise NonFinite("marker curve too large for the float range")
    kappa = 2.0 * cross / lengths
    if not np.logical_and.reduce(np.isfinite(kappa)):
        raise NonFinite("non-finite curvature")
    if np.minimum.reduce(kappa) <= 0.0:    # kappa is finite: some kappa <= 0
        raise ConvexityLost("negative discrete curvature: marker curve not convex")
    dot = e_bwd[:, 0] * e_fwd[:, 0] + e_bwd[:, 1] * e_fwd[:, 1]
    turning = float(np.add.reduce(np.arctan2(cross, dot)))
    if abs(turning - 2.0 * np.pi) > np.pi:
        raise ConvexityLost(f"marker polygon winds {turning / (2.0 * np.pi):.3g} times")

    ds = 0.5 * (l_bwd + l_fwd)
    return CurveGeometry(
        x=pts, tangent=tangent, normal=normal, kappa=kappa, ds=ds,
        length=float(np.add.reduce(l_fwd)), area=area,
    )


def isoperimetric_ratio(g: CurveGeometry) -> float:
    """L^2 / (4*pi*A); equals 1 exactly on circles."""
    if not (np.isfinite(g.length) and np.isfinite(g.area)) or g.area <= 0.0:
        raise NonFinite("isoperimetric ratio needs finite L and positive A")
    ratio = g.length ** 2 / (4.0 * np.pi * g.area)
    if ratio < 1.0 - 1e-6:
        raise NonFinite(f"isoperimetric inequality violated: ratio={ratio}")
    return float(ratio)
