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
keeps it.  Both representations expose ``kappa`` and ``area``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import finite_number, grid_size
from .errors import ConfigInvalid, ConvexityLost, NonConvexSpec, NonFinite

# Convexity threshold on h + h'': below this the curve is treated as
# degenerate rather than merely round-off noisy.
EPS_CONVEX = 1e-9

MIN_MARKERS = 16


def gauss_angles(n: int) -> np.ndarray:
    """Uniform Gauss-angle grid theta_i = 2*pi*i/n."""
    return 2.0 * np.pi * np.arange(n) / n


def _pad2(f: np.ndarray) -> np.ndarray:
    """f with two periodic ghost values at each end of its last axis."""
    return np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)


def diff1_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central first derivative."""
    g = _pad2(f)
    return (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * dx)


def diff2_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central second derivative along the last axis, so
    each row of a 2-d f gets the same bits as it would alone."""
    g = _pad2(f)
    return (-g[..., 4:] + 16.0 * g[..., 3:-1] - 30.0 * g[..., 2:-2]
            + 16.0 * g[..., 1:-3] - g[..., :-4]) / (12.0 * dx * dx)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


class SupportRows(NamedTuple):
    """The geometry of R curves on one Gauss-angle grid, one curve per row:
    h, rc = h + h'' and ``kappa`` = 1/rc as (R, n) arrays, and per row the
    enclosed ``area`` and ``rc_min`` = min(h + h'')."""

    h: np.ndarray
    rc: np.ndarray
    kappa: np.ndarray
    area: list
    rc_min: list

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.h.shape[1]

    def take(self, rows: list) -> "SupportRows":
        """The rows ``rows``, in that order."""
        return SupportRows(self.h[rows], self.rc[rows], self.kappa[rows],
                           [self.area[i] for i in rows], [self.rc_min[i] for i in rows])


def support_rows(h: np.ndarray) -> tuple[SupportRows, dict]:
    """The geometry of each row of the (R, n) array h by one stencil, and
    {row: error} for the rows that fail, which the geometry leaves out.  A
    row fails, in this order, with NonFinite unless it is finite, with
    ConvexityLost unless it is positive, with NonFinite if min rc is NaN, and
    with ConvexityLost unless min rc > EPS_CONVEX.  1/rc and the area are
    computed only on rows that pass, so a failing row raises no numpy
    warning."""
    faults = {}
    # ufunc reductions: the array methods add a Python-level call to each step
    if not (np.minimum.reduce(h, axis=None) > 0.0
            and np.maximum.reduce(h, axis=None) < math.inf):  # some h is NaN, inf or <= 0
        finite = np.isfinite(h)
        for i, (fin, pos) in enumerate(zip(finite.all(axis=1).tolist(),
                                           (h > 0.0).all(axis=1).tolist())):
            if not fin:
                faults[i] = NonFinite("support values must be finite")
            elif not pos:
                faults[i] = ConvexityLost("support function must be strictly positive")
        h = np.where(finite, h, 1.0)  # keeps the stencil finite; those rows fail
    dtheta = 2.0 * np.pi / h.shape[1]
    rc = h + diff2_periodic(h, dtheta)
    rc_min = np.minimum.reduce(rc, axis=1).tolist()
    for i, m in enumerate(rc_min):
        if not m > EPS_CONVEX and i not in faults:
            faults[i] = (NonFinite("h + h'' is not finite") if m != m else
                         ConvexityLost("discrete convexity violated: min(h + h'') <= eps"))
    if faults:
        keep = [i for i in range(len(rc_min)) if i not in faults]
        h, rc, rc_min = h[keep], rc[keep], [rc_min[i] for i in keep]
    area = [0.5 * s * dtheta for s in np.add.reduce(h * rc, axis=1).tolist()]
    return SupportRows(h, rc, 1.0 / rc, area, rc_min), faults


@dataclass(frozen=True)
class SupportCurve:
    """Convex curve as support values on the uniform Gauss-angle grid.

    h + h'', ``kappa`` = 1/(h + h''), the enclosed ``area`` and
    ``rc_min`` = min(h + h'') are ``support_rows`` of h as one row, computed
    once when the curve is built; the arrays are read-only.
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
        rows, faults = support_rows(h[None])
        if faults:
            raise faults[0]
        self._set_geometry(rows, 0)

    def _set_geometry(self, rows: SupportRows, i: int) -> None:
        rc, kappa, area, rc_min = rows.rc[i], rows.kappa[i], rows.area[i], rows.rc_min[i]
        rc.flags.writeable = kappa.flags.writeable = False
        object.__setattr__(self, "_rc", rc)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "rc_min", rc_min)

    @property
    def n(self) -> int:
        return self.h.size

    @property
    def thetas(self) -> np.ndarray:
        return gauss_angles(self.n)

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n

    def radius_of_curvature(self) -> np.ndarray:
        """h + h'' by the periodic fourth-order stencil."""
        return self._rc


def _support_curve(rows: SupportRows, i: int) -> SupportCurve:
    """The ``SupportCurve`` of row i of ``rows``, whose check has passed: no
    copy, no second check or stencil.  Its arrays are read-only views of the
    rows, which nothing writes to."""
    curve = object.__new__(SupportCurve)
    h = rows.h[i]
    h.flags.writeable = False
    object.__setattr__(curve, "h", h)
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


def _shoelace_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def construct_curve(spec: dict, n: int = 512) -> SupportCurve:
    """Build a SupportCurve from a curve specification.

    Supported specs (single-key dicts):

    * ``{"circle": {"R": R}}``
    * ``{"ellipse": {"a": a, "b": b, "phase": phi}}`` (phase optional)
    * ``{"fourier": {"R": R, "modes": [[k, amp, phase], ...]}}``

    Raises NonConvexSpec, a ConvexityLost, for non-convex data and
    ConfigInvalid for malformed or nonpositive parameters.
    """
    n = grid_size(n)
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigInvalid("curve spec must be a single-key dict")
    (kind, params), = spec.items()
    if not isinstance(params, dict):
        raise ConfigInvalid(f"curve spec '{kind}' must map to a parameter dict")
    theta = gauss_angles(n)

    if kind == "circle":
        _require_keys(params, {"R"}, kind)
        R = _param(params, "R", kind)
        if R <= 0.0:
            raise ConfigInvalid("circle radius must be positive")
        h = np.full(n, R)
    elif kind == "ellipse":
        _require_keys(params, {"a", "b"}, kind, optional={"phase"})
        a, b = _param(params, "a", kind), _param(params, "b", kind)
        phase = _param(params, "phase", kind, 0.0)
        if not (a >= b > 0.0):
            raise ConfigInvalid("ellipse requires a >= b > 0")
        t = theta - phase
        h = np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)
    elif kind == "fourier":
        _require_keys(params, {"R", "modes"}, kind)
        R = _param(params, "R", kind)
        if R <= 0.0:
            raise ConfigInvalid("fourier base radius must be positive")
        modes = params["modes"]
        if not isinstance(modes, (list, tuple)):
            raise ConfigInvalid("fourier.modes: must be a list of [k, amp, phase]")
        h = np.full(n, R)
        for mode in modes:
            if not isinstance(mode, (list, tuple)) or len(mode) != 3:
                raise ConfigInvalid("fourier.modes: each mode must be [k, amp, phase]")
            k = finite_number(mode[0], "fourier mode number", integral=True)
            amp = float(finite_number(mode[1], "fourier mode amplitude"))
            phi = float(finite_number(mode[2], "fourier mode phase"))
            if k < 2:
                raise ConfigInvalid("fourier mode number must be >= 2")
            h = h + amp * np.cos(k * theta + phi)
    else:
        raise ConfigInvalid(f"unknown curve kind '{kind}'")

    try:
        return SupportCurve(h)
    except ConvexityLost as exc:
        raise NonConvexSpec(str(exc)) from exc


def _param(params: dict, key: str, kind: str, default: float | None = None) -> float:
    """A curve parameter as a float; it must be a finite JSON number."""
    return float(finite_number(params.get(key, default), f"{kind}.{key}"))


def _require_keys(params: dict, required: set, kind: str, optional: set = frozenset()):
    keys = set(params)
    missing = required - keys
    unknown = keys - required - set(optional)
    if missing:
        raise ConfigInvalid(f"{kind}: missing parameter(s) {sorted(missing)}")
    if unknown:
        raise ConfigInvalid(f"{kind}: unknown parameter(s) {sorted(unknown)}")


def embed_support(c: SupportCurve) -> CurveGeometry:
    """Embed X(theta) = h*nu + h'*tau with nu = (cos, sin), tau = (-sin, cos).

    The returned geometry carries the analytic normals/tangents of the
    Gauss-angle parametrization (exact, not finite-differenced).
    """
    theta = c.thetas
    nu = np.column_stack([np.cos(theta), np.sin(theta)])
    tau = np.column_stack([-np.sin(theta), np.cos(theta)])
    hp = diff1_periodic(c.h, c.dtheta)
    x = c.h[:, None] * nu + hp[:, None] * tau
    ds = c.radius_of_curvature() * c.dtheta
    return CurveGeometry(
        x=x, tangent=tau, normal=nu, kappa=c.kappa, ds=ds,
        length=float(np.sum(ds)), area=c.area,
    )


def support_interpolant(c: SupportCurve):
    """Evaluator of the support embedding at arbitrary angles.

    Uses trigonometric interpolation of the sampled support function, so
    the result is spectrally consistent with the grid representation.  The
    spectrum is computed once, here.  Returns ``at(theta)``, which gives
    (position, outward normal, tangent) at one angle.
    """
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
    if not np.all(np.isfinite(pts)):
        raise NonFinite("marker positions must be finite")
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    e_fwd = nxt - pts
    e_bwd = pts - prv
    l_fwd = np.hypot(e_fwd[:, 0], e_fwd[:, 1])
    l_bwd = np.hypot(e_bwd[:, 0], e_bwd[:, 1])
    if np.min(l_fwd) < 1e-14:
        raise NonFinite("consecutive markers coincide")
    # Shoelace sign fixes the orientation convention (counterclockwise).
    area = _shoelace_area(pts)
    if area <= 0.0:
        raise ConfigInvalid("marker polygon must be positively oriented")
    chord = nxt - prv
    l_chord = np.hypot(chord[:, 0], chord[:, 1])
    if np.min(l_chord) < 1e-14:
        raise NonFinite("degenerate marker spacing")

    tangent = chord / l_chord[:, None]
    # Outward normal for a counterclockwise curve: rotate tangent by -pi/2.
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])

    cross = e_bwd[:, 0] * e_fwd[:, 1] - e_bwd[:, 1] * e_fwd[:, 0]
    kappa = 2.0 * cross / (l_bwd * l_fwd * l_chord)
    if not np.all(np.isfinite(kappa)):
        raise NonFinite("non-finite curvature")
    if np.any(kappa <= 0.0):
        raise ConvexityLost("negative discrete curvature: marker curve not convex")
    dot = e_bwd[:, 0] * e_fwd[:, 0] + e_bwd[:, 1] * e_fwd[:, 1]
    turning = float(np.sum(np.arctan2(cross, dot)))
    if abs(turning - 2.0 * np.pi) > np.pi:
        raise ConvexityLost(f"marker polygon winds {turning / (2.0 * np.pi):.3g} times")

    ds = 0.5 * (l_bwd + l_fwd)
    return CurveGeometry(
        x=pts, tangent=tangent, normal=normal, kappa=kappa, ds=ds,
        length=float(np.sum(l_fwd)), area=area,
    )


def isoperimetric_ratio(g: CurveGeometry) -> float:
    """L^2 / (4*pi*A); equals 1 exactly on circles."""
    if not (np.isfinite(g.length) and np.isfinite(g.area)) or g.area <= 0.0:
        raise NonFinite("isoperimetric ratio needs finite L and positive A")
    ratio = g.length ** 2 / (4.0 * np.pi * g.area)
    if ratio < 1.0 - 1e-6:
        raise NonFinite(f"isoperimetric inequality violated: ratio={ratio}")
    return float(ratio)
