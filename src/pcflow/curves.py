"""Closed convex plane curves.

Two discrete representations are used throughout:

* ``SupportCurve`` -- the support function h(theta) sampled on a uniform
  Gauss-angle grid theta_i = 2*pi*i/n.  Convexity is the sign condition
  h + h'' > 0 and the curvature is kappa = 1/(h + h'').
* ``MarkerCurve`` -- a closed, positively oriented polyline of material
  points with geometry (tangent, normal, curvature) recovered by periodic
  finite differences.

Each curve state computes its derived geometry once and keeps it: a support
curve its h + h'', kappa and area on construction, a marker curve its
``geometry_of_markers`` on first use.  Both expose ``kappa`` and ``area``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigInvalid, ConvexityLost, NonConvexSpec, NonFinite

# Convexity threshold on h + h'': below this the curve is treated as
# degenerate rather than merely round-off noisy.
EPS_CONVEX = 1e-9

MIN_SUPPORT_SAMPLES = 64
MIN_MARKERS = 16


def gauss_angles(n: int) -> np.ndarray:
    """Uniform Gauss-angle grid theta_i = 2*pi*i/n."""
    return 2.0 * np.pi * np.arange(n) / n


def _pad2(f: np.ndarray) -> np.ndarray:
    g = np.empty(f.size + 4)
    g[2:-2] = f
    g[:2] = f[-2:]
    g[-2:] = f[:2]
    return g


def diff1_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central first derivative."""
    g = _pad2(f)
    return (-g[4:] + 8.0 * g[3:-1] - 8.0 * g[1:-3] + g[:-4]) / (12.0 * dx)


def diff2_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central second derivative."""
    g = _pad2(f)
    return (-g[4:] + 16.0 * g[3:-1] - 30.0 * g[2:-2] + 16.0 * g[1:-3] - g[:-4]) / (
        12.0 * dx * dx
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SupportCurve:
    """Convex curve as support values on the uniform Gauss-angle grid.

    ``kappa`` = 1/(h + h'') and the enclosed ``area`` are computed once, with
    h + h'', when the curve is built; all three are read-only.
    """

    h: np.ndarray
    kappa: np.ndarray = field(init=False, repr=False, compare=False)
    area: float = field(init=False, repr=False, compare=False)
    _rc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = _readonly(np.atleast_1d(self.h))
        object.__setattr__(self, "h", h)
        n = h.size
        if h.ndim != 1 or n < MIN_SUPPORT_SAMPLES or (n & (n - 1)) != 0:
            raise ConfigInvalid(
                f"support grid size must be a power of two >= {MIN_SUPPORT_SAMPLES}, got {n}"
            )
        if not np.all(np.isfinite(h)):
            raise NonFinite("support values must be finite")
        if np.any(h <= 0.0):
            raise ConvexityLost("support function must be strictly positive")
        rc = h + diff2_periodic(h, self.dtheta)
        rc.flags.writeable = False
        if np.min(rc) <= EPS_CONVEX:
            raise ConvexityLost("discrete convexity violated: min(h + h'') <= eps")
        kappa = 1.0 / rc
        kappa.flags.writeable = False
        object.__setattr__(self, "_rc", rc)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "area", 0.5 * float(np.sum(h * rc)) * self.dtheta)

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


@dataclass(frozen=True)
class MarkerCurve:
    """Closed positively oriented polyline of material points."""

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(np.atleast_2d(self.points))
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigInvalid("marker points must be an (m, 2) array")
        m = pts.shape[0]
        if m < MIN_MARKERS:
            raise ConfigInvalid(f"need at least {MIN_MARKERS} markers, got {m}")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("marker positions must be finite")
        edges = np.roll(pts, -1, axis=0) - pts
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) < 1e-14):
            raise NonFinite("consecutive markers coincide")
        # Shoelace sign fixes the orientation convention (counterclockwise).
        if _shoelace_area(pts) <= 0.0:
            raise ConfigInvalid("marker polygon must be positively oriented")

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @cached_property
    def geometry(self) -> CurveGeometry:
        """``geometry_of_markers`` of this polyline, computed on first use."""
        return geometry_of_markers(self)

    @property
    def kappa(self) -> np.ndarray:
        return self.geometry.kappa

    @property
    def area(self) -> float:
        return self.geometry.area


@dataclass(frozen=True)
class CurveGeometry:
    """Per-sample geometry of a closed convex curve plus totals."""

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
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigInvalid("curve spec must be a single-key dict")
    (kind, params), = spec.items()
    if not isinstance(params, dict):
        raise ConfigInvalid(f"curve spec '{kind}' must map to a parameter dict")
    theta = gauss_angles(n)

    if kind == "circle":
        _require_keys(params, {"R"}, kind)
        R = float(params["R"])
        if R <= 0.0:
            raise ConfigInvalid("circle radius must be positive")
        h = np.full(n, R)
    elif kind == "ellipse":
        _require_keys(params, {"a", "b"}, kind, optional={"phase"})
        a, b = float(params["a"]), float(params["b"])
        phase = float(params.get("phase", 0.0))
        if not (a >= b > 0.0):
            raise ConfigInvalid("ellipse requires a >= b > 0")
        t = theta - phase
        h = np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)
    elif kind == "fourier":
        _require_keys(params, {"R", "modes"}, kind)
        R = float(params["R"])
        if R <= 0.0:
            raise ConfigInvalid("fourier base radius must be positive")
        h = np.full(n, R)
        for mode in params["modes"]:
            k, amp, phi = int(mode[0]), float(mode[1]), float(mode[2])
            if k < 2:
                raise ConfigInvalid("fourier mode number must be >= 2")
            h = h + amp * np.cos(k * theta + phi)
    else:
        raise ConfigInvalid(f"unknown curve kind '{kind}'")

    try:
        return SupportCurve(h)
    except ConvexityLost as exc:
        raise NonConvexSpec(str(exc)) from exc


def _require_keys(params: dict, required: set, kind: str, optional: set = frozenset()):
    keys = set(params)
    missing = required - keys
    unknown = keys - required - set(optional)
    if missing:
        raise ConfigInvalid(f"{kind}: missing parameter(s) {sorted(missing)}")
    if unknown:
        raise ConfigInvalid(f"{kind}: unknown parameter(s) {sorted(unknown)}")


def embed_support(c: SupportCurve) -> tuple[MarkerCurve, CurveGeometry]:
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
    geom = CurveGeometry(
        x=x, tangent=tau, normal=nu, kappa=c.kappa, ds=ds,
        length=float(np.sum(ds)), area=c.area,
    )
    return MarkerCurve(x), geom


def support_point_at(c: SupportCurve, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the support embedding at an arbitrary angle.

    Uses trigonometric interpolation of the sampled support function, so
    the result is spectrally consistent with the grid representation.
    Returns (position, outward normal, tangent).
    """
    n = c.n
    H = np.fft.rfft(c.h)
    k = np.arange(H.size)
    ck, sk = np.cos(k * theta), np.sin(k * theta)
    wgt = np.full(H.size, 2.0)
    wgt[0] = 1.0
    if n % 2 == 0:
        wgt[-1] = 1.0
    h = float(np.sum(wgt * (H.real * ck - H.imag * sk))) / n
    hp = float(np.sum(wgt * k * (-H.real * sk - H.imag * ck))) / n
    nu = np.array([np.cos(theta), np.sin(theta)])
    tau = np.array([-np.sin(theta), np.cos(theta)])
    return h * nu + hp * tau, nu, tau


def geometry_of_markers(mc: MarkerCurve) -> CurveGeometry:
    """Discrete geometry of a marker polyline.

    Curvature is the circumscribed-circle curvature of each vertex triple
    (exact on circles, second order in general); tangents are centered
    chords; the outward normal is the tangent rotated by -pi/2.  A convex
    simple polyline turns left at every vertex and by 2*pi in total; one
    that winds around more than once is rejected as well.
    """
    pts = mc.points
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    e_fwd = nxt - pts
    e_bwd = pts - prv
    l_fwd = np.hypot(e_fwd[:, 0], e_fwd[:, 1])
    l_bwd = np.hypot(e_bwd[:, 0], e_bwd[:, 1])
    chord = nxt - prv
    l_chord = np.hypot(chord[:, 0], chord[:, 1])
    if np.min(l_fwd) < 1e-14 or np.min(l_chord) < 1e-14:
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
    length = float(np.sum(l_fwd))
    area = _shoelace_area(pts)
    if area <= 0.0:
        raise NonFinite("nonpositive enclosed area")
    return CurveGeometry(
        x=pts, tangent=tangent, normal=normal, kappa=kappa, ds=ds,
        length=length, area=area,
    )


def resample_arclength(mc: MarkerCurve, m_new: int) -> MarkerCurve:
    """Redistribute markers uniformly in arc length (periodic cubic spline)."""
    if m_new < MIN_MARKERS:
        raise ConfigInvalid(f"m_new must be >= {MIN_MARKERS}")
    pts = mc.points
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))])
    total = s[-1]
    try:
        spline = CubicSpline(s, closed, axis=0, bc_type="periodic")
        new_pts = spline(total * np.arange(m_new) / m_new)
    except Exception as exc:  # scipy raises ValueError on bad knots
        raise NonFinite(f"arc-length resampling failed: {exc}") from exc
    if not np.all(np.isfinite(new_pts)):
        raise NonFinite("arc-length resampling produced non-finite points")
    return MarkerCurve(new_pts)


def isoperimetric_ratio(g: CurveGeometry) -> float:
    """L^2 / (4*pi*A); equals 1 exactly on circles."""
    if not (np.isfinite(g.length) and np.isfinite(g.area)) or g.area <= 0.0:
        raise NonFinite("isoperimetric ratio needs finite L and positive A")
    ratio = g.length ** 2 / (4.0 * np.pi * g.area)
    if ratio < 1.0 - 1e-6:
        raise NonFinite(f"isoperimetric inequality violated: ratio={ratio}")
    return float(ratio)
