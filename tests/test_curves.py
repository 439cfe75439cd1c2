"""Curve representations: support grids, marker polygons, derived geometry."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import (
    ConfigInvalid,
    ConvexityLost,
    CurveGeometry,
    NonFinite,
    PcflowError,
    SupportCurve,
    construct_curve,
    embed_support,
    geometry_of_markers,
    isoperimetric_ratio,
)
from pcflow.config import curve_spec
from pcflow.curves import (
    MIN_MARKERS,
    _readonly,
    diff1_periodic,
    gauss_angles,
    gauss_frame,
    support_interpolant,
)
from reference import diff2_periodic


def ellipse_support(theta, a, b):
    return np.sqrt(a ** 2 * np.cos(theta) ** 2 + b ** 2 * np.sin(theta) ** 2)


class TestFiniteDifferences:
    def test_gauss_angles_spacing(self):
        th = gauss_angles(128)
        assert th.size == 128
        assert th[0] == 0.0
        assert np.allclose(np.diff(th), 2 * np.pi / 128)

    def test_fourth_order_convergence(self):
        # sin(3 theta): errors should drop by ~16 per doubling
        errs1, errs2 = [], []
        for n in (64, 128, 256):
            th = gauss_angles(n)
            f = np.sin(3 * th)
            errs1.append(np.max(np.abs(diff1_periodic(f, 2 * np.pi / n) - 3 * np.cos(3 * th))))
            errs2.append(np.max(np.abs(diff2_periodic(f, 2 * np.pi / n) + 9 * np.sin(3 * th))))
        for errs in (errs1, errs2):
            assert errs[0] / errs[1] > 12.0
            assert errs[1] / errs[2] > 12.0

    def test_exact_on_low_modes(self):
        # 4th-order stencil differentiates cos(theta) to near round-off
        n = 256
        th = gauss_angles(n)
        err = np.max(np.abs(diff1_periodic(np.cos(th), 2 * np.pi / n) + np.sin(th)))
        assert err < 1e-7


class TestSupportCurve:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigInvalid):
            SupportCurve(np.ones(96))

    def test_requires_at_least_64(self):
        with pytest.raises(ConfigInvalid):
            SupportCurve(np.ones(32))

    def test_requires_positive_support(self):
        h = np.ones(64)
        h[3] = -0.1
        with pytest.raises(ConvexityLost):
            SupportCurve(h)

    def test_rejects_nonconvex(self):
        th = gauss_angles(128)
        with pytest.raises(ConvexityLost):
            SupportCurve(1.0 + 0.8 * np.cos(2 * th))

    def test_h_is_read_only(self):
        c = SupportCurve(np.ones(64))
        with pytest.raises(ValueError):
            c.h[0] = 2.0

    def test_radius_of_curvature_circle(self):
        c = SupportCurve(2.5 * np.ones(64))
        assert np.allclose(c.radius_of_curvature(), 2.5)


class TestConstructCurve:
    def test_circle_support_is_radius(self):
        c = construct_curve({"circle": {"R": 1.7}}, 64)
        assert np.allclose(c.h, 1.7)

    def test_ellipse_support_matches_closed_form(self):
        c = construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 256)
        th = gauss_angles(256)
        assert np.max(np.abs(c.h - ellipse_support(th, 2.0, 1.0))) < 1e-14

    def test_fourier_mode_one_rejected(self):
        # k = 1 is a translation of the curve, not a shape mode
        with pytest.raises(ConfigInvalid):
            construct_curve({"fourier": {"R": 1.0, "modes": [[1, 0.1, 0.0]]}}, 64)

    def test_fourier_nonconvex_amplitude_rejected(self):
        with pytest.raises(ConvexityLost):
            construct_curve({"fourier": {"R": 1.0, "modes": [[2, 0.8, 0.0]]}}, 128)

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigInvalid):
            construct_curve({"circle": {"R": -1.0}}, 64)

    def test_grid_size_checked_before_allocation(self):
        with pytest.raises(ConfigInvalid, match="power of two"):
            construct_curve({"circle": {"R": 1.0}}, 2 ** 70)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigInvalid):
            construct_curve({"astroid": {}}, 64)

    def test_ellipse_curvature_closed_form(self):
        # rho = h + h'' = (ab)^2 / h^3 for the ellipse support function
        a, b = 1.5, 1.0
        c = construct_curve({"ellipse": {"a": a, "b": b}}, 512)
        assert np.max(np.abs(c.kappa - c.h ** 3 / (a * b) ** 2)) < 1e-7


class TestEmbedding:
    def test_points_lie_on_ellipse(self):
        a, b = 2.0, 1.0
        g = embed_support(construct_curve({"ellipse": {"a": a, "b": b}}, 256))
        x, y = g.x[:, 0], g.x[:, 1]
        assert np.max(np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)) < 1e-8

    def test_area_and_length_circle(self):
        g = embed_support(construct_curve({"circle": {"R": 2.0}}, 256))
        assert abs(g.area - 4 * np.pi) < 1e-10
        assert abs(g.length - 4 * np.pi) < 1e-10

    def test_area_quadrature_vs_shoelace(self):
        # support quadrature and polygon shoelace agree at second order
        errs = []
        for n in (128, 256):
            g = embed_support(construct_curve({"ellipse": {"a": 1.4, "b": 1.0}}, n))
            pts = g.x
            shoelace = 0.5 * np.sum(
                pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
            errs.append(abs(g.area - shoelace))
        assert errs[0] / errs[1] > 3.0

    def test_normals_are_gauss_directions(self):
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128))
        th = gauss_angles(128)
        assert np.max(np.abs(g.normal[:, 0] - np.cos(th))) < 1e-14
        assert np.max(np.abs(g.normal[:, 1] - np.sin(th))) < 1e-14

    def test_spectral_point_matches_grid(self):
        c = construct_curve({"ellipse": {"a": 1.6, "b": 1.0}}, 512)
        g = embed_support(c)
        idx = [0, 17, 99]
        # positions differ only through the h' method (spectral vs 4th-order
        # stencil), so agreement is at the stencil truncation level
        pos, tau = support_interpolant(c, gauss_angles(512)[idx])
        assert np.max(np.abs(pos - g.x[idx])) < 1e-7
        assert np.max(np.abs(tau - g.tangent[idx])) < 1e-12


class TestMarkerCurve:
    def test_requires_at_least_16(self):
        th = np.linspace(0, 2 * np.pi, 9)[:-1]
        with pytest.raises(ConfigInvalid):
            geometry_of_markers(np.column_stack([np.cos(th), np.sin(th)]))

    def test_rejects_clockwise(self):
        th = np.linspace(0, 2 * np.pi, 33)[:-1]
        with pytest.raises(ConfigInvalid):
            geometry_of_markers(np.column_stack([np.cos(-th), np.sin(-th)]))

    def test_rejects_repeated_point(self):
        th = np.linspace(0, 2 * np.pi, 33)[:-1]
        pts = np.column_stack([np.cos(th), np.sin(th)])
        pts[5] = pts[4]
        with pytest.raises(NonFinite):
            geometry_of_markers(pts)

    def test_simple_polygon_detected(self):
        # a convex simple polygon turns by 2 pi and is accepted
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 64))
        assert geometry_of_markers(g.x).m == 64
        # a 33-gon that winds twice turns left at every vertex (kappa > 0)
        # but by 4 pi in total
        th = 4 * np.pi * np.arange(33) / 33
        with pytest.raises(ConvexityLost, match="winds 2 times"):
            geometry_of_markers(np.column_stack([np.cos(th), np.sin(th)]))

    def test_circumcircle_curvature_exact_on_circles(self):
        th = np.linspace(0, 2 * np.pi, 65)[:-1]
        g = geometry_of_markers(3.0 * np.column_stack([np.cos(th), np.sin(th)]))
        assert np.max(np.abs(g.kappa - 1.0 / 3.0)) < 1e-13

    def test_marker_curvature_converges_on_ellipse(self):
        errs = []
        for n in (128, 256):
            gs = embed_support(construct_curve({"ellipse": {"a": 1.5, "b": 1.0}}, n))
            gm = geometry_of_markers(gs.x)
            errs.append(np.max(np.abs(gm.kappa - gs.kappa)))
        assert errs[0] / errs[1] > 3.0


    @settings(max_examples=40, deadline=None)
    @given(st.integers(16, 600), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.7),
           st.floats(1.0, 3.0), st.floats(0.0, 0.2))
    def test_matches_frozen_roll(self, m, seed, jitter, a, ripple):
        # jittered markers on a rippled ellipse; large jitter or ripple gives
        # polygons that both must reject with the same error
        rng = np.random.default_rng(seed)
        th = 2.0 * np.pi * (np.arange(m) + jitter * rng.uniform(-1.0, 1.0, m)) / m
        r = 1.0 + ripple * np.cos(5.0 * th)
        pts = np.column_stack([a * r * np.cos(th), r * np.sin(th)])
        try:
            want = _geometry_of_markers_frozen(pts)
        except PcflowError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                geometry_of_markers(pts)
            return
        got = geometry_of_markers(pts)
        for name in ("x", "tangent", "normal", "kappa", "ds"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert (got.length, got.area) == (want.length, want.area)


# The frozen reference: geometry_of_markers as it was when it took the
# periodic neighbours from np.roll, copied verbatim with its shoelace area.
# The program's marker geometry must equal it bit for bit.
def _geometry_of_markers_frozen(points):
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
    x, y = pts[:, 0], pts[:, 1]
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    if area <= 0.0:
        raise ConfigInvalid("marker polygon must be positively oriented")
    chord = nxt - prv
    l_chord = np.hypot(chord[:, 0], chord[:, 1])
    if np.min(l_chord) < 1e-14:
        raise NonFinite("degenerate marker spacing")

    tangent = chord / l_chord[:, None]
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


class TestIsoperimetric:
    def test_circle_is_one(self):
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 256))
        assert abs(isoperimetric_ratio(g) - 1.0) < 1e-10

    def test_ellipse_two_to_one(self):
        # L^2/(4 pi A); independent value from the complete elliptic integral
        g = embed_support(construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 1024))
        assert abs(isoperimetric_ratio(g) - 1.1888271442758251) < 1e-8

    def test_below_one_raises(self):
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 256))
        bad = type(g)(x=g.x, tangent=g.tangent, normal=g.normal, kappa=g.kappa,
                      ds=g.ds * 0.9, length=g.length * 0.9, area=g.area)
        with pytest.raises(NonFinite):
            isoperimetric_ratio(bad)


# h + h'' >= R - sum |a_k| (k^2 - 1), so the filter keeps the curve convex
convex_modes = st.lists(
    st.tuples(st.integers(min_value=2, max_value=6),
              st.floats(min_value=0.0, max_value=0.01),
              st.floats(min_value=0.0, max_value=2 * math.pi)),
    min_size=0, max_size=3,
).filter(lambda modes: sum(a * (k * k - 1) for k, a, _ in modes) < 0.9)


# Curve specs of the three kinds as a config may spell them: whole numbers
# as ints or floats, modes as lists or tuples, an ellipse's phase omitted or not.
def _number(lo, hi):
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


raw_specs = st.one_of(
    st.builds(lambda r: {"circle": {"R": r}}, _number(0.01, 100.0)),
    st.builds(lambda b, d, phase: {"ellipse": {"a": b + d, "b": b, **phase}},
              _number(0.5, 2.0), _number(0.0, 1.0),
              st.one_of(st.just({}), st.builds(lambda ph: {"phase": ph}, _number(0.0, 6.0)))),
    st.builds(lambda r, modes, box: {"fourier": {"R": r, "modes": box(modes)}},
              _number(1.0, 3.0),
              st.lists(st.builds(lambda k, amp, ph, box: box((k, amp, ph)),
                                 st.one_of(st.integers(2, 6), st.integers(2, 6).map(float)),
                                 _number(0.0, 0.01), _number(0.0, 6.0),
                                 st.sampled_from([list, tuple])),
                       max_size=3).filter(
                  lambda modes: sum(a * (k * k - 1) for k, a, _ in modes) < 0.9),
              st.sampled_from([list, tuple])),
)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(spec=raw_specs, n=st.sampled_from([64, 128]))
    def test_normal_form_is_idempotent_and_builds_the_same_curve(self, spec, n):
        normal = curve_spec(spec)
        # json tells 1 from 1.0 and a tuple from a list, where == does not
        assert json.dumps(curve_spec(normal)) == json.dumps(normal)
        assert construct_curve(spec, n).h.tobytes() == construct_curve(normal, n).h.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(modes=convex_modes)
    def test_isoperimetric_at_least_one(self, modes):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        g = embed_support(construct_curve(spec, 128))
        assert isoperimetric_ratio(g) >= 1.0 - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(lam=st.floats(min_value=0.2, max_value=5.0), modes=convex_modes)
    def test_scaling_covariance(self, lam, modes):
        # h -> lam h scales kappa by 1/lam, area by lam^2, length by lam
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        c = construct_curve(spec, 128)
        g = embed_support(c)
        gs = embed_support(SupportCurve(lam * c.h))
        assert np.allclose(gs.kappa, g.kappa / lam, rtol=1e-9)
        assert abs(gs.area - lam ** 2 * g.area) < 1e-9 * max(1.0, gs.area)
        assert abs(gs.length - lam * g.length) < 1e-9 * max(1.0, gs.length)


# ``_readonly`` and ``embed_support`` as they were before the per-grid
# constants and the kept read-only arrays, copied verbatim: an embedding
# must hold the same bytes.
def _readonly_frozen(a):
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


def _embed_support_frozen(c):
    theta = gauss_angles(c.n)
    nu = np.column_stack([np.cos(theta), np.sin(theta)])
    tau = np.column_stack([-np.sin(theta), np.cos(theta)])
    hp = diff1_periodic(c.h, c.dtheta)
    x = c.h[:, None] * nu + hp[:, None] * tau
    ds = c.radius_of_curvature() * c.dtheta
    return dict(x=_readonly_frozen(x), tangent=_readonly_frozen(tau),
                normal=_readonly_frozen(nu), kappa=_readonly_frozen(c.kappa),
                ds=_readonly_frozen(ds), length=float(np.sum(ds)), area=c.area)


EMBED_SIZES = [64, 128, 256, 512, 1024, 2048]


class TestEmbeddingMatchesFrozen:
    """The embedding built from the cached grid constants against the frozen
    one, with grid sizes interleaved so that the caches switch between them."""

    @settings(max_examples=15, deadline=None)
    @given(curves=st.lists(st.tuples(convex_modes, st.sampled_from(EMBED_SIZES),
                                     st.floats(min_value=1e-3, max_value=1e3)),
                           min_size=3, max_size=6))
    def test_random_convex_curves(self, curves):
        for modes, n, scale in curves:
            spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
            c = SupportCurve(scale * construct_curve(spec, n).h)
            g, want = embed_support(c), _embed_support_frozen(c)
            for name in ("x", "tangent", "normal", "kappa", "ds"):
                got = getattr(g, name)
                assert got.tobytes() == want[name].tobytes()
                assert (got.shape, got.dtype) == (want[name].shape, want[name].dtype)
                assert not got.flags.writeable
            assert (g.length, g.area) == (want["length"], want["area"])

    def test_cached_arrays_reject_writes(self):
        c = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 128)
        g = embed_support(c)
        assert g.normal is gauss_frame(128)[1] and g.tangent is gauss_frame(128)[2]
        assert g.kappa is c.kappa
        for a in (*gauss_frame(128), g.x, g.tangent, g.normal, g.kappa, g.ds):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestReadonly:
    @pytest.mark.parametrize("make", [
        lambda: np.linspace(1.0, 2.0, 64),                       # writable
        lambda: np.linspace(1.0, 2.0, 128)[::2],                 # a writable view
        lambda: np.arange(64),                                   # int
        lambda: np.linspace(1.0, 2.0, 64, dtype=np.float32),     # float32
        lambda: [1.0, 2.0, 3.0],                                 # a list
        lambda: np.asfortranarray(np.ones((4, 2))),              # F order
    ])
    def test_copies_as_before(self, make):
        a = make()
        got, want = _readonly(a), _readonly_frozen(make())
        assert got is not a
        assert got.tobytes() == want.tobytes()
        assert (got.shape, got.dtype, got.flags.f_contiguous) == (
            want.shape, want.dtype, want.flags.f_contiguous)
        assert not got.flags.writeable

    def test_keeps_a_read_only_array_that_owns_its_memory(self):
        a = np.linspace(1.0, 2.0, 64).copy()
        a.flags.writeable = False
        assert _readonly(a) is a
        view = a[::2]                       # read-only, but a view of a
        assert _readonly(view) is not view
        assert _readonly(view).tobytes() == view.tobytes()

    def test_writable_h_is_copied(self):
        h = construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 64).h.copy()
        c = SupportCurve(h)
        before = (c.h.tobytes(), c.kappa.tobytes(), c.radius_of_curvature().tobytes(),
                  c.area, c.rc_min)
        h *= 2.0
        assert (c.h.tobytes(), c.kappa.tobytes(), c.radius_of_curvature().tobytes(),
                c.area, c.rc_min) == before

    @pytest.mark.parametrize("value, error, message", [
        (math.inf, NonFinite, "support values must be finite"),
        (math.nan, NonFinite, "support values must be finite"),
        (-math.inf, NonFinite, "support values must be finite"),
        (0.0, ConvexityLost, "support function must be strictly positive"),
        (-0.5, ConvexityLost, "support function must be strictly positive"),
    ])
    def test_bad_support_values_raise_as_before(self, value, error, message):
        h = np.ones(64)
        h[5] = value
        with pytest.raises(error) as info:
            SupportCurve(h)
        assert type(info.value) is error and str(info.value) == message
