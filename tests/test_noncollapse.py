"""Two-point quantity Z, the ratio mu, and the inscribed-disc oracle."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcflow import noncollapse
from pcflow import (
    CurveGeometry,
    DegenerateChord,
    construct_curve,
    embed_support,
    geometry_of_markers,
    inscribed_radius_oracle,
    mu_report,
)
from pcflow.curves import BLOCK_ELEMS
from pcflow.identities import trig_refined_profile
from pcflow.noncollapse import (
    DIAG_WINDOW,
    TwoPointConfig,
    _scan_plan,
    _z_pairs,
    mu_maximizers,
    mu_pairs,
    prescan_rows,
    row_scan,
    row_scans,
    scan_rows,
    z_matrix,
)
from reference import chord_config, dot_fma, trig_residual_profile
from test_curves import convex_modes


# The frozen reference oracle: the einsum kernel the program used before the
# split-coordinate kernel, copied verbatim.  The program's Z must equal it
# bit for bit.
def z_reference(g, i, j) -> np.ndarray:
    """Z at the broadcast index pairs (i, j); pairs within DIAG_WINDOW of
    the (cyclic) diagonal are -inf."""
    diff = g.x[i] - g.x[j]
    d2 = np.einsum("...k,...k->...", diff, diff)
    num = np.einsum("...k,...k->...", diff, g.normal[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        Z = 2.0 * num / d2
    sep = np.abs(i - j)
    return np.where(np.minimum(sep, g.m - sep) <= DIAG_WINDOW, -np.inf, Z)


def _reference_rows(g, block=256):
    """Row max and first argmax of the reference Z, a row block at a time,
    so that no m x m x 2 tensor is built at large m."""
    cols = np.arange(g.m)
    blocks = [z_reference(g, cols[s:s + block, None], cols)
              for s in range(0, g.m, block)]
    return (np.concatenate([np.max(Z, axis=1) for Z in blocks]),
            np.concatenate([np.argmax(Z, axis=1) for Z in blocks]))


# The frozen reference oracle: the disc oracle as it was before its
# containment test tried the last failing sample first, copied verbatim.
# The program's radii must equal it bit for bit.
def inscribed_radius_reference(g, i: int) -> float:
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if contained(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol_r:
            return 0.5 * (lo + hi)
    raise AssertionError("inscribed-radius bisection did not reach tolerance")


def _oracle_radii(g) -> list:
    return [inscribed_radius_oracle(g, i) for i in range(g.m)]


def _reference_radii(g) -> list:
    return [inscribed_radius_reference(g, i) for i in range(g.m)]


# The curves of the benchmark's ``check`` workload at seed 0.
CHECK_CURVES = [
    {"fourier": {"R": 1.0, "modes": [[2, 0.003307, 2.671973], [3, 0.002954, 0.414069],
                                     [4, 0.002984, 4.583379]]}},
    {"fourier": {"R": 1.0, "modes": [[2, 0.003639, 2.667377], [3, 0.001329, 3.08686],
                                     [4, 0.002351, 2.492853]]}},
    {"fourier": {"R": 1.0, "modes": [[2, 0.001275, 1.932995], [3, 0.001387, 4.22313],
                                     [4, 0.002116, 3.226234]]}},
]


def _marker_ellipse(m, jitter=0.0, seed=0):
    """m markers on a 1.4 : 1 ellipse with a cos(3 theta) ripple, the major
    vertex at marker 0; ``jitter`` perturbs the marker angles."""
    th = np.linspace(0.0, 2.0 * np.pi, m + 1)[:-1]
    th = th + jitter * (2.0 * np.pi / m) * np.random.default_rng(seed).uniform(-1, 1, m)
    r = 1.0 + 0.02 * np.cos(3.0 * th)
    return geometry_of_markers(np.column_stack([1.4 * r * np.cos(th), r * np.sin(th)]))


@pytest.fixture(scope="module")
def circle_geom():
    g = embed_support(construct_curve({"circle": {"R": 2.0}}, 128))
    return g


@pytest.fixture(scope="module")
def ellipse_geom():
    g = embed_support(construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 512))
    return g


class TestZValue:
    def test_circle_z_equals_curvature_everywhere(self, circle_geom):
        g = circle_geom
        # Z(i, j) = kappa = 1/R for every pair on a circle
        Z = z_matrix(g)
        finite = Z[np.isfinite(Z)]
        assert np.max(np.abs(finite - 0.5)) < 1e-10

    def test_single_pair_matches_matrix(self, ellipse_geom):
        g = ellipse_geom
        Z = z_reference(g, np.arange(g.m)[:, None], np.arange(g.m))
        assert np.array_equal(z_matrix(g), Z)
        pairs = [(i, j) for i in range(0, g.m, 37) for j in range(5, g.m, 31)
                 if np.isfinite(Z[i, j])]
        assert all(_z_pairs(g, i, j) == Z[i, j] for i, j in pairs)

    def test_band_is_masked(self, circle_geom):
        Z = z_matrix(circle_geom)
        m = circle_geom.m
        assert Z[0, 0] == -np.inf
        assert Z[0, 2] == -np.inf
        assert Z[0, m - 2] == -np.inf
        assert np.isfinite(Z[0, 3])

    def test_z_is_curvature_of_tangent_circle(self, ellipse_geom):
        # the circle through X_j tangent at X_i has curvature Z(i, j):
        # its center is X_i - nu_i / Z, equidistant from both points
        g = ellipse_geom
        i, j = 40, 350
        Z = float(_z_pairs(g, i, j))
        assert Z == z_reference(g, i, j)
        center = g.x[i] - g.normal[i] / Z
        ri = np.hypot(*(g.x[i] - center))
        rj = np.hypot(*(g.x[j] - center))
        assert ri == pytest.approx(rj, rel=1e-10)


class TestMuReport:
    def test_circle_mu_is_one(self, circle_geom):
        rep = mu_report(circle_geom)
        assert rep.mu == pytest.approx(1.0, abs=1e-6)
        assert rep.delta_equiv == pytest.approx(1.0, abs=1e-6)

    def test_ellipse_mu_is_a_squared(self, ellipse_geom):
        # max Z_sup/kappa on the 2:1 ellipse sits at the minor vertices:
        # inscribed curvature 1/b^2 * b = 1, vertex curvature b/a^2 = 1/4
        rep = mu_report(ellipse_geom)
        assert rep.mu == pytest.approx(4.0, rel=1e-6)

    def test_ellipse_minor_vertex_values(self, ellipse_geom):
        g = ellipse_geom
        i = 128                      # theta = pi/2, minor vertex
        assert mu_report(g).z_sup[i] == pytest.approx(1.0, rel=1e-6)
        assert g.kappa[i] == pytest.approx(0.25, rel=1e-6)

    def test_argmax_config_is_consistent(self, ellipse_geom):
        rep = mu_report(ellipse_geom)
        a = rep.argmax
        assert rep.z_sup[a.i] == pytest.approx(a.Z, rel=1e-12)
        w = np.array(a.w)
        assert np.hypot(*w) == pytest.approx(1.0, abs=1e-12)
        assert a.d == pytest.approx(np.hypot(*(ellipse_geom.x[a.i] - ellipse_geom.x[a.j])))

    def test_report_dict_schema(self, circle_geom):
        d = mu_report(circle_geom).to_dict()
        assert set(d) == {"mu", "delta_equiv", "argmax", "per_point"}
        assert set(d["argmax"]) == {"i", "j", "d", "Z", "alpha"}
        assert len(d["per_point"]) == circle_geom.m
        assert set(d["per_point"][0]) == {"i", "kappa", "Z_sup", "r_oracle"}


class TestInscribedOracle:
    def test_circle_radius_recovered(self, circle_geom):
        r = inscribed_radius_oracle(circle_geom, 0)
        assert r == pytest.approx(2.0, rel=1e-6)

    def test_oracle_inverts_z_sup_on_ellipse(self, ellipse_geom):
        g = ellipse_geom
        rep = mu_report(g)
        for i in (0, 64, 128, 300, 470):
            r = inscribed_radius_oracle(g, i)
            assert r * rep.z_sup[i] == pytest.approx(1.0, abs=1e-3)

    def test_minor_vertex_disc_radius_one(self, ellipse_geom):
        # osculating circle at the minor vertex of the 2:1 ellipse has
        # radius 4 but the inscribed disc is limited by the width b = 1
        assert inscribed_radius_oracle(ellipse_geom, 128) == pytest.approx(1.0, abs=1e-3)


class TestOracleMatchesReference:
    """The disc oracle against its frozen reference, compared with == at
    every point."""

    @settings(max_examples=6, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 1024]))
    def test_fourier_curves(self, modes, n):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        g = embed_support(construct_curve(spec, n))
        assert _oracle_radii(g) == _reference_radii(g)

    @pytest.mark.parametrize("m, jitter", [(50, 0.0), (130, 0.0), (130, 0.3), (257, 0.2)])
    def test_marker_polygons(self, m, jitter):
        g = _marker_ellipse(m, jitter, seed=m)
        assert _oracle_radii(g) == _reference_radii(g)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_circles(self, n):
        # near the answer r = R the centre is near the origin, so every
        # sample is nearly equidistant from it: the squares and hypot can
        # pick different argmins, and only the decisions must agree
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, n))
        assert _oracle_radii(g) == _reference_radii(g)

    @pytest.mark.parametrize("spec", CHECK_CURVES)
    def test_check_curves(self, spec):
        g = embed_support(construct_curve(spec, 1024))
        assert _oracle_radii(g) == _reference_radii(g)

    @pytest.mark.parametrize("margin", [0.5, math.inf])
    def test_wide_margin_takes_the_exact_test(self, margin, monkeypatch):
        # 0.5 sends every scan whose minimum square is within 50% of
        # bound^2 to hypot; an infinite margin sends every scan there
        g = embed_support(construct_curve(CHECK_CURVES[0], 256))
        expected = _reference_radii(g)
        monkeypatch.setattr(noncollapse, "ORACLE_MARGIN", margin)
        assert _oracle_radii(g) == expected

    @pytest.mark.parametrize("scale", [1e-170, 3e-154, 1.3e154, 1e160])
    def test_squares_out_of_range(self, scale):
        # At 1e-170 and 1e160 bound^2 leaves the normal range, so only the
        # exact test runs; at 3e-154 it is normal but the near samples'
        # squares are subnormal, and at 1.3e154 the far samples' squares
        # overflow.  Neither curve builder accepts such curves, but the
        # oracle takes any geometry; a RuntimeWarning would fail the test.
        g0 = embed_support(construct_curve(
            {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4], [5, 0.004, 1.1]]}}, 128))
        g = CurveGeometry(x=g0.x * scale, tangent=g0.tangent, normal=g0.normal,
                          kappa=g0.kappa / scale, ds=g0.ds * scale,
                          length=g0.length * scale, area=0.0)
        radii = _oracle_radii(g)
        assert radii == _reference_radii(g)
        assert max(radii) / scale == pytest.approx(max(_oracle_radii(g0)), rel=1e-9)


class TestAlpha:
    def test_quarter_separation_on_circle(self, circle_geom):
        # chord at angular separation pi/2 meets the tangent at pi/4
        assert chord_config(circle_geom, 0, 32).alpha == pytest.approx(np.pi / 4, abs=1e-12)

    def test_diametral_contact_is_orthogonal(self, circle_geom):
        cfg = chord_config(circle_geom, 0, 64)
        assert cfg.alpha == pytest.approx(np.pi / 2, abs=1e-12)
        # d = 2R = 1/Z exactly, so the strict inequality does not hold
        assert not cfg.d < 1.0 / cfg.Z

    def test_chord_config_degenerate(self, circle_geom):
        with pytest.raises(DegenerateChord):
            chord_config(circle_geom, 7, 7)


def _assert_scan_matches_dense(g):
    """Scan, mu report and pair values against the frozen einsum reference,
    evaluated a row block at a time."""
    row_max, row_arg = _reference_rows(g)
    scan_max, scan_arg = row_scan(g)
    assert np.array_equal(scan_max, row_max)
    assert np.array_equal(scan_arg, row_arg)
    z_sup = np.maximum(g.kappa, row_max)
    ratios = z_sup / g.kappa
    i_star = int(np.argmax(ratios))
    rep = mu_report(g)
    assert np.array_equal(rep.z_sup, z_sup)
    assert rep.mu == float(ratios[i_star])
    assert (rep.argmax.i, rep.argmax.j) == (i_star, int(row_arg[i_star]))
    for i in (0, g.m // 3, g.m - 1):
        j = int(row_arg[i])
        assert _z_pairs(g, i, j) == z_reference(g, i, j)


def _assert_trig_profiles_match_reference(c, monkeypatch):
    """Both trig profiles against the same profiles run on the reference
    kernel (its dense row max/argmax and its masked pair values)."""
    g = embed_support(c)
    got = (trig_refined_profile(c), trig_residual_profile(g))
    monkeypatch.setattr(noncollapse, "row_scan", _reference_rows)
    monkeypatch.setattr(noncollapse, "_z_pairs", z_reference)
    assert got == (trig_refined_profile(c), trig_residual_profile(g))


# The frozen reference kernel: ``_half_z`` as it was before its i operands
# were written into the buffers they combine with (each (rows, 1) column
# broadcast along the inner axis), with the ``_z_pairs`` and ``row_scan``
# around it, copied verbatim.  The program's Z must equal it byte for byte.
def _half_z_frozen(xi, yi, nxi, nyi, xj, yj, a, b, c, out) -> np.ndarray:
    np.subtract(xi, xj, out=a)
    np.subtract(yi, yj, out=b)
    np.multiply(a, nxi, out=out)
    np.multiply(b, nyi, out=c)
    np.add(out, c, out=out)
    np.multiply(a, a, out=a)
    np.multiply(b, b, out=b)
    np.add(a, b, out=a)
    return np.divide(out, a, out=out)


def _z_pairs_frozen(g, i, j) -> np.ndarray:
    x, y = g.x[:, 0], g.x[:, 1]
    nx, ny = g.normal[:, 0], g.normal[:, 1]
    buf = np.empty((4, *np.broadcast(i, j).shape))
    a, b, c, Z = buf[0, ...], buf[1, ...], buf[2, ...], buf[3, ...]  # 0-d for one pair
    with np.errstate(divide="ignore", invalid="ignore"):
        _half_z_frozen(x[i], y[i], nx[i], ny[i], x[j], y[j], a, b, c, Z)
    Z *= 2.0
    return Z


def _row_scan_frozen(g):
    m = g.m
    x, y, nx, ny = (np.ascontiguousarray(col) for col in (*g.x.T, *g.normal.T))
    rows = scan_rows(m)
    a, b, c, half = np.empty((4, rows, m))
    row_start = np.arange(rows) * m
    band = (np.arange(m)[:, None] + np.arange(-DIAG_WINDOW, DIAG_WINDOW + 1)) % m
    row_max = np.empty(m)
    row_arg = np.empty(m, dtype=np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, m, rows):
            k = min(rows, m - start)
            s = slice(start, start + k)
            z = _half_z_frozen(x[s, None], y[s, None], nx[s, None], ny[s, None], x, y,
                               a[:k], b[:k], c[:k], half[:k])
            flat = z.ravel()
            flat[row_start[:k, None] + band[s]] = -np.inf
            arg = np.argmax(z, axis=1, out=row_arg[s])
            row_max[s] = flat[row_start[:k] + arg]
    row_max *= 2.0
    return row_max, row_arg


def _assert_kernel_matches_frozen(g, rng):
    """row_scan, and _z_pairs at scalar, column-by-row and row-by-scalar
    index shapes, against the frozen kernel, byte for byte (the diagonal's
    0/0 NaN included)."""
    got, want = row_scan(g), _row_scan_frozen(g)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    cols = np.arange(g.m)
    rows = np.sort(rng.choice(g.m, size=min(g.m, 24), replace=False))
    i, j = (int(v) for v in rng.integers(0, g.m, 2))
    for pair in ((rows[:, None], cols), (i, j), (i, i), (cols, j), (rows, rows[::-1])):
        assert _z_pairs(g, *pair).tobytes() == _z_pairs_frozen(g, *pair).tobytes()


class TestKernelMatchesFrozen:
    """The two-point kernel, which fills each i operand into its block
    before a same-shape pass, against the frozen broadcast kernel."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(min_value=16, max_value=300),
           jitter=st.floats(min_value=0.0, max_value=0.4),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @example(m=130, jitter=0.0, seed=0)      # 126 rows per block, a last block of 4
    @example(m=300, jitter=0.3, seed=1)      # 54 rows per block, a last block of 30
    def test_marker_polygons(self, m, jitter, seed):
        _assert_kernel_matches_frozen(_marker_ellipse(m, jitter, seed),
                                      np.random.default_rng(seed))

    @settings(max_examples=12, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 512, 1024, 2048]))
    def test_fourier_curves(self, modes, n):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        _assert_kernel_matches_frozen(embed_support(construct_curve(spec, n)),
                                      np.random.default_rng(n))


class TestScanMatchesDense:
    """The row-block scan against the frozen einsum reference, compared
    with ==."""

    @settings(max_examples=12, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 1024]))
    def test_fourier_curves(self, modes, n):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        g = embed_support(construct_curve(spec, n))
        _assert_scan_matches_dense(g)
        if n <= 256:
            cols = np.arange(g.m)
            assert np.array_equal(z_matrix(g), z_reference(g, cols[:, None], cols))

    @pytest.mark.parametrize("m", [50, 100, 130])
    def test_marker_geometries(self, m):
        # fewer rows than one block holds, and sizes that are not a multiple
        # of the rows per block
        assert m < BLOCK_ELEMS // m or m % scan_rows(m) != 0
        g = _marker_ellipse(m)
        _assert_scan_matches_dense(g)
        cols = np.arange(m)
        assert np.array_equal(z_matrix(g), z_reference(g, cols[:, None], cols))

    def test_band_wraps_in_first_and_last_blocks(self):
        # 130 markers scan in blocks of 126 rows and a partial last block of
        # 4, so the cyclic band wraps in the first block (rows 0, 1) and in
        # the last (rows 128, 129).  In rows 0, 1 and 129, around the major
        # vertex at marker 0, an unmasked band entry would be the row maximum.
        m = 130
        assert (scan_rows(m), m % scan_rows(m)) == (126, 4)
        g = _marker_ellipse(m)
        row_max, row_arg = row_scan(g)
        ref_max, ref_arg = _reference_rows(g)
        assert np.array_equal(row_max, ref_max)
        assert np.array_equal(row_arg, ref_arg)
        offsets = np.arange(-DIAG_WINDOW, DIAG_WINDOW + 1)
        for i in (0, 1, m - 1):
            assert min((row_arg[i] - i) % m, (i - row_arg[i]) % m) > DIAG_WINDOW
            assert np.nanmax(_z_pairs(g, i, (i + offsets) % m)) > row_max[i]

    def test_batch_of_support_curves_against_reference(self):
        # a batch of S = 4 curves on one grid, as the theorem runs' mu
        # samples scan them: each curve's points are tiled into the scan's
        # j buffer afresh, so every row must equal its curve's reference
        n = 256
        specs = [{"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.7}},
                 {"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.2], [4, 0.01, 2.0]]}},
                 {"circle": {"R": 0.5}}, *CHECK_CURVES[:1]]
        gs = [embed_support(construct_curve(spec, n)) for spec in specs]
        row_max, row_arg = row_scans(np.stack([g.x for g in gs]), gs[0].normal)
        for g, curve_max, curve_arg in zip(gs, row_max, row_arg):
            assert g.normal is gs[0].normal
            ref_max, ref_arg = _reference_rows(g)
            assert np.array_equal(curve_max, ref_max)
            assert np.array_equal(curve_arg, ref_arg)

    def test_batch_with_partial_blocks_against_reference(self):
        # 130 markers end in a partial block of 4 rows; copies of one marker
        # curve, moved and scaled, share its normals, so they scan as one
        # batch, and each curve after the first starts from the whole buffers
        g = _marker_ellipse(130)
        pts = [g.x, 1.7 * g.x, g.x + np.array([0.3, -0.2])]
        row_max, row_arg = row_scans(np.stack(pts), g.normal)
        for x, curve_max, curve_arg in zip(pts, row_max, row_arg):
            ref_max, ref_arg = _reference_rows(SimpleNamespace(x=x, normal=g.normal, m=g.m))
            assert np.array_equal(curve_max, ref_max)
            assert np.array_equal(curve_arg, ref_arg)

    def test_large_curve_against_reference(self):
        # n = 2048, checked a row block at a time (the dense reference would
        # need 64 MB for its difference tensor)
        spec = {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4], [5, 0.004, 1.1]]}}
        g = embed_support(construct_curve(spec, 2048))
        _assert_scan_matches_dense(g)

    @pytest.mark.parametrize("spec", [
        {"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.7}},
        {"fourier": {"R": 1.0, "modes": [[3, 0.03, 0.2], [4, 0.01, 2.0]]}},
    ])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_trig_profiles_against_reference(self, spec, n, monkeypatch):
        _assert_trig_profiles_match_reference(construct_curve(spec, n), monkeypatch)

    def test_mu_report_memory_stays_blocked(self):
        # the dense matrix at n = 2048 would need 256 MB for its difference
        # tensor alone; the scan holds SCAN_ROWS rows at a time
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 2048))
        tracemalloc.start()
        try:
            mu_report(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_mu_report_memory_is_block_sized(self):
        # the scan's three (2, rows, m) buffers, six blocks of BLOCK_ELEMS
        # pairs (768 kB), its m x 5 band indices (80 kB) and a few length-m
        # arrays: a 971 kB peak measured cold (776 kB with two buffers,
        # before the j operand was tiled once per curve).  Each i operand is
        # filled into its block, not tiled beside it (a tiled variant peaked
        # at 1,059 kB); the scan before it reused its buffers peaked at
        # 2.6 MB here
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 2048))
        tracemalloc.start()
        try:
            mu_report(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_z_matrix_keeps_only_its_result(self):
        # Z owns its memory: the fill buffers, four times its size, are freed
        # when z_matrix returns (a view of them kept 4 m^2 doubles alive)
        m = 512
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, m))
        tracemalloc.start()
        try:
            Z = z_matrix(g)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert Z.flags.owndata
        assert kept <= 1.25 * m * m * 8



def _assert_pairs_match_full_scan(gs) -> np.ndarray:
    """``mu_pairs`` against the full exact scan (``mu_maximizers``) on the
    geometries ``gs``, which share their normals: mu, i and j compared with
    ==, and every chord field byte for byte.  Returns the pre-scan's rows."""
    args = (np.stack([g.x for g in gs]), gs[0].normal, np.stack([g.kappa for g in gs]))
    _, *want = mu_maximizers(*args)
    got = mu_pairs(*args)
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got[3], want[3]))
    return prescan_rows(*args)


def _scaled(g, factor):
    """``g`` with its points scaled by ``factor`` (its curvature by the
    inverse); the normals are those of ``g``."""
    return SimpleNamespace(x=g.x * factor, normal=g.normal, kappa=g.kappa / factor, m=g.m)


class TestPrescanMatchesFullScan:
    """mu and its pair found by the certified pre-scan and the exact
    re-scan of its rows, against the full exact scan, compared with ==."""

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=1.001, max_value=3.0),
           phase=st.floats(min_value=0.0, max_value=np.pi),
           n=st.sampled_from([64, 128, 256, 512, 1024, 2048]))
    def test_ellipses(self, a, phase, n):
        spec = {"ellipse": {"a": a, "b": 1.0, "phase": phase}}
        _assert_pairs_match_full_scan([embed_support(construct_curve(spec, n))])

    @settings(max_examples=25, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 512, 1024, 2048]))
    def test_fourier_curves(self, modes, n):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        _assert_pairs_match_full_scan([embed_support(construct_curve(spec, n))])

    @pytest.mark.parametrize("n", [64, 128])
    def test_batch_of_curves_in_product_groups(self, n):
        # at n <= 128 a product block holds several whole curves; seven
        # curves end in a partial group
        specs = [{"ellipse": {"a": 1.0 + 0.05 * k, "b": 1.0, "phase": 0.3 * k}}
                 for k in range(1, 6)] + CHECK_CURVES[:2]
        rows = _assert_pairs_match_full_scan(
            [embed_support(construct_curve(spec, n)) for spec in specs])
        assert rows.sum() < rows.size

    @pytest.mark.parametrize("n", [64, 512])
    def test_circle_rescans_every_row(self, n):
        # every row's ratio ties with mu within the margin
        rows = _assert_pairs_match_full_scan(
            [embed_support(construct_curve({"circle": {"R": 1.0}}, n))])
        assert rows.all()

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_mirror_rows_tie(self, n):
        # the two minor vertices of an axis-aligned ellipse hold equal
        # ratios; both are re-scanned, and the first wins
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, n))
        z_sup = mu_maximizers(g.x[None], g.normal, g.kappa[None])[0][0]
        ratios = z_sup / g.kappa
        ties = np.flatnonzero(ratios == ratios.max())
        assert ties.tolist() == [n // 4, 3 * n // 4]
        rows = _assert_pairs_match_full_scan([g])
        assert rows[0, ties].all()

    def test_huge_scale_falls_back(self):
        # |x|^2 up to 4e307, near the float limit (the longest chord squared
        # stays finite): every row is scanned
        g = _scaled(embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0,
                                                               "phase": 0.2}}, 256)), 5e153)
        assert _assert_pairs_match_full_scan([g]).all()

    def test_tiny_scale_falls_back(self):
        # points below 2^-250: every row is kept, and both paths refuse the
        # chord, shorter than 1e-12
        g = _scaled(embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0,
                                                               "phase": 0.2}}, 256)), 1e-100)
        args = (g.x[None], g.normal, g.kappa[None])
        assert prescan_rows(*args).all()
        for find in (mu_maximizers, mu_pairs):
            with pytest.raises(DegenerateChord):
                find(*args)

    def test_one_curve_out_of_range_in_a_batch(self):
        # only the curve out of range falls back
        g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0,
                                                       "phase": 0.2}}, 256))
        rows = _assert_pairs_match_full_scan([g, _scaled(g, 5e153), _scaled(g, 2.0)])
        assert rows[1].all() and rows[0].sum() < 256 and rows[2].sum() < 256

    def test_large_grid(self):
        # at n = 8192 the margin is widest (it grows as n^3), and it still
        # leaves a few rows
        spec = {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4], [5, 0.004, 1.1]]}}
        rows = _assert_pairs_match_full_scan([embed_support(construct_curve(spec, 8192))])
        assert rows.sum() < 64

    def test_fallback_never_holds_the_rows_at_once(self):
        # a circle at n = 2048 re-scans every row through the scan's blocks:
        # the pre-scan's blocks and the scan's, not a 2048 x 2048 array (32 MB)
        g = embed_support(construct_curve({"circle": {"R": 1.0}}, 2048))
        args = (g.x[None], g.normal, g.kappa[None])
        tracemalloc.start()
        try:
            mu_pairs(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

# ``chord_config`` as it was before it clipped a Python float with min/max,
# copied verbatim but for its dots ``w @ nu``, now ``dot_fma``, the rounding
# they had where it was recorded: every field must hold the same bits.
def _chord_config_frozen(g, i, j):
    diff = g.x[i] - g.x[j]
    d = float(np.hypot(diff[0], diff[1]))
    if i == j or d < 1e-12:
        raise DegenerateChord("degenerate chord")
    w = diff / d
    Z = 2.0 * dot_fma(w, g.normal[i]) / d
    alpha = float(np.arcsin(np.clip(abs(dot_fma(w, g.normal[i])), 0.0, 1.0)))
    return TwoPointConfig(i=int(i), j=int(j), d=d, w=(float(w[0]), float(w[1])),
                          Z=Z, alpha=alpha)


def _fields(cfg):
    """The fields of a TwoPointConfig as exact text (repr tells -0.0 from 0.0)."""
    return repr((cfg.i, cfg.j, cfg.d, cfg.w, cfg.Z, cfg.alpha))


class TestChordConfigMatchesFrozen:
    @settings(max_examples=20, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 512]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_random_pairs_on_fourier_curves(self, modes, n, seed):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        g = embed_support(construct_curve(spec, n))
        for i, j in np.random.default_rng(seed).integers(0, n, (20, 2)).tolist():
            if i != j:
                assert _fields(chord_config(g, i, j)) == _fields(_chord_config_frozen(g, i, j))

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(min_value=16, max_value=200),
           jitter=st.floats(min_value=0.0, max_value=0.4),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_random_pairs_on_marker_polygons(self, m, jitter, seed):
        g = _marker_ellipse(m, jitter, seed)
        for i, j in np.random.default_rng(seed).integers(0, m, (20, 2)).tolist():
            if i != j:
                assert _fields(chord_config(g, i, j)) == _fields(_chord_config_frozen(g, i, j))

    def test_diametral_and_near_pairs(self, circle_geom):
        m = circle_geom.m
        for i, j in ((0, m // 2), (5, 5 + m // 2), (3, 4), (m - 1, 0)):
            got, want = chord_config(circle_geom, i, j), _chord_config_frozen(circle_geom, i, j)
            assert _fields(got) == _fields(want)


def test_scan_plan_rejects_writes():
    for m in (130, 128):
        _, row_start, band = _scan_plan(m)
        for a in (row_start, band):
            with pytest.raises(ValueError):
                a.flat[0] = 0
