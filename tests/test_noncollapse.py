"""Two-point quantity Z, the ratio mu, and the inscribed-disc oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcflow import identities
from pcflow import (
    DegenerateChord,
    MarkerCurve,
    construct_curve,
    embed_support,
    inscribed_curvature,
    inscribed_radius_oracle,
    mu_report,
    z_value,
)
from pcflow.identities import trig_refined_profile, trig_residual_profile
from pcflow.noncollapse import (
    DIAG_WINDOW,
    SCAN_ROWS,
    alpha_check,
    chord_config,
    row_scan,
    z_matrix,
)
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


@pytest.fixture(scope="module")
def circle_geom():
    _, g = embed_support(construct_curve({"circle": {"R": 2.0}}, 128))
    return g


@pytest.fixture(scope="module")
def ellipse_geom():
    _, g = embed_support(construct_curve({"ellipse": {"a": 2.0, "b": 1.0}}, 512))
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
        assert all(z_value(g, i, j) == Z[i, j] for i, j in pairs)

    def test_diagonal_raises(self, circle_geom):
        with pytest.raises(DegenerateChord):
            z_value(circle_geom, 5, 5)

    def test_band_raises(self, circle_geom):
        # z_matrix holds -inf within DIAG_WINDOW of the cyclic diagonal
        m = circle_geom.m
        for i, j in ((5, 7), (0, m - 2), (m - 1, 1)):
            with pytest.raises(DegenerateChord):
                z_value(circle_geom, i, j)
        assert np.isfinite(z_value(circle_geom, 0, 3))
        assert z_value(circle_geom, 0, 3) == z_reference(circle_geom, 0, 3)
        assert z_value(circle_geom, m - 1, 2) == z_reference(circle_geom, m - 1, 2)

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
        Z = z_value(g, i, j)
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
        assert inscribed_curvature(g, i) == pytest.approx(1.0, rel=1e-6)
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


class TestAlpha:
    def test_quarter_separation_on_circle(self, circle_geom):
        # chord at angular separation pi/2 meets the tangent at pi/4
        alpha, flag = alpha_check(circle_geom, 0, 32)
        assert alpha == pytest.approx(np.pi / 4, abs=1e-12)

    def test_diametral_contact_is_orthogonal(self, circle_geom):
        alpha, flag = alpha_check(circle_geom, 0, 64)
        assert alpha == pytest.approx(np.pi / 2, abs=1e-12)
        # d = 2R = 1/Z exactly, so the strict inequality does not hold
        assert not flag

    def test_chord_config_degenerate(self, circle_geom):
        with pytest.raises(DegenerateChord):
            chord_config(circle_geom, 7, 7)


def _assert_scan_matches_dense(g):
    """Scan, mu report, inscribed curvature and z_value against the frozen
    einsum reference, evaluated a row block at a time."""
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
        assert inscribed_curvature(g, i) == max(float(g.kappa[i]), float(row_max[i]))
        j = int(row_arg[i])
        assert z_value(g, i, j) == z_reference(g, i, j)


def _assert_trig_profiles_match_reference(c, monkeypatch):
    """Both trig profiles against the same profiles run on the reference
    kernel (its dense row max/argmax and its masked pair values)."""
    _, g = embed_support(c)
    got = (trig_refined_profile(c), trig_residual_profile(g))
    monkeypatch.setattr(identities, "row_scan", _reference_rows)
    monkeypatch.setattr(identities, "_z_pairs", z_reference)
    assert got == (trig_refined_profile(c), trig_residual_profile(g))


class TestScanMatchesDense:
    """The row-block scan against the frozen einsum reference, compared
    with ==."""

    @settings(max_examples=12, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 128, 256, 1024]))
    def test_fourier_curves(self, modes, n):
        spec = {"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}
        _, g = embed_support(construct_curve(spec, n))
        _assert_scan_matches_dense(g)
        if n <= 256:
            cols = np.arange(g.m)
            assert np.array_equal(z_matrix(g), z_reference(g, cols[:, None], cols))

    @pytest.mark.parametrize("m", [50, 100, 130])
    def test_marker_geometries(self, m):
        # fewer rows than one block, and sizes that are not a multiple of it
        assert m < SCAN_ROWS or m % SCAN_ROWS != 0
        th = np.linspace(0.0, 2.0 * np.pi, m + 1)[:-1]
        r = 1.0 + 0.02 * np.cos(3.0 * th)
        g = MarkerCurve(np.column_stack([1.4 * r * np.cos(th), r * np.sin(th)])).geometry
        _assert_scan_matches_dense(g)
        cols = np.arange(m)
        assert np.array_equal(z_matrix(g), z_reference(g, cols[:, None], cols))

    def test_large_curve_against_reference(self):
        # n = 2048, checked a row block at a time (the dense reference would
        # need 64 MB for its difference tensor)
        spec = {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.4], [5, 0.004, 1.1]]}}
        _, g = embed_support(construct_curve(spec, 2048))
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
        _, g = embed_support(construct_curve({"ellipse": {"a": 1.3, "b": 1.0}}, 2048))
        tracemalloc.start()
        try:
            mu_report(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
