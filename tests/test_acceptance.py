"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line so the status of all ten criteria can be
read off a plain pytest run.  Several criteria share the same monitored flow
runs; those are computed once per session.
"""

import json
import time

import numpy as np
import pytest

from pcflow import (
    FlowConfig,
    construct_curve,
    embed_support,
    inscribed_radius_oracle,
    mu_report,
    run_flow,
)
from pcflow.cli import EXIT_OK, main
from pcflow.identities import (
    TOLERANCES,
    evolution_refinement_study,
    rewrite_equivalence_sweep,
    theorem_property_run,
    trig_refined_profile,
)
from pcflow.noncollapse import z_matrix
from reference import (
    CEIL_GRID_TRIG,
    TOL_ALPHA,
    TOL_SYM,
    trig_identity_check,
    trig_residual_profile,
)

THEOREM_CASES = [
    ("ellipse", {"ellipse": {"a": 1.05, "b": 1.0}}),
    ("fourier", {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.5]]}}),
]
P_VALUES = (1.5, 2.0, 3.0)


def report(capsys, tag, ok):
    with capsys.disabled():
        print(f"\n[acceptance] {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, tag


@pytest.fixture(scope="session")
def theorem_runs():
    """Monitored flow runs shared by the theorem, alpha, and ordering tests."""
    runs = {}
    for label, spec in THEOREM_CASES:
        for p in P_VALUES:
            t0 = time.time()
            res = theorem_property_run(spec, p, n=512, horizon_frac=0.8)
            runs[(label, p)] = (res, time.time() - t0)
    return runs


def test_01_circle_extinction_law(capsys):
    # |R(t)^(p+1) - (1 - (p+1) t)| <= 1e-3 down to R = 0.2, within 10 s per p
    ok = True
    for p in P_VALUES:
        t_end = (1.0 - 0.2 ** (p + 1.0)) / (p + 1.0)
        c = construct_curve({"circle": {"R": 1.0}}, 256)
        cfg = FlowConfig(p=p, t_end=t_end, monitor_every=50,
                         kappa_stop=10.0 / 0.2)
        t0 = time.time()
        traj = run_flow(c, cfg)
        elapsed = time.time() - t0
        errs = [abs(float(np.mean(s.curve.h)) ** (p + 1.0) - (1.0 - (p + 1.0) * s.t))
                for s in traj.snapshots]
        ok = ok and max(errs) <= 1e-3 and elapsed <= 10.0
    report(capsys, "01 circle extinction law", ok)


def test_02_circle_two_point_identity(capsys):
    g = embed_support(construct_curve({"circle": {"R": 1.0}}, 512))
    Z = z_matrix(g)
    finite = Z[np.isfinite(Z)]
    rep = mu_report(g)
    ok = (float(np.max(np.abs(finite - 1.0))) <= 1e-10
          and abs(rep.mu - 1.0) <= 1e-6)
    report(capsys, "02 circle Z equals curvature, mu = 1", ok)


def test_03_inscribed_disc_oracle(capsys):
    specs = [
        {"ellipse": {"a": 2.0, "b": 1.0}},
        {"fourier": {"R": 1.0, "modes": [[2, 0.05, 0.3]]}},
        {"fourier": {"R": 1.0, "modes": [[3, 0.04, 0.0]]}},
        {"fourier": {"R": 1.2, "modes": [[2, 0.03, 1.0], [4, 0.015, 0.7]]}},
    ]
    ok = True
    for spec in specs:
        g = embed_support(construct_curve(spec, 512))
        rep = mu_report(g, include_oracle=True)
        prod = rep.r_oracle * rep.z_sup
        ok = ok and float(np.max(np.abs(prod - 1.0))) <= 1e-3
    # minor vertex of the 2:1 ellipse: disc radius 1, ratio Z_sup/kappa = 4
    g = embed_support(construct_curve(specs[0], 512))
    i = 128
    r = inscribed_radius_oracle(g, i)
    ratio = float(mu_report(g).z_sup[i]) / float(g.kappa[i])
    ok = ok and abs(r - 1.0) <= 1e-3 and abs(ratio - 4.0) <= 4e-3
    report(capsys, "03 inscribed-disc oracle inverts Z_sup", ok)


def test_04_mu_preserved_along_flow(capsys, theorem_runs):
    ok = True
    for (label, p), (res, elapsed) in theorem_runs.items():
        ok = ok and res.mu_max <= res.mu0 + TOLERANCES["tol_mu"]
        ok = ok and res.mu_end < res.mu0
        ok = ok and elapsed <= 60.0
        if label == "fourier":
            ok = ok and res.mu0 <= 1.2
    report(capsys, "04 mu non-increasing over 0.8 of the horizon", ok)


def test_05_evolution_equation_residuals(capsys):
    ok = True
    reps = evolution_refinement_study({"ellipse": {"a": 1.2, "b": 1.0}}, 2.0,
                                      base_n=128, levels=3, window_steps=50)
    ok = ok and len(reps) == 2
    for rep in reps:
        drops = [rep.residuals[k] / rep.residuals[k + 1]
                 for k in range(len(rep.residuals) - 1)]
        ok = ok and min(drops) >= 3.0
    report(capsys, "05 evolution residuals drop under (2n, dt/4)", ok)


def test_06_rewrite_equivalence(capsys):
    t0 = time.time()
    worst = rewrite_equivalence_sweep(seed=0)
    elapsed = time.time() - t0
    ok = worst <= 1e-11 and elapsed <= 1.0
    report(capsys, "06 algebraic rewrite equivalence", ok)


def test_07_two_point_trig_identity(capsys):
    ok = True
    for a in (1.3, 1.6, 2.0):
        spec = {"ellipse": {"a": a, "b": 1.0}}
        g = embed_support(construct_curve(spec, 512))
        ok = ok and trig_residual_profile(g) <= CEIL_GRID_TRIG
        r1 = trig_refined_profile(construct_curve(spec, 512))
        r2 = trig_refined_profile(construct_curve(spec, 1024))
        ok = ok and r1 / r2 >= 1.8
    g = embed_support(construct_curve({"circle": {"R": 1.0}}, 512))
    quarter = trig_identity_check(g, 0, 128)
    half = trig_identity_check(g, 0, 256)
    ok = (ok and abs(quarter.lhs + 1.0) <= 1e-12 and quarter.residual <= 1e-12
          and abs(half.lhs) <= 1e-12 and half.residual <= 1e-12)
    report(capsys, "07 two-point trig identity", ok)


def test_08_alpha_bound_at_short_chords(capsys, theorem_runs):
    ok = True
    for (res, _) in theorem_runs.values():
        for s in res.samples:
            if s.d_lt_inv_Z:
                ok = ok and s.alpha <= np.pi / 4 + TOL_ALPHA
    report(capsys, "08 alpha bound when d < 1/Z", ok)


def test_09_maximizer_ordering_and_symmetry(capsys, theorem_runs):
    tol = TOL_SYM
    ok = True
    for (res, _) in theorem_runs.values():
        for s in res.samples:
            ok = ok and s.kappa_i <= s.kappa_j * (1.0 + tol)
            ok = ok and s.kappa_j <= s.Z * (1.0 + tol)
            ok = ok and abs(s.Z - s.Z_ji) <= tol * s.Z
    report(capsys, "09 maximizer ordering and symmetry", ok)


def test_10_deterministic_outputs(capsys, tmp_path):
    payload = {
        "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}},
        "p": 2.0, "n": 64, "horizon": {"t_end": 0.01}, "monitor_every": 100,
        "seed": 17,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        ok = ok and (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(capsys, "10 byte-identical reruns", ok)
