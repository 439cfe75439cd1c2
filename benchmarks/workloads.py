"""Seeded workload inputs, the operations that run them, and per-operation
correctness checks.

An operation is one call into a public pcflow entry point:
``pcflow.identities.theorem_property_run`` for ``theorem`` and
``pcflow.cli.main`` for the three CLI workloads.  Its inputs come only from
``(seed, workload, index)``; pcflow receives the generated config files.

Run this file directly to re-record ``reference.json``, the seed-0 results
that later commits are compared against:

    python3 benchmarks/workloads.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("theorem", "sweep", "simulate", "check")
P_VALUES = (1.5, 2.0, 3.0)

# Distinct inputs per measured run; the run cycles through them.  Exponents
# (and, for ``theorem``, the curve family) follow the index, so every run
# holds each kind once.  Six for ``theorem``: three exponents times two
# families; the exponent alone moves its cost by up to 40%.  Three for the
# others, whose costs vary less; fewer inputs give each more repeats.
INPUTS_PER_RUN = {"theorem": 6, "sweep": 3, "simulate": 3, "check": 3}

# Seed whose inputs 0..REFERENCE_OPS-1 per workload, which cover every input
# of a measured run, are compared with reference.json on every repeat.
# Floats must agree to a relative REFERENCE_REL_TOL, or to REFERENCE_ABS_TOL
# for round-off-level residuals (the rewrite and trig checks read
# 1e-16..1e-12).  Integers and strings (steps, terminal reason,
# pass flags) must match exactly.
REFERENCE_SEED = 0
REFERENCE_OPS = max(INPUTS_PER_RUN.values())
REFERENCE_REL_TOL = 1e-9
REFERENCE_ABS_TOL = 1e-12

# r_oracle * Z_sup must stay this close to 1 at every point of a
# ``noncollapse`` report (the bisection oracle inverts the two-point sup).
ORACLE_TOL = 1e-3


# ---------------------------------------------------------------------------
# seeded input generation


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent stream per operation, stable across Python versions."""
    return random.Random(f"pcflow-bench/{workload}/{seed}/{index}")


def fourier_spec(rng: random.Random, budget: tuple[float, float]) -> dict:
    """Fourier support function R + sum a_k cos(k theta + phi_k), k = 2..4.

    The amplitudes are scaled so that sum |a_k| (k^2 - 1) equals a draw from
    ``budget`` times R; a value below R keeps h + h'' > 0, i.e. the curve
    strictly convex.
    """
    lo, hi = budget
    if not 0.0 < lo <= hi < 1.0:
        raise ValueError("convexity budget must lie in (0, 1)")
    R = 1.0
    ks = (2, 3, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in ks]
    total = sum(w * (k * k - 1) for w, k in zip(weights, ks))
    scale = rng.uniform(lo, hi) * R / total
    modes = [[k, round(w * scale, 6), round(rng.uniform(0.0, 2.0 * math.pi), 6)]
             for w, k in zip(weights, ks)]
    if not sum(abs(a) * (k * k - 1) for k, a, _ in modes) < R:
        raise ValueError("generated Fourier curve is not convex")
    return {"fourier": {"R": R, "modes": modes}}


def ellipse_spec(rng: random.Random, a_range: tuple[float, float]) -> dict:
    return {"ellipse": {"a": round(rng.uniform(*a_range), 6), "b": 1.0,
                        "phase": round(rng.uniform(0.0, math.pi), 6)}}


def make_op(workload: str, seed: int, index: int) -> dict:
    """Inputs of operation ``index``: the config and the commands to run.

    Exponents cycle through P_VALUES by index, and so does the curve family
    of ``theorem``; the curve parameters are drawn from the seed.
    """
    rng = op_rng(workload, seed, index)
    p = P_VALUES[index % len(P_VALUES)]
    if workload == "theorem":
        # Near-circular curves as in the acceptance tests (mu0 <= 1.2).  The
        # horizon is 0.04 of the inscribed-circle extinction estimate, about
        # 1,100 steps and 23 mu_report calls: short operations, so that a
        # run holds enough of them for a steady median.
        curve = (ellipse_spec(rng, (1.04, 1.08)) if index % 2 == 0
                 else fourier_spec(rng, (0.08, 0.14)))
        config = {"initial_curve": curve, "p": p, "n": 512,
                  "horizon": {"until": 0.04}, "monitor_every": 50, "seed": seed}
        commands = []
    elif workload == "sweep":
        grid = [rng.uniform(1.02, 1.06)]
        for _ in range(2):
            grid.append(grid[-1] + rng.uniform(0.06, 0.1))
        grid = [round(a, 6) for a in grid]
        config = {"initial_curve": {"ellipse": {"a": grid[0], "b": 1.0}},
                  "p": 2.0, "n": 128, "seed": seed,
                  "sweep": {"p_values": list(P_VALUES), "family": "ellipse",
                            "grid": grid, "n": 128, "horizon_frac": 0.3}}
        commands = [["sweep-mu0"]]
    elif workload == "simulate":
        # The README config (ellipse a = 1.4, n = 256, snapshot every 50
        # steps) with a in [1.35, 1.45], any orientation, and a horizon of
        # 0.3 instead of 0.8: about 3,500 steps and 220 files.
        config = {"initial_curve": ellipse_spec(rng, (1.35, 1.45)),
                  "p": 2.0, "n": 256, "sigma": 0.4, "horizon": {"until": 0.3},
                  "monitor_every": 50, "seed": seed}
        commands = [["simulate"]]
    elif workload == "check":
        # Fourier curves only: on ellipses at n = 1024 the trig residual of
        # ``verify`` sits at round-off (1e-13..5e-13), above the check's 1e-13
        # floor, so it can fail on a correct flow.
        config = {"initial_curve": fourier_spec(rng, (0.04, 0.1)),
                  "p": p, "n": 1024, "seed": seed}
        commands = [["noncollapse"], ["verify"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "index": index,
            "config": config, "commands": commands}


# ---------------------------------------------------------------------------
# running one operation


def run_op(op: dict, workdir: Path) -> dict:
    """Run one operation; return its wall time, exit codes and outputs.

    Only the entry-point call is timed.  The config file is written before
    and the outputs are read after the clock stops.
    """
    opdir = workdir / f"op{op['index']}"
    shutil.rmtree(opdir, ignore_errors=True)
    outdir = opdir / "out"
    outdir.mkdir(parents=True)
    cfg_path = opdir / "config.json"
    cfg_path.write_text(json.dumps(op["config"]))
    import pcflow.cli
    from pcflow import config, identities

    result = {"index": op["index"], "codes": [], "error": None, "value": None}
    t0 = time.perf_counter()
    try:
        if op["workload"] == "theorem":
            cfg = config.parse_config(cfg_path.read_text())
            result["value"] = identities.theorem_property_run(
                cfg.initial_curve, cfg.p, n=cfg.n, sigma=cfg.sigma,
                horizon_frac=cfg.horizon["until"],
                monitor_every=cfg.monitor_every)
            result["wall_s"] = time.perf_counter() - t0
        else:
            for cmd in op["commands"]:
                result["codes"].append(pcflow.cli.main(
                    [*cmd, "--config", str(cfg_path), "--out", str(outdir)]))
            result["wall_s"] = time.perf_counter() - t0
            result["value"] = read_outputs(outdir)
    except Exception as exc:  # a failed operation is counted, not fatal
        result["wall_s"] = time.perf_counter() - t0
        result["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    return result


def read_outputs(outdir: Path) -> dict:
    """The files the checks need, parsed; snapshot files are only counted."""
    out = {"files": 0}
    for path in sorted(outdir.iterdir()):
        out["files"] += 1
        if path.name in ("summary.json", "verify.json", "noncollapse.json"):
            out[path.stem] = json.loads(path.read_text())
        elif path.name in ("timeseries.csv", "mu0_sweep.csv"):
            lines = [ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#")]
            header = lines[0].split(",")
            out[path.stem] = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return out


# ---------------------------------------------------------------------------
# correctness


def summarize(op: dict, result: dict) -> dict:
    """The per-operation record compared with the reference."""
    value = result["value"]
    w = op["workload"]
    if w == "theorem":
        return {"mu0": value.mu0, "mu_max": value.mu_max, "mu_end": value.mu_end,
                "samples": len(value.samples), "t_final": value.samples[-1].t,
                "passed": bool(value.passed)}
    if w == "sweep":
        return {"rows": [[float(r["p"]), float(r["param"]),
                          float(r["mu0_empirical"]), r["pass"]]
                         for r in value.get("mu0_sweep", [])]}
    if w == "simulate":
        mus = [float(r["mu"]) for r in value["timeseries"]]
        s = value["summary"]
        return {"mu0": mus[0], "mu_max": max(mus), "mu_end": mus[-1],
                "steps": s["steps"], "terminal_reason": s["terminal_reason"],
                "t_final": s["t_final"], "aborted": s["aborted"],
                "files": value["files"]}
    reports = value["verify"]["reports"]
    return {"mu0": value["noncollapse"]["mu"],
            "verify_residuals": [r["residuals"] for r in reports],
            "verify_pass": value["verify"]["pass"]}


def check_op(op: dict, result: dict, reference: dict | None) -> str | None:
    """Return None if the operation succeeded, else the reason it failed."""
    if result["error"] is not None:
        return result["error"]
    if any(code != 0 for code in result["codes"]):
        return f"exit codes {result['codes']}"
    w = op["workload"]
    value = result["value"]
    try:
        summary = summarize(op, result)
    except (KeyError, IndexError, ValueError) as exc:
        return f"missing output: {type(exc).__name__}: {exc}"
    if w == "theorem" and not summary["passed"]:
        return "theorem run did not preserve mu"
    if w == "simulate":
        from pcflow.identities import TOLERANCES

        if summary["aborted"]:
            return "flow aborted"
        if summary["mu_max"] > summary["mu0"] + TOLERANCES["tol_mu"]:
            return "mu rose above mu0 + tol_mu"
    if w == "sweep":
        got = {row[0] for row in summary["rows"]}
        if got != set(op["config"]["sweep"]["p_values"]):
            return "sweep row missing"
    if w == "check":
        if not summary["verify_pass"]:
            return "verify failed"
        for pt in value["noncollapse"]["per_point"]:
            if abs(pt["r_oracle"] * pt["Z_sup"] - 1.0) > ORACLE_TOL:
                return f"oracle disagrees with Z_sup at i={pt['i']}"
    if reference is not None:
        mismatch = compare(summary, reference)
        if mismatch:
            return f"differs from reference: {mismatch}"
    return None


def compare(got, want, path: str = "") -> str | None:
    """First difference between two records, floats to the tolerances above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path or '.'}: keys differ"
        for key in sorted(want):
            diff = compare(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for k, (g, w) in enumerate(zip(got, want)):
            diff = compare(g, w, f"{path}[{k}]")
            if diff:
                return diff
        return None
    if isinstance(want, float) and not isinstance(got, bool):
        if not isinstance(got, (int, float)) or not math.isclose(
                got, want, rel_tol=REFERENCE_REL_TOL,
                abs_tol=REFERENCE_ABS_TOL):
            return f"{path}: {got!r} != {want!r}"
        return None
    if got != want or type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    return None


def load_reference(workload: str, seed: int) -> list:
    if seed != REFERENCE_SEED:
        return []
    return json.loads(REFERENCE_PATH.read_text())[workload]


def record_reference(workdir: Path) -> dict:
    reference = {}
    for w in WORKLOADS:
        reference[w] = []
        for index in range(REFERENCE_OPS):
            op = make_op(w, REFERENCE_SEED, index)
            result = run_op(op, workdir)
            reason = check_op(op, result, None)
            if reason is not None:
                raise RuntimeError(f"{w} op {index} failed: {reason}")
            reference[w].append(summarize(op, result))
    return reference


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_out" / "reference"
    try:
        ref = record_reference(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
