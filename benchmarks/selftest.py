"""Self-tests of the benchmark harness (not part of the repository suite).

    python3 -m pytest -q benchmarks/selftest.py [--basetemp DIR]

They take about three minutes: every workload runs once at its smallest
size, untraced and traced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=BENCH_DIR.parent):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "theorem", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_come_from_the_seed():
    for w in wl.WORKLOADS:
        assert wl.make_op(w, 7, 2) == wl.make_op(w, 7, 2)
        assert wl.make_op(w, 7, 2) != wl.make_op(w, 8, 2)
    for s in range(200):
        spec = wl.fourier_spec(wl.op_rng("t", s, 0), (0.3, 0.45))["fourier"]
        assert sum(abs(a) * (k * k - 1) for k, a, _ in spec["modes"]) < spec["R"]


def test_sign_error_counts_as_failed(tmp_path):
    op = wl.make_op("check", 0, 0)
    op["commands"] = [["noncollapse"], ["verify", "--inject-sign-error"]]
    result = wl.run_op(op, tmp_path)
    assert result["codes"] == [0, 3]
    assert wl.check_op(op, result, None) is not None


def test_perturbed_reference_counts_as_failed(tmp_path):
    op = wl.make_op("theorem", wl.REFERENCE_SEED, 0)
    reference = wl.load_reference("theorem", wl.REFERENCE_SEED)[0]
    result = wl.run_op(op, tmp_path)
    assert wl.check_op(op, result, reference) is None
    bad_float = {**reference, "mu_max": reference["mu_max"] * (1 + 1e-6)}
    bad_count = {**reference, "samples": reference["samples"] + 1}
    assert "mu_max" in wl.check_op(op, result, bad_float)
    assert "samples" in wl.check_op(op, result, bad_count)


def small_traced_ops(tmp_path):
    """One monitored theorem run and one simulate, both tiny; counts."""
    import pcflow.cli
    from pcflow import identities

    tmp_path.mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        identities.theorem_property_run({"ellipse": {"a": 1.05, "b": 1.0}}, 2.0,
                                        n=64, horizon_frac=0.05)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}}, "p": 2.0,
            "n": 64, "horizon": {"t_end": 0.01}, "monitor_every": 20}))
        assert pcflow.cli.main(["simulate", "--config", str(cfg),
                                "--out", str(tmp_path / "out")]) == 0
        assert tracing.leftover_wrappers()
    finally:
        assert tracer.uninstall() == []
    return {k: v for k, (v, unit) in tracer.metrics(2).items() if unit == "count"}


def test_wrappers_removed_and_counts_repeat(tmp_path):
    import pcflow.cli
    import pcflow.noncollapse

    before = (pcflow.cli.main, pcflow.cli.mu_report,
              pcflow.noncollapse.NonCollapseReport.to_dict)
    first = small_traced_ops(tmp_path / "a")
    second = small_traced_ops(tmp_path / "b")
    assert (pcflow.cli.main, pcflow.cli.mu_report,
            pcflow.noncollapse.NonCollapseReport.to_dict) == before
    assert tracing.leftover_wrappers() == []
    assert first == second
    assert first["flow.steps"] > 0 and first["noncollapse.mu_report_calls"] > 0
    assert first["reporting.files"] > 0 and first["curves.stencils_per_step"] > 0
