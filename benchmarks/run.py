"""pcflow benchmark: one workload per process, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` cycles through the seed's inputs for S seconds, operations
back to back, with no wrapper installed, and reports the end-to-end
metrics: the operation time ``op_s`` and the set-up time ``setup_s`` (median
over fresh interpreters), both scaled to reference speed by the calibration
loop of speed.py, and ``peak_rss_mb``.  ``--trace 1`` runs each of the
first TRACE_OPS operations of the seed once untraced and once traced, so
its counts repeat exactly, and reports the per-layer metrics.  Every operation's output is
checked.  The last line of standard output is the result as one JSON
object; the full record (seed, per-operation times, provenance) goes to
``.bench_out/results/``.  See benchmarks/README.md.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 1 <= int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
TRACE_OPS = 3
OUT_DIR = wl.ROOT / ".bench_out"


def measure_setup(config: dict, workdir: Path) -> list[dict]:
    """Start SETUP_PROBES fresh interpreters one after another; each imports
    pcflow, parses ``config`` and builds its curve.  Wall time per probe,
    and ``cal_s``, the calibration loop's mean time just before and after."""
    cfg_path = workdir / "probe_config.json"
    cfg_path.write_text(json.dumps(config))
    probes = []
    cal_before = speed.calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH_DIR / "setup_probe.py"), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        cal_after = speed.calibrate()
        probes.append({"wall_s": wall, "cal_s": (cal_before + cal_after) / 2,
                       **json.loads(proc.stdout.splitlines()[-1])})
        cal_before = cal_after
    return probes


def scaled(wall_s: float, cal_s: float) -> float:
    """``wall_s`` at the speed where the calibration loop takes REFERENCE_S."""
    return wall_s * speed.REFERENCE_S / cal_s


def run_checked(op: dict, workdir: Path, reference: list) -> dict:
    result = wl.run_op(op, workdir)
    ref = reference[op["index"]] if op["index"] < len(reference) else None
    result["failure"] = wl.check_op(op, result, ref)
    return result


def measured_run(workload, seed, seconds, workdir, reference) -> tuple[list, dict]:
    """Closed loop over the run's inputs, round robin: the next operation
    starts when the previous one ends, until ``seconds`` have passed and
    every input has run once after the first, untimed, warm-up operation.
    The calibration loop runs after each operation, so every timed one has
    a calibration just before and just after it.

    ``op_s`` scales each operation's time by the mean of those two
    calibrations, takes the median over each input's repeats and averages
    over the inputs.
    """
    inputs = [wl.make_op(workload, seed, i)
              for i in range(wl.INPUTS_PER_RUN[workload])]
    records = []
    t_start = time.perf_counter()
    while len(records) <= len(inputs) or time.perf_counter() - t_start < seconds:
        records.append(run_checked(inputs[len(records) % len(inputs)],
                                   workdir, reference))
        records[-1]["cal_after_s"] = speed.calibrate()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_input: dict[int, list[float]] = {}
    for prev, r in zip(records, records[1:]):
        r["cal_s"] = (prev["cal_after_s"] + r["cal_after_s"]) / 2
        per_input.setdefault(r["index"], []).append(scaled(r["wall_s"], r["cal_s"]))
    op_s = statistics.fmean(statistics.median(v) for v in per_input.values())
    return records, {"op_s": (op_s, "s"), "peak_rss_mb": (rss_mb, "MB")}


def traced_run(workload, seed, workdir, reference) -> tuple[list, dict, list]:
    """Each of the first TRACE_OPS operations untraced and traced, the order
    alternating so that warm-up and drift favour neither side.  Wrappers are
    installed only around the traced runs."""
    import tracing

    tracer = tracing.Tracer()
    records, ratios, leftovers = [], [], []
    for i in range(TRACE_OPS):
        op = wl.make_op(workload, seed, i)
        walls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                records.append(run_checked(op, workdir, reference))
            finally:
                if traced:
                    leftovers += tracer.uninstall()
            walls[traced] = records[-1]["wall_s"]
        ratios.append(walls[True] / walls[False])
    metrics = tracer.metrics(TRACE_OPS)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    return records, metrics, leftovers


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": NPROC,
        "cpu_model": cpu or platform.processor(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (wl.SRC / "pcflow" / "__init__.py").is_file():
        print(f"pcflow sources not found under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import pcflow

    if Path(pcflow.__file__).resolve().parent != wl.SRC / "pcflow":
        print(f"imported pcflow from {pcflow.__file__}, not {wl.SRC}",
              file=sys.stderr)
        return 2

    reference = wl.load_reference(args.workload, args.seed)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = measure_setup(wl.make_op(args.workload, args.seed, 0)["config"],
                               workdir)
        leftovers = []
        if args.trace:
            records, metrics, leftovers = traced_run(
                args.workload, args.seed, workdir, reference)
            metrics["setup.import_s"] = (
                statistics.median(p["import_s"] for p in probes), "s")
        else:
            records, metrics = measured_run(
                args.workload, args.seed, args.seconds, workdir, reference)
            metrics["setup_s"] = (statistics.median(
                scaled(p["wall_s"], p["cal_s"]) for p in probes), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failure"] is not None for r in records)
    failed_frac = failed / len(records)
    for r in records:
        if r["failure"] is not None:
            print(f"op {r['index']} FAILED: {r['failure']}", file=sys.stderr)
    if leftovers:
        print(f"wrappers left installed: {leftovers}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": len(records), "failed": failed,
        "failed_frac": failed_frac, "wrappers_left": leftovers,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"index": r["index"], "wall_s": r["wall_s"],
                 "cal_s": r.get("cal_s"), "cal_after_s": r.get("cal_after_s"),
                 "failure": r["failure"]}
                for r in records],
        "setup_probes": probes,
        "provenance": provenance(),
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} frac")
    walls = sorted(r["wall_s"] for r in records[0 if args.trace else 1:])
    print(f"  unscaled operation wall time: median {statistics.median(walls):.4g} s, "
          f"max {walls[-1]:.4g} s over {len(walls)} operations")
    print(f"  results: {path.relative_to(wl.ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not leftovers,
        "attempted": len(records), "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
