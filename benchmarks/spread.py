"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 benchmarks/spread.py [--workloads theorem sweep ...] [--seeds 10]
                                 [--first-seed 1] [--trace 0] [--out FILE]

Runs the command of BENCHMARK.json once per workload and seed, one run at a
time, with its ``run_seconds``.  Prints, per workload and metric, the
median and the interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to a third of the
metric's bound.  ``--out`` keeps every run's full result record (seed,
per-operation times, provenance) in one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for w in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [*spec["command"], "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".bench_out" / "results" /
                                 f"{w}-seed{seed}-trace{args.trace}.json").read_text())
            runs.append({"workload": w, "seed": seed, "line": line, "record": record})
            print(f"{w} seed={seed} correct={line['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                flush=True)

    summary = {}
    print(f"\n{'workload':10s} {'metric':30s} {'median':>12s} {'iqr/med':>8s} "
          f"{'bound/3':>8s}")
    for w in args.workloads:
        lines = [r["line"] for r in runs if r["workload"] == w]
        for name in lines[0]["metrics"]:
            values = [ln["metrics"][name]["value"] for ln in lines]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                rel = (q3 - q1) / med if med else float("nan")
            else:
                rel = float("nan")
            bound = bounds.get(name)
            summary.setdefault(w, {})[name] = {"median": med, "iqr_over_median": rel,
                                               "values": values}
            third = f"{bound / 3:8.4f}" if bound is not None else f"{'-':>8s}"
            print(f"{w:10s} {name:30s} {med:12.6g} {rel:8.4f} {third}")
        summary[w]["all_correct"] = all(ln["correct"] for ln in lines)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
