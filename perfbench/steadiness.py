"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload cheat_storm --runs 5
    python3 perfbench/steadiness.py --workload all --runs 10 --baseline perfbench/baseline.json

Runs ``run.py`` once per seed (seeds 1..runs, each in its own process,
``run_seconds`` from ``BENCHMARK.json``), then prints for each end-to-end
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median,
next to a third of the metric's bound.  ``--baseline`` also writes these
figures, plus one traced per-layer table per workload, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One ``run.py`` process: (metrics, its standard error lines)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return metrics, done.stderr.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        names = [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    worst = 0.0
    for name in names:
        values = {metric: [] for metric in bounds}
        for seed in range(1, args.runs + 1):
            metrics, _ = run_once(name, seed, spec["run_seconds"], 0)
            for metric in bounds:
                values[metric].append(metrics[metric]["value"])
        rows = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if metric != "setup_s":
                worst = max(worst, spread / (bounds[metric] / 3.0))
            rows[metric] = {
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "unit": metrics[metric]["unit"],
                "values": series,
            }
            print(f"{name:<13}{metric:<13}median {statistics.median(series):>11.5g}"
                  f"  q1 {q1:>11.5g}  q3 {q3:>11.5g}  spread {spread:6.3f}"
                  f"  (bound/3 {bounds[metric] / 3.0:.3f})  values "
                  + " ".join(f"{v:.4g}" for v in series), flush=True)
        baseline[name] = {"end_to_end": rows}
        if args.baseline is not None:
            metrics, stderr = run_once(
                name, 1, spec["run_seconds"], 1
            )
            baseline[name]["per_layer"] = {
                key: metric["value"] for key, metric in metrics.items()
            }
            baseline[name]["span_table"] = [
                line for line in stderr if not line.startswith("[")
            ]
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"largest spread / (bound/3), setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
