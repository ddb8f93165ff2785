#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py [--workload c8-f32 ...] [--out bench/baseline.json]

For every workload it runs ``bench/run.py --trace 0`` once for each of
the seeds 1 to 10, then once with ``--trace 1`` on seed 1. It prints,
per end-to-end metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound in ``BENCHMARK.json``, and the
median and worst accuracy figures next to their tolerances. With
``--out`` it also writes these figures, the traced per-layer numbers,
each workload's command line and the machine it ran on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_work" / "results"
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    summary = {}
    for name in names:
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        stats = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"], "unit": metric["unit"]}
            print(f"{name:>18} {metric['name']:<12} median {statistics.median(values):10.5g} "
                  f"{metric['unit']:<7} spread {stats[metric['name']]['spread']:7.4f} "
                  f"bound {metric['bound']}", flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name:>18} failed {failed}/{attempted}, run time "
              f"{min(r['run_s'] for r in runs):.1f}-{max(r['run_s'] for r in runs):.1f} s",
              flush=True)
        details = [json.loads((RESULTS / f"{name}-seed{s}-trace0.json").read_text())
                   for s in SEEDS]
        tolerance = details[0]["tolerance"]
        accuracy = {k: {"median": statistics.median(d["accuracy"][k] for d in details),
                        "worst": max(d["accuracy_worst"][k] for d in details),
                        "tolerance": tolerance.get(k)}
                    for k in details[0]["accuracy"]}
        for k, a in accuracy.items():
            print(f"{name:>18} {k:<17} median {a['median']:10.4g} worst {a['worst']:10.4g} "
                  f"tolerance {a['tolerance']}", flush=True)
        traced = run_once(name, SEEDS[0], seconds, 1)
        summary[name] = {
            "command": ["python", "-m", "chisigma.cli", *details[0]["argv"]],
            "seeds": list(SEEDS), "attempted": attempted, "failed": failed,
            "end_to_end": stats, "accuracy": accuracy,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    if args.out:
        doc = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "platform": platform.platform()},
            "run_seconds": seconds,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
