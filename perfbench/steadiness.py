#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and print each metric's spread.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                    [--seconds S] [--trace 0|1]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the report prints the median of the runs' values, the first and
third quartiles (Python's statistics.quantiles(values, n=4)), and the
quartile spread (Q3 - Q1) as a share of the median. For end-to-end metrics
it also prints the metric's bound from BENCHMARK.json and whether the
spread stays within a third of it and within it.
With --trace 0 the drift-control kernel's time from each run's description
line is reported as "(drift_ref_s)", so machine drift can be told apart
from the program.
Exits non-zero when a run fails, reports incorrect output, or (with
--trace 0) a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), (json.loads(lines[-2]) if len(lines) > 1 else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result, run = run_once(workload, seed, args.seconds, args.trace)
            drift = (run or {}).get("run", {}).get("drift_ref_s")
            if drift is not None:
                values.setdefault("(drift_ref_s)", []).append(drift)
                units["(drift_ref_s)"] = "s"
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds or args.trace == 1)
                + ("" if drift is None else f", drift_ref_s={drift:.4g}"), file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each)")
        print(f"  {'metric':34} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    ok = False
            print(f"  {name:34} {units[name]:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {'' if bound is None else f'{bound:.2f}':>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
