#!/usr/bin/env python3
"""Run the benchmark command from BENCHMARK.json repeatedly and report, per
workload and metric, the median and the spread between the first and third
quartile as a share of the median (statistics.quantiles, n=4), next to the
bound of every metric BENCHMARK.json gates.

Run from the repository root:

    python3 benchmark/spread.py --runs 10 [--workload NAME ...] [--first-seed N] [--trace 1]

Each run uses another seed (first-seed, first-seed + 1, ...). Every metric
the runs print is summarised, gated or not; the summary is also written to
benchmark/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in workloads:
        values = {}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            started = time.time()
            done = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - started)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {lines[-1]}")
            for line in lines[:-1]:
                name, _, value, _ = line.split(" ")
                values.setdefault(name, []).append(float(value))
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "spread": spread, "values": vals}
            bound = bounds.get(name)
            verdict = "" if bound is None else f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            print(f"{workload:15s} {name:32s} median {med:12.6g}  spread {spread:7.3f}  {verdict}")
        print(f"{workload:15s} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        summary[workload] = {"metrics": rows, "wall_s": walls}

    os.makedirs("benchmark/out", exist_ok=True)
    with open("benchmark/out/spread.json", "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
