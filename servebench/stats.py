#!/usr/bin/env python3
"""Runs each workload N times, untraced, with seeds 1..N and the run
length of BENCHMARK.json, and prints the median and quartiles of every
metric (statistics.quantiles, n=4) and the quartile spread as a share
of the median. The bounds in BENCHMARK.json are set from this output.

    python3 servebench/stats.py --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["admin_writes", "device_updates", "directory_reads"]


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    steal = [line for line in lines if line.startswith("steal:")]
    return json.loads(lines[-1]), steal[0] if steal else ""


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    for workload in WORKLOADS:
        results = []
        for seed in range(1, args.runs + 1):
            result, steal = run_once(workload, seed, seconds)
            results.append(result)
            print("%s seed=%d correct=%s attempted=%d failed=%d %s" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"], steal), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: correct in %d/%d runs, failed shares %s" %
              (workload, sum(r["correct"] for r in results), len(results),
               ", ".join("%.6f" % s for s in shares)))
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            print("  %-32s median %12.3f  q1 %12.3f  q3 %12.3f  %-6s "
                  "spread %.3f" % (name, median, q1, q3, metric["unit"],
                                   spread), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
