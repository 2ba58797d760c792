#!/usr/bin/env python3
"""Measures what tracing costs: for each workload, five pairs of runs of
the run length of BENCHMARK.json, one traced and one untraced with the
same seed (pair i uses seed i, and which of the two goes first
alternates), and prints the traced run's mean client latency as a share
of the untraced one's: each pair's ratio, then their median and range.

    python3 servebench/overhead.py
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["admin_writes", "device_updates", "directory_reads"]
PAIRS = 5


def mean_latency_us(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    for line in out.stdout.splitlines():
        # "samples: N primary, M secondary; mean latency X us"
        if line.startswith("samples:"):
            return float(line.split("mean latency")[1].split()[0])
    raise RuntimeError("no samples line from %s" % " ".join(command))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    for workload in WORKLOADS:
        ratios = []
        for seed in range(1, PAIRS + 1):
            order = (1, 0) if seed % 2 else (0, 1)
            mean = {trace: mean_latency_us(workload, seed, seconds, trace)
                    for trace in order}
            ratios.append(mean[1] / mean[0])
            print("%s seed=%d traced first=%s untraced %.1f us traced "
                  "%.1f us ratio %.3f" % (workload, seed, order[0] == 1,
                                          mean[0], mean[1], ratios[-1]),
                  flush=True)
        print("%s: traced / untraced mean latency, median %.3f, range "
              "%.3f-%.3f" % (workload, statistics.median(ratios),
                             min(ratios), max(ratios)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
