#!/usr/bin/env python3
"""Builds servebench from the repository's sources and runs it.

    python3 servebench/run.py --workload admin_writes --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The build (Release, lockdep compiled out)
goes to .bench_build/servebench; data dirs and trace files go to
.bench_build/servebench-run. Every argument is passed to the benchmark
binary; its last line of output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKDIR = os.path.join(ROOT, ".bench_build", "servebench-run")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("servebench: no MetaComm sources under %s/src" % ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    binary = os.path.join(BUILD, "servebench")
    os.execv(binary, [binary, "--workdir", WORKDIR] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
