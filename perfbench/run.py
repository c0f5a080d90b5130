#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test (the repository's src/, with the repository's own
compile flags) and the benchmark binary are built with CMake into
.bench_build/ at the checkout root; after the first run the build is
incremental. Build output goes to standard error. The binary's standard
output passes through unchanged: its last line is the JSON result. When the
build fails the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(3)


def main():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "--target", "blendbench", "-j", jobs])
    binary = os.path.join(BUILD, "blendbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
