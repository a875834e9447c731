#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fill, lookup-cache, durable-churn, scale-churn (see
perfbench/NOTES.md). The first call configures and builds the benchmark and
the library sources with CMake under .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits 3 without a result when the
build fails, and otherwise with the benchmark's own exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD_DIR, "perfbench")
    args = [binary] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
