#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage, from the root of the repository:

    python3 mwbench/run.py --workload fig9|city|census --seed N --seconds S --trace 0|1

The build lives in .bench_build/ (configured once, then brought up to date on
every run). Build output goes to stderr; the benchmark's own lines, ending
with the one-line JSON result, go to stdout. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "cmake")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "mwbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "mwbench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"mwbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        result = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"mwbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
