#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 10 --trace 0

All arguments are passed to perfbench/bench.exe (see bench.ml).  The build
goes to .bench_build/ and the run's scratch files (write-ahead log, span
dumps) to .perfbench/, both inside the checkout.  The last line of standard
output is the result object; build output goes to standard error.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet",
             TARGET],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
