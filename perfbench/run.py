#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
into .bench_build (release profile, no shared dune cache, so nothing is
read or written outside the checkout), then runs it with the same
arguments, pinned to one CPU.  The benchmark's own output, ending in
one JSON line, goes to standard output; build output goes to standard
error.  Exits with the benchmark's code, or 1 when the build fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", TARGET,
    ]
    try:
        built = subprocess.run(
            build, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    # One CPU for the benchmark and its server child: the closed loop
    # is lockstep, and on a shared VM a ping-pong across two vCPUs
    # waits on whichever the host has descheduled, which swung serve
    # p90 between 3 and 10 ms from run to run.
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.Popen(
        [exe] + sys.argv[1:], preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
