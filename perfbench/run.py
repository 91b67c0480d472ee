#!/usr/bin/env python3
"""Builds perfbench_driver from source and runs one workload.

    python3 perfbench/run.py --workload fair_n256_simd --seed 1 \
        --seconds 10 --trace 0

Run from the repository root.  The build lands in .bench_build/perfbench
(configured once, rebuilt incrementally); build output goes to stderr so
perfbench_driver's last stdout line -- the JSON result -- stays last.  Exits
non-zero without a result when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")


def build():
    """Configures (first run only) and builds perfbench_driver; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return os.path.exists(DRIVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (selftest.py)")
    args = parser.parse_args()

    if not build():
        return 1
    sys.stdout.flush()
    command = [DRIVER, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.tiny:
        command.append("--tiny")
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
