#!/usr/bin/env python3
"""Smoke self-test of perfbench_driver at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py with --tiny, in both
trace modes, and checks that
  * every metric BENCHMARK.json names is printed, with its unit, and no
    other metric is;
  * every output check of perfbench_driver runs, and none fails;
  * changing the seed changes the generated inputs (and repeating a seed
    does not).
Exits 0 when all hold.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Output checks of perfbench_driver, by the run that must execute them.
CHECKS_ALWAYS = {"round_completes", "weights_finite", "reward_budget",
                 "chain_height", "uploads_delivered", "chain_valid",
                 "series_repeat"}
CHECKS_TRACED = {"eval_matches", "traced_equals_untraced"}
CHECKS_BY_WORKLOAD = {"attack_n384_exact": {"series_threads"}}
CHECKS_TRACED_BY_WORKLOAD = {"signed_async_n64": {"crypto_probe_roundtrip"}}


def run(workload, seed, trace):
    """Runs one tiny benchmark; returns (result, metric units, checks,
    fingerprint)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "4", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    checks = {}
    fingerprint = None
    for line in lines[:-1]:
        if m := re.match(r"# metric (\S+)\s+\S+ (\S+)$", line):
            printed[m.group(1)] = m.group(2)
        elif m := re.match(r"# check (\S+) runs=(\d+) failed=(\d+)$", line):
            checks[m.group(1)] = (int(m.group(2)), int(m.group(3)))
        elif m := re.match(r"# inputs fingerprint=(\S+)$", line):
            fingerprint = m.group(1)
    return result, printed, checks, fingerprint


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        seed1_inputs = None
        for trace in (0, 1):
            result, printed, checks, fingerprint = run(workload, 1, trace)
            seed1_inputs = seed1_inputs or fingerprint
            tag = f"{workload} trace={trace}"
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{tag}: JSON metrics {sorted(units.items())} "
                                f"!= BENCHMARK.json {sorted(wanted[trace].items())}")
            if printed != wanted[trace]:
                problems.append(f"{tag}: printed metrics differ from "
                                f"BENCHMARK.json")
            expected = CHECKS_ALWAYS | CHECKS_BY_WORKLOAD.get(workload, set())
            if trace == 1:
                expected |= CHECKS_TRACED
                expected |= CHECKS_TRACED_BY_WORKLOAD.get(workload, set())
            for name in sorted(expected):
                runs, failed = checks.get(name, (0, 0))
                if runs == 0:
                    problems.append(f"{tag}: check {name} never ran")
                if failed:
                    problems.append(f"{tag}: check {name} failed {failed}x")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: result not correct: {result}")
            if fingerprint is None or fingerprint != seed1_inputs:
                problems.append(f"{tag}: seed 1 produced different inputs")
        _, _, _, other = run(workload, 2, 0)
        if other is None or other == seed1_inputs:
            problems.append(f"{workload}: seed 2 did not change the inputs")
        print(f"selftest: {workload} done", flush=True)

    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
