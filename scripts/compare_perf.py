#!/usr/bin/env python3
"""Compare two bench_perf_round JSON artifacts and flag stage regressions.

Usage:
    compare_perf.py PREVIOUS.json CURRENT.json [--threshold 0.20]
                    [--fail-on-regression]

Emits a GitHub-flavoured markdown table (pipe it into $GITHUB_STEP_SUMMARY)
comparing `seconds.local`, `seconds.cluster` and `seconds.index_build`
(the index-build sub-component of cluster) per common sweep point, and
a `::warning::` annotation when either stage at the *largest* common client
count regresses by more than the threshold.  Exit code is non-zero only
with --fail-on-regression (CI warns by default: shared-runner timing noise
should not block a merge, but it must be visible in the job summary).

Artifacts also carry a per-point `index_peak_bytes`; it is displayed when
both artifacts have it but never gates.  Each artifact's configuration
line (index backend, engine, round-engine settings) is printed so the
summary says which backend each sweep actually ran.

A missing/unreadable previous artifact falls back to the committed seed
baseline (bench/baselines/perf_round_seed.json, --seed-baseline to
relocate): the first run on a branch then gates against the repo's own
pinned numbers instead of passing silently.  Only when the fallback is
unreadable too does the comparison no-op.

Schema tolerance: artifacts carry a `schema_version` (added in the
telemetry PR, version 2).  An artifact with a missing or different version
is still compared -- stage keys are read defensively, and anything unknown
or absent produces a `::warning::` annotation instead of a crash, so the
gate keeps working across artifact generations (the committed seed
baseline, for one, carries two per-level stage keys that current
artifacts no longer write).
"""

import argparse
import json
import pathlib
import sys

# Committed pre-change baseline (CI sweep shape), the comparison target of
# last resort when no previous CI artifact exists.
SEED_BASELINE = (pathlib.Path(__file__).resolve().parent.parent
                 / "bench" / "baselines" / "perf_round_seed.json")

# The artifact generation this script was written against.  Older
# artifacts (no schema_version) and newer ones are compared best-effort
# with a warning, never a crash.
KNOWN_SCHEMA_VERSION = 2

# Gating stages: a regression at the largest sweep point warns/fails.
# index_build is a sub-component of cluster (new in the GradientIndex PR);
# artifacts that predate it simply skip that row.
WATCHED_STAGES = ("local", "cluster", "index_build")
# Display-only stage: the round engine's virtual quorum wait (async-round
# PR) is informational -- lockstep runs have zeros there, and it is
# *simulated* time, so it must never gate.
EXTRA_STAGES = ("wait_quorum",)
# Every stage key this script understands; anything else in `seconds` is
# from another schema generation and only warned about.
KNOWN_STAGES = set(WATCHED_STAGES + EXTRA_STAGES + ("aggregate", "mine",
                                                    "total"))


def check_schema(label, data):
    """Warn (never raise) about schema drift in one artifact."""
    version = data.get("schema_version")
    if version is None:
        print(f"::warning::{label} perf artifact has no schema_version "
              f"(predates v{KNOWN_SCHEMA_VERSION}); comparing best-effort")
    elif version != KNOWN_SCHEMA_VERSION:
        print(f"::warning::{label} perf artifact has schema_version "
              f"{version} (this script knows {KNOWN_SCHEMA_VERSION}); "
              f"comparing best-effort")
    unknown = set()
    missing = set()
    for point in data.get("sweep", []):
        seconds = point.get("seconds")
        if not isinstance(seconds, dict):
            missing.add("seconds")
            continue
        unknown |= set(seconds) - KNOWN_STAGES
        missing |= set(WATCHED_STAGES) - set(seconds)
    if unknown:
        print(f"::warning::{label} perf artifact has unknown stage keys: "
              f"{', '.join(sorted(unknown))} (ignored)")
    if missing:
        print(f"::warning::{label} perf artifact is missing stage keys: "
              f"{', '.join(sorted(missing))} (those rows are skipped)")


def load_artifact(path, label):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    check_schema(label, data)
    sweep = {point["clients"]: point.get("seconds", {})
             for point in data.get("sweep", []) if "clients" in point}
    peak = {point["clients"]: point.get("index_peak_bytes")
            for point in data.get("sweep", []) if "clients" in point}
    late = {point["clients"]: point.get("late_updates")
            for point in data.get("sweep", []) if "clients" in point}
    config = {key: data.get(key)
              for key in ("index", "engine", "system", "quorum",
                          "deadline_ms", "late", "churn")}
    return sweep, peak, late, config


def describe(label, config):
    parts = [f"{key}={config[key]}" for key in
             ("system", "engine", "index", "quorum", "deadline_ms",
              "late", "churn")
             if config.get(key) is not None]
    print(f"- {label}: {', '.join(parts) if parts else 'unknown config'}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression that triggers a warning")
    parser.add_argument("--fail-on-regression", action="store_true")
    parser.add_argument("--seed-baseline", default=str(SEED_BASELINE),
                        help="fallback artifact when the previous one is "
                             "missing (default: the committed seed baseline)")
    args = parser.parse_args()

    try:
        previous, prev_peak, prev_late, prev_config = load_artifact(
            args.previous, "previous")
    except (OSError, ValueError, KeyError) as error:
        print(f"No previous perf artifact ({error}); "
              f"falling back to the committed seed baseline.")
        try:
            previous, prev_peak, prev_late, prev_config = load_artifact(
                args.seed_baseline, "seed baseline")
        except (OSError, ValueError, KeyError) as seed_error:
            print(f"No seed baseline to compare against either "
                  f"({seed_error}).")
            return 0
    try:
        current, curr_peak, curr_late, curr_config = load_artifact(
            args.current, "current")
    except (OSError, ValueError, KeyError) as error:
        print(f"::warning::cannot read current perf artifact: {error}")
        return 1

    common = sorted(set(previous) & set(current))
    if not common:
        print("No common sweep points between previous and current runs.")
        return 0

    print("### bench_perf_round vs previous artifact")
    print()
    describe("previous", prev_config)
    describe("current", curr_config)
    print()
    print("| clients | stage | previous s | current s | change |")
    print("|--------:|-------|-----------:|----------:|-------:|")
    regressions = []
    for clients in common:
        for stage in WATCHED_STAGES + EXTRA_STAGES:
            prev = previous[clients].get(stage)
            curr = current[clients].get(stage)
            if not isinstance(prev, (int, float)) or not prev:
                continue
            if not isinstance(curr, (int, float)):
                continue
            change = (curr - prev) / prev
            print(f"| {clients} | {stage} | {prev:.4f} | {curr:.4f} "
                  f"| {change:+.1%} |")
            if (stage in WATCHED_STAGES and clients == common[-1]
                    and change > args.threshold):
                regressions.append((clients, stage, change))
    print()

    # Peak index memory, when both artifacts record it.
    largest = common[-1]
    if prev_peak.get(largest) and curr_peak.get(largest) is not None:
        prev_b, curr_b = prev_peak[largest], curr_peak[largest]
        ratio = prev_b / curr_b if curr_b else float("inf")
        print(f"index_peak_bytes at {largest} clients: {prev_b} -> {curr_b} "
              f"({ratio:.1f}x previous)")
        print()

    # Late-update counts (async round engine), display-only: lockstep runs
    # record zero, and a straggler-heavy config legitimately grows this.
    if (isinstance(curr_late.get(largest), int)
            and (curr_late.get(largest)
                 or isinstance(prev_late.get(largest), int)
                 and prev_late.get(largest))):
        print(f"late_updates at {largest} clients: "
              f"{prev_late.get(largest, 'n/a')} -> {curr_late[largest]}")
        print()

    for clients, stage, change in regressions:
        print(f"::warning::seconds.{stage} at {clients} clients regressed "
              f"{change:+.1%} (> {args.threshold:.0%} threshold) vs the "
              f"previous artifact")
    if regressions and args.fail_on_regression:
        return 2
    if not regressions:
        print(f"No stage regression above {args.threshold:.0%} at "
              f"{largest} clients.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
