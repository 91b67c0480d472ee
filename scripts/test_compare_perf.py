#!/usr/bin/env python3
"""Unit tests for scripts/compare_perf.py (the CI perf gate).

The gate's failure modes are all silent -- a schema mismatch that crashes,
a missing-artifact path that stops gating, a sign error in the regression
math -- so each one is pinned here.  Runs under plain unittest (no
third-party deps), wired into ctest as `compare_perf_tests` and into the
CI static-analysis job.

Covers:
  * schema tolerance: v1 (no schema_version), v2, and unknown future
    versions / unknown stage keys all compare best-effort with a
    ::warning:: instead of crashing;
  * seed-baseline fallback: a missing previous artifact gates against
    bench/baselines/perf_round_seed.json; only when that is unreadable
    too does the comparison no-op (exit 0);
  * gate math: regressions only gate at the LARGEST common sweep point,
    only for WATCHED_STAGES, only above the threshold, and exit 2 only
    with --fail-on-regression.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_perf  # noqa: E402


def artifact(points, schema_version=2, extra_stage_keys=(),
             late_updates=None, **config):
    """A bench_perf_round artifact dict: points is {clients: {stage: s}}."""
    data = {"system": "fairbfl", "engine": "batched", "index": "shard",
            **config}
    if schema_version is not None:
        data["schema_version"] = schema_version
    data["sweep"] = []
    for clients, seconds in sorted(points.items()):
        seconds = dict(seconds)
        for key in extra_stage_keys:
            seconds[key] = 0.001
        point = {"clients": clients, "seconds": seconds}
        if late_updates is not None:
            point["late_updates"] = late_updates
        data["sweep"].append(point)
    return data


class CompareRun:
    """One main() invocation against temp artifact files."""

    def __init__(self, previous, current, argv=(), seed=None):
        self.tmp = tempfile.TemporaryDirectory()
        base = self.tmp.name
        paths = {}
        for name, data in (("previous", previous), ("current", current),
                           ("seed", seed)):
            paths[name] = os.path.join(base, f"{name}.json")
            if data is not None:
                with open(paths[name], "w", encoding="utf-8") as f:
                    json.dump(data, f)
        out = io.StringIO()
        old_argv = sys.argv
        sys.argv = ["compare_perf.py", paths["previous"], paths["current"],
                    "--seed-baseline", paths["seed"], *argv]
        try:
            with contextlib.redirect_stdout(out):
                self.exit_code = compare_perf.main()
        finally:
            sys.argv = old_argv
            self.tmp.cleanup()
        self.stdout = out.getvalue()


BASE = {8: {"local": 1.0, "cluster": 2.0, "index_build": 0.5},
        64: {"local": 4.0, "cluster": 8.0, "index_build": 2.0}}


def scaled(factor, points=BASE):
    return {clients: {stage: s * factor for stage, s in seconds.items()}
            for clients, seconds in points.items()}


class SchemaToleranceTests(unittest.TestCase):
    def test_v2_artifacts_compare_without_warnings(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("::warning::", run.stdout)
        self.assertIn("| 64 | cluster |", run.stdout)

    def test_v1_artifact_without_schema_version_warns_but_compares(self):
        run = CompareRun(artifact(BASE, schema_version=None),
                         artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("no schema_version", run.stdout)
        self.assertIn("| 64 | local |", run.stdout)

    def test_future_schema_version_warns_but_compares(self):
        run = CompareRun(artifact(BASE, schema_version=99),
                         artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("schema_version 99", run.stdout)
        self.assertIn("| 64 | local |", run.stdout)

    def test_unknown_stage_keys_warn_and_are_ignored(self):
        run = CompareRun(
            artifact(BASE, extra_stage_keys=("quantum_annealing",)),
            artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("unknown stage keys: quantum_annealing", run.stdout)
        self.assertNotIn("| quantum_annealing |", run.stdout)

    def test_missing_watched_stage_skips_row_with_warning(self):
        gutted = {clients: {k: v for k, v in seconds.items()
                            if k != "index_build"}
                  for clients, seconds in BASE.items()}
        run = CompareRun(artifact(gutted), artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("missing stage keys: index_build", run.stdout)
        self.assertNotIn("| 64 | index_build |", run.stdout)


class SeedBaselineFallbackTests(unittest.TestCase):
    def test_missing_previous_gates_against_seed_baseline(self):
        run = CompareRun(None, artifact(scaled(2.0)),
                         argv=["--fail-on-regression"],
                         seed=artifact(BASE))
        self.assertEqual(run.exit_code, 2)
        self.assertIn("falling back to the committed seed baseline",
                      run.stdout)

    def test_missing_previous_and_seed_noops_cleanly(self):
        run = CompareRun(None, artifact(BASE),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertIn("No seed baseline to compare against either",
                      run.stdout)

    def test_unreadable_current_artifact_fails(self):
        run = CompareRun(artifact(BASE), None)
        self.assertEqual(run.exit_code, 1)
        self.assertIn("cannot read current perf artifact", run.stdout)

    def test_committed_seed_baseline_still_gates_current_artifacts(self):
        # The seed baseline predates the current schema: each point carries
        # two per-level stage keys that bench_perf_round no longer writes.
        # They are warned about and ignored; every watched stage of every
        # sweep point is still compared.
        with open(compare_perf.SEED_BASELINE, encoding="utf-8") as handle:
            seed = json.load(handle)
        current = {point["clients"]: {stage: point["seconds"][stage]
                                      for stage in compare_perf.WATCHED_STAGES}
                   for point in seed["sweep"]}
        run = CompareRun(None, artifact(current),
                         argv=["--fail-on-regression"], seed=seed)
        self.assertEqual(run.exit_code, 0)
        self.assertIn("falling back to the committed seed baseline",
                      run.stdout)
        self.assertIn("unknown stage keys", run.stdout)
        for clients in current:
            for stage in compare_perf.WATCHED_STAGES:
                self.assertIn(f"| {clients} | {stage} |", run.stdout)
        self.assertIn("No stage regression above 20%", run.stdout)

    def test_default_seed_baseline_path_is_committed(self):
        self.assertTrue(
            compare_perf.SEED_BASELINE.exists(),
            f"{compare_perf.SEED_BASELINE} must stay committed: it is the "
            "gate of last resort for the first run on a branch")


class GateMathTests(unittest.TestCase):
    def test_regression_above_threshold_warns_but_exits_zero_by_default(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.5)))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("::warning::seconds.local at 64 clients regressed",
                      run.stdout)

    def test_fail_on_regression_exits_two(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.5)),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 2)

    def test_change_below_threshold_passes(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.1)),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertIn("No stage regression above 20%", run.stdout)

    def test_custom_threshold(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.1)),
                         argv=["--fail-on-regression",
                               "--threshold", "0.05"])
        self.assertEqual(run.exit_code, 2)

    def test_improvement_never_gates(self):
        run = CompareRun(artifact(BASE), artifact(scaled(0.5)),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)

    def test_regression_at_smaller_sweep_point_does_not_gate(self):
        current = scaled(1.0)
        current[8] = {stage: s * 10 for stage, s in BASE[8].items()}
        run = CompareRun(artifact(BASE), artifact(current),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("::warning::seconds", run.stdout)

    def test_no_common_sweep_points_noops(self):
        run = CompareRun(artifact({8: BASE[8]}), artifact({64: BASE[64]}),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertIn("No common sweep points", run.stdout)

    def test_wait_quorum_regression_never_gates(self):
        # seconds.wait_quorum is *virtual* time from the async round
        # engine: it is displayed, tolerated without schema warnings, and
        # never gates no matter how much it grows.
        prev = {64: {"local": 1.0, "cluster": 1.0, "index_build": 1.0,
                     "wait_quorum": 0.1}}
        curr = {64: {"local": 1.0, "cluster": 1.0, "index_build": 1.0,
                     "wait_quorum": 50.0}}
        run = CompareRun(artifact(prev), artifact(curr),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("::warning::", run.stdout)
        self.assertIn("| 64 | wait_quorum |", run.stdout)

    def test_round_engine_headers_are_described(self):
        run = CompareRun(
            artifact(BASE, quorum=0.75, deadline_ms=40.0,
                     late="retroactive"),
            artifact(scaled(1.0), quorum=0.75, deadline_ms=40.0,
                     late="retroactive"))
        self.assertEqual(run.exit_code, 0)
        self.assertIn("quorum=0.75", run.stdout)
        self.assertIn("deadline_ms=40.0", run.stdout)
        self.assertIn("late=retroactive", run.stdout)

    def test_late_updates_displayed_and_tolerated(self):
        run = CompareRun(artifact(BASE, late_updates=2),
                         artifact(scaled(1.0), late_updates=7),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("::warning::", run.stdout)
        self.assertIn("late_updates at 64 clients: 2 -> 7", run.stdout)

    def test_artifact_without_late_updates_stays_quiet(self):
        run = CompareRun(artifact(BASE), artifact(scaled(1.0)))
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("late_updates at", run.stdout)

    def test_zero_previous_stage_skipped_not_divided(self):
        prev = {64: {"local": 0.0, "cluster": 1.0, "index_build": 1.0}}
        curr = {64: {"local": 9.9, "cluster": 1.0, "index_build": 1.0}}
        run = CompareRun(artifact(prev), artifact(curr),
                         argv=["--fail-on-regression"])
        self.assertEqual(run.exit_code, 0)
        self.assertNotIn("| 64 | local |", run.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
