#!/usr/bin/env python3
"""Unit tests for check_bench.py exit codes and error messages.

Runs the script as a subprocess (the way CI invokes it) so the tests pin the
actual contract: exit 0 on pass, 1 on malformed input, 2 on regression, and
a clear one-line message -- never a traceback -- on section mismatches.

Stdlib only; executable both as `python3 tools/test_check_bench.py` and
under pytest (the classes are plain unittest.TestCase).
"""

import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")

PARALLEL_DOC = {
    "hardware_threads": 8,
    "isa": "avx2",
    "smoke": False,
    "deterministic": True,
    "thread_counts": [1, 2],
    "sections": {
        "rht_encode_decode": {"seconds": [1.0, 0.5], "items": 100,
                              "throughput": 100.0},
        "gemm": {"seconds": [1.0, 0.5], "items": 100, "throughput": 100.0},
    },
}

SIMSCALE_DOC = {
    "hardware_threads": 8,
    "isa": "avx2",
    "smoke": False,
    "deterministic": True,
    "k": 16,
    "hosts": 1024,
    "events": 2000000,
    "sim_seconds": 0.012,
    "sequential": {"seconds": 1.0, "events_per_sec": 2000000.0},
    "thread_counts": [1, 2, 4, 8],
    "seconds": [1.0, 0.55, 0.3, 0.25],
    "events_per_sec": [2000000.0, 3636363.0, 6666666.0, 8000000.0],
    "speedup": [1.0, 1.818, 3.333, 4.0],
    "hosts_realtime": [24.0, 43.6, 80.0, 96.0],
}


def chaos_cell(transport, scheme, queue, scripts=50):
    return {"transport": transport, "scheme": scheme, "queue": queue,
            "scripts": scripts, "violations": 0, "checks": 250000,
            "repros": 0, "drained": True}


CHAOS_DOC = {
    "smoke": True,
    "k": 4,
    "scripts_total": 200,
    "violations_total": 0,
    "unshrunk_violations": 0,
    "checks_total": 1000000,
    "drained_all": True,
    "search_completed": True,
    "repros": [],
    "cells": [
        chaos_cell("trim", "rht", "trim"),
        chaos_cell("reliable", "rht", "trim"),
        chaos_cell("pull", "sq", "trim"),
        chaos_cell("ecn", "sign", "ecn"),
    ],
}


ADAPTIVE_DOC = {
    "label": "transport=reliable,scheme=rht,trim=0,policy=aimd-trim",
    "smoke": True,
    "target_loss": 0.5285,
    "adaptive": {"name": "aimd-trim", "tta_s": 0.2044, "final_top1": 0.91,
                 "mean_q": 21.0, "switches": 26},
    "beats_all_fixed": True,
    "deterministic": True,
    "decision_digest": "a9eea140fb5db185",
    "violations": 0,
    "loss_finite": True,
    "fixed": [
        {"name": "rht@31", "tta_s": 0.5997, "final_top1": 0.92},
        {"name": "rht@15", "tta_s": 0.4325, "final_top1": 0.92},
        {"name": "rht@7", "tta_s": -1.0, "final_top1": 0.94},
    ],
}


class CheckBenchHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_check(self, *argv):
        return subprocess.run(
            [sys.executable, CHECK_BENCH, *argv],
            capture_output=True, text=True, check=False)

    def assert_clean_failure(self, proc, code, needle):
        self.assertEqual(proc.returncode, code,
                         f"stdout={proc.stdout!r} stderr={proc.stderr!r}")
        self.assertIn(needle, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)


class ParallelModeTest(CheckBenchHarness):
    def test_well_formed_passes(self):
        cand = self.write("cand.json", PARALLEL_DOC)
        base = self.write("base.json", PARALLEL_DOC)
        proc = self.run_check(cand, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_baseline_missing_section_fails_cleanly(self):
        # A fresh run grew a section the committed baseline lacks: must be
        # a clear "regenerate the baseline" failure, not a KeyError.
        stale = copy.deepcopy(PARALLEL_DOC)
        del stale["sections"]["gemm"]
        cand = self.write("cand.json", PARALLEL_DOC)
        base = self.write("base.json", stale)
        proc = self.run_check(cand, "--baseline", base)
        self.assert_clean_failure(proc, 1, "regenerate")
        self.assertIn("gemm", proc.stderr)

    def test_candidate_missing_section_fails_cleanly(self):
        shrunk = copy.deepcopy(PARALLEL_DOC)
        del shrunk["sections"]["gemm"]
        cand = self.write("cand.json", shrunk)
        base = self.write("base.json", PARALLEL_DOC)
        proc = self.run_check(cand, "--baseline", base)
        self.assert_clean_failure(proc, 1, "missing sections")

    def test_regression_exits_two(self):
        slow = copy.deepcopy(PARALLEL_DOC)
        for sec in slow["sections"].values():
            sec["throughput"] = 10.0
        cand = self.write("cand.json", slow)
        base = self.write("base.json", PARALLEL_DOC)
        proc = self.run_check(cand, "--baseline", base,
                              "--max-slowdown", "2.0")
        self.assert_clean_failure(proc, 2, "regressed")

    def test_unparseable_json_exits_one(self):
        cand = self.write("cand.json", "{not json")
        proc = self.run_check(cand)
        self.assert_clean_failure(proc, 1, "cannot parse")


class SimscaleModeTest(CheckBenchHarness):
    def test_well_formed_passes_with_gates(self):
        cand = self.write("cand.json", SIMSCALE_DOC)
        base = self.write("base.json", SIMSCALE_DOC)
        proc = self.run_check("--simscale", cand, "--baseline", base,
                              "--min-speedup", "3.0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("scaling gate", proc.stdout)

    def test_nondeterministic_run_exits_one(self):
        bad = copy.deepcopy(SIMSCALE_DOC)
        bad["deterministic"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--simscale", cand)
        self.assert_clean_failure(proc, 1, "deterministic")

    def test_missing_key_fails_cleanly(self):
        bad = copy.deepcopy(SIMSCALE_DOC)
        del bad["events_per_sec"]
        cand = self.write("cand.json", bad)
        proc = self.run_check("--simscale", cand)
        self.assert_clean_failure(proc, 1, "events_per_sec")

    def test_speedup_floor_capped_by_hardware(self):
        # Flat scaling on a 1-core machine passes a 3x request: the floor
        # degrades to max(0.8, 0.4*1) = 0.8 and speedup[0] is 1.0.
        flat = copy.deepcopy(SIMSCALE_DOC)
        flat["hardware_threads"] = 1
        flat["seconds"] = [1.0, 1.1, 1.2, 1.3]
        flat["events_per_sec"] = [2e6, 1.8e6, 1.6e6, 1.5e6]
        flat["speedup"] = [1.0, 0.909, 0.833, 0.769]
        cand = self.write("cand.json", flat)
        proc = self.run_check("--simscale", cand, "--min-speedup", "3.0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("floor 0.80x", proc.stdout)

    def test_speedup_below_floor_exits_two(self):
        flat = copy.deepcopy(SIMSCALE_DOC)
        flat["speedup"] = [1.0, 1.1, 1.2, 1.2]  # 8 cores but no scaling
        cand = self.write("cand.json", flat)
        proc = self.run_check("--simscale", cand, "--min-speedup", "3.0")
        self.assert_clean_failure(proc, 2, "below")

    def test_smoke_run_skips_scaling_gate(self):
        smoke = copy.deepcopy(SIMSCALE_DOC)
        smoke["smoke"] = True
        smoke["speedup"] = [1.0, 1.0, 1.0, 1.0]
        cand = self.write("cand.json", smoke)
        proc = self.run_check("--simscale", cand, "--min-speedup", "3.0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("scaling gate skipped", proc.stdout)

    def test_events_per_sec_regression_exits_two(self):
        slow = copy.deepcopy(SIMSCALE_DOC)
        slow["events_per_sec"] = [v / 10 for v in slow["events_per_sec"]]
        cand = self.write("cand.json", slow)
        base = self.write("base.json", SIMSCALE_DOC)
        proc = self.run_check("--simscale", cand, "--baseline", base)
        self.assert_clean_failure(proc, 2, "events/sec regressed")

    def test_event_count_mismatch_exits_two(self):
        # Same k/hosts/smoke but a different event count: the event order
        # changed, however fast the run was.
        drift = copy.deepcopy(SIMSCALE_DOC)
        drift["events"] = SIMSCALE_DOC["events"] + 1
        cand = self.write("cand.json", drift)
        base = self.write("base.json", SIMSCALE_DOC)
        proc = self.run_check("--simscale", cand, "--baseline", base)
        self.assert_clean_failure(proc, 2, "event count")

    def test_event_count_compared_only_on_same_workload(self):
        # A CI smoke run (k=8) against the committed full-size baseline
        # (k=16) has a different event count by construction.
        smoke = copy.deepcopy(SIMSCALE_DOC)
        smoke.update(smoke=True, k=8, hosts=128, events=123456)
        cand = self.write("cand.json", smoke)
        base = self.write("base.json", SIMSCALE_DOC)
        proc = self.run_check("--simscale", cand, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class ChaosSearchModeTest(CheckBenchHarness):
    def test_clean_search_passes(self):
        cand = self.write("cand.json", CHAOS_DOC)
        proc = self.run_check("--chaos-search", cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("0 violations", proc.stdout)

    def test_violation_exits_two_and_names_repros(self):
        bad = copy.deepcopy(CHAOS_DOC)
        bad["violations_total"] = 3
        bad["repros"] = ["REPRO_chaos_trim_rht_7.txt"]
        bad["cells"][0]["violations"] = 3
        bad["cells"][0]["repros"] = 1
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 2, "REPRO_chaos_trim_rht_7.txt")

    def test_unshrunk_violation_exits_two(self):
        bad = copy.deepcopy(CHAOS_DOC)
        bad["unshrunk_violations"] = 1
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 2, "unshrunk")

    def test_too_few_scripts_exits_two(self):
        thin = copy.deepcopy(CHAOS_DOC)
        thin["scripts_total"] = 40
        for cell in thin["cells"]:
            cell["scripts"] = 10
        cand = self.write("cand.json", thin)
        proc = self.run_check("--chaos-search", cand, "--min-scripts", "200")
        self.assert_clean_failure(proc, 2, "below the 200")

    def test_too_few_cells_exits_two(self):
        thin = copy.deepcopy(CHAOS_DOC)
        thin["cells"] = thin["cells"][:2]
        for cell in thin["cells"]:
            cell["scripts"] = 100  # coverage floor met, cell floor not
        cand = self.write("cand.json", thin)
        proc = self.run_check("--chaos-search", cand, "--min-cells", "4")
        self.assert_clean_failure(proc, 2, "cells")

    def test_incomplete_search_exits_two(self):
        bad = copy.deepcopy(CHAOS_DOC)
        bad["search_completed"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 2, "completion")

    def test_undrained_cell_exits_two(self):
        bad = copy.deepcopy(CHAOS_DOC)
        bad["drained_all"] = False
        bad["cells"][2]["drained"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 2, "pull/sq/trim")

    def test_zero_checks_is_malformed(self):
        # A search that never invoked the monitor proves nothing; that is
        # a wiring bug (exit 1), not a property failure (exit 2).
        bad = copy.deepcopy(CHAOS_DOC)
        bad["cells"][1]["checks"] = 0
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 1, "zero invariant checks")

    def test_script_count_mismatch_is_malformed(self):
        bad = copy.deepcopy(CHAOS_DOC)
        bad["scripts_total"] = 300
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 1, "sum to")

    def test_missing_key_fails_cleanly(self):
        bad = copy.deepcopy(CHAOS_DOC)
        del bad["unshrunk_violations"]
        cand = self.write("cand.json", bad)
        proc = self.run_check("--chaos-search", cand)
        self.assert_clean_failure(proc, 1, "unshrunk_violations")


class AdaptiveModeTest(CheckBenchHarness):
    def test_winning_run_passes(self):
        cand = self.write("cand.json", ADAPTIVE_DOC)
        proc = self.run_check("--adaptive", cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("beating all 3 fixed cells", proc.stdout)

    def test_losing_to_a_fixed_cell_exits_two(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["adaptive"]["tta_s"] = 0.50  # slower than rht@15's 0.4325
        bad["beats_all_fixed"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 2, "rht@15")

    def test_never_reaching_target_exits_two(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["adaptive"]["tta_s"] = -1.0
        bad["beats_all_fixed"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 2, "never reached the target")

    def test_nondeterministic_exits_two(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["deterministic"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 2, "diverged across thread counts")

    def test_violations_exit_two(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["violations"] = 2
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 2, "invariant violations")

    def test_zero_switches_exits_two(self):
        # A policy that never changed its decision under phased congestion
        # is not wired into the round loop; the win would be vacuous.
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["adaptive"]["switches"] = 0
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 2, "never switched")

    def test_flag_vs_cells_mismatch_is_malformed(self):
        # beats_all_fixed must agree with the per-cell numbers; disagreement
        # means the producer and the gate diverged (exit 1, not 2).
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["beats_all_fixed"] = False
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 1, "does not match")

    def test_missing_key_fails_cleanly(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        del bad["decision_digest"]
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 1, "decision_digest")

    def test_empty_fixed_grid_is_malformed(self):
        bad = copy.deepcopy(ADAPTIVE_DOC)
        bad["fixed"] = []
        cand = self.write("cand.json", bad)
        proc = self.run_check("--adaptive", cand)
        self.assert_clean_failure(proc, 1, "non-empty array")


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CiReferencesTest(unittest.TestCase):
    """ci.yml may only name baselines and build targets that exist.

    A --baseline file missing from the tree fails the gate on load, and a
    deleted test or bench target fails the build step, but only on CI.
    """

    def setUp(self):
        with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml"),
                  encoding="utf-8") as f:
            self.ci = f.read()

    def test_baselines_are_tracked_by_git(self):
        baselines = sorted(set(re.findall(r"--baseline\s+(\S+)", self.ci)))
        self.assertTrue(baselines, "ci.yml names no --baseline")
        try:
            proc = subprocess.run(
                ["git", "-C", REPO_ROOT, "ls-files", "--", *baselines],
                capture_output=True, text=True, check=False)
        except FileNotFoundError:
            self.skipTest("git is not installed")
        if proc.returncode != 0:
            self.skipTest("not a git checkout")
        tracked = set(proc.stdout.split())
        missing = [b for b in baselines if b not in tracked]
        self.assertEqual(missing, [],
                         "ci.yml --baseline paths not tracked by git "
                         "(commit them with git add -f)")

    def test_targets_are_registered(self):
        registered = set()
        for sub in ("tests", "bench"):
            with open(os.path.join(REPO_ROOT, sub, "CMakeLists.txt"),
                      encoding="utf-8") as f:
                registered |= set(re.findall(
                    r"(?:trimgrad_test|trimgrad_bench|add_executable)"
                    r"\(\s*(\w+)", f.read()))
        # Target names, not the script or file names that share a prefix
        # (tools/test_check_bench.py).
        named = set(re.findall(r"\b((?:test|bench)_\w+)\b(?![.\w])",
                               self.ci))
        self.assertTrue(named, "ci.yml names no test_*/bench_* target")
        self.assertEqual(sorted(named - registered), [],
                         "ci.yml names targets missing from "
                         "tests/CMakeLists.txt and bench/CMakeLists.txt")


if __name__ == "__main__":
    unittest.main(verbosity=2)
