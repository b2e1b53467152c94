#!/usr/bin/env python3
"""Tests for tools/dgslint/dgslint.py (run under ctest as dgslint_fixtures).

Three layers:
  - fixture-corpus runs over tests/dgslint_fixtures/ pin every rule's
    positive, suppressed, and baselined behaviour;
  - mutation rehearsals copy a real source file into a temp root, inject
    a violation (rand() into fault_plan.cpp, an unordered_map loop into
    run_artifact.cpp, a std::function member into SimulationOptions, a
    mutex into the weather provider or the metrics registry, a
    thread_local memo into the link budget or a metrics shard slot, an
    unknown kind or a renamed table in the summary's field table), and
    require dgslint to fail — proof the linter
    would catch a real regression, not just the fixtures;
  - CLI-contract tests pin exit codes, --verify-baseline, and the
    GitHub-annotation output format.

Dependency-free: stdlib unittest + subprocess only.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DGSLINT = os.path.join(REPO_ROOT, "tools", "dgslint", "dgslint.py")
FIXTURES = os.path.join(REPO_ROOT, "tests", "dgslint_fixtures")


def run_dgslint(*args):
    proc = subprocess.run(
        [sys.executable, DGSLINT] + list(args),
        capture_output=True, text=True, cwd=REPO_ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def scan_fixtures_json():
    code, out, err = run_dgslint(
        "--root", FIXTURES,
        "--baseline", os.path.join(FIXTURES, "baseline.json"),
        "--format", "json")
    doc = json.loads(out)
    return code, doc


class FixtureCorpusTest(unittest.TestCase):
    """Every rule: positives fire, suppressions hold, baseline absorbs."""

    @classmethod
    def setUpClass(cls):
        cls.code, cls.doc = scan_fixtures_json()
        cls.findings = cls.doc["findings"]

    def by_rule(self, rule, path=None):
        return [f for f in self.findings
                if f["rule"] == rule and (path is None or f["path"] == path)]

    def test_exit_code_reflects_active_findings(self):
        self.assertEqual(self.code, 1)
        self.assertGreater(self.doc["counts"]["active"], 0)

    def test_r1_positives_and_suppressions(self):
        found = self.by_rule("R1", "src/util/r1_cases.cpp")
        self.assertEqual(len(found), 3)
        # The suppressed steady_clock and rand() must not appear, and
        # 'rand' inside identifiers/strings/comments must not fire.
        messages = " ".join(f["message"] for f in found)
        self.assertNotIn("steady_clock", messages)

    def test_r2_output_path_iteration(self):
        found = self.by_rule("R2", "src/obs/r2_cases.cpp")
        # range-for (1) + .begin()/.end() pair (2); the suppressed
        # range-for and the point lookup stay silent.
        self.assertEqual(len(found), 3)

    def test_r3_threading_primitives(self):
        found = self.by_rule("R3", "src/util/r3_cases.cpp")
        self.assertEqual(len(found), 3)

    def test_r4_baseline_absorbs_exactly_one(self):
        found = self.by_rule("R4", "src/core/r4_cases.cpp")
        self.assertEqual(len(found), 3)
        self.assertEqual(sum(1 for f in found if f["baselined"]), 1)

    def test_r5_metric_names_and_summary_keys(self):
        found = self.by_rule("R5")
        names = " ".join(f["message"] for f in found)
        self.assertEqual(len(found), 3)
        self.assertIn("bad_counter_total", names)
        self.assertIn("dgs_Bad_Gauge", names)
        self.assertIn("unknown_key", names)
        self.assertNotIn("suppressed_key", names)
        self.assertNotIn("delivered_fraction", names)

    def test_r6_header_guard(self):
        self.assertEqual(
            len(self.by_rule("R6", "src/util/r6_missing_guard.h")), 1)
        self.assertEqual(
            len(self.by_rule("R6", "src/util/r6_guarded.h")), 0)

    def test_r7_callable_option_members(self):
        found = self.by_rule("R7", "src/core/r7_callable_options.h")
        # std::function, function pointer, callable alias and a vector
        # of callables; the method and the suppressed alias stay silent.
        self.assertEqual([f["line"] for f in found], [11, 12, 14, 15])
        self.assertEqual(
            len(self.by_rule("R7", "src/core/r7_plain_options.h")), 0)

    def test_r8_locks_outside_pool_and_trace(self):
        found = self.by_rule("R8", "src/weather/r8_locks.h")
        # mutex, shared_mutex, recursive_mutex, condition_variable, and a
        # lock_guard<std::mutex> (two on one line); the suppressed
        # timed_mutex stays silent.
        self.assertEqual([f["line"] for f in found], [9, 10, 11, 12, 15, 15])
        self.assertEqual(
            len(self.by_rule("R8", "src/core/r8_lock_free.cpp")), 0)
        # The trace collector keeps its lock; the rest of obs does not.
        self.assertEqual(len(self.by_rule("R8", "src/obs/trace.cpp")), 0)
        self.assertEqual(
            [f["line"] for f in self.by_rule("R8", "src/obs/metrics.cpp")],
            [6])

    def test_r9_thread_local_outside_pool_and_trace(self):
        found = self.by_rule("R9", "src/link/r9_memo.cpp")
        # A plain and a static thread_local; the suppressed one and the
        # word in a comment, a string or an identifier stay silent.
        self.assertEqual([f["line"] for f in found], [5, 6])
        # The trace buffer is whitelisted; a metrics shard slot is not.
        self.assertEqual(len(self.by_rule("R9", "src/obs/trace.cpp")), 0)
        self.assertEqual(
            [f["line"] for f in self.by_rule("R9", "src/obs/metrics.cpp")],
            [11])

    def test_sup_malformed_suppressions_are_unsuppressable(self):
        sup = self.by_rule("SUP", "src/util/sup_cases.cpp")
        self.assertEqual(len(sup), 3)
        # A malformed suppression also fails to silence its target rule.
        self.assertEqual(len(self.by_rule("R1", "src/util/sup_cases.cpp")),
                         3)


class MutationRehearsalTest(unittest.TestCase):
    """Injected regressions in copies of real sources must fail dgslint."""

    def _scan_mutated(self, rel_src, mutate):
        tmp = tempfile.mkdtemp(prefix="dgslint_mut_")
        self.addCleanup(shutil.rmtree, tmp)
        dst = os.path.join(tmp, rel_src)
        os.makedirs(os.path.dirname(dst))
        shutil.copy(os.path.join(REPO_ROOT, rel_src), dst)
        with open(dst, encoding="utf-8") as fh:
            text = fh.read()
        with open(dst, "w", encoding="utf-8") as fh:
            fh.write(mutate(text))
        empty = os.path.join(tmp, "empty_baseline.json")
        with open(empty, "w", encoding="utf-8") as fh:
            fh.write('{"entries": []}')
        code, out, _ = run_dgslint("--root", tmp, "--baseline", empty,
                                   "--format", "json")
        return code, json.loads(out)["findings"]

    def test_unmutated_copies_are_clean(self):
        # The pool and the trace collector keep their locks (R8) and their
        # per-thread state (R9); the metrics registry has neither.
        for rel in ("src/faults/fault_plan.cpp", "src/core/run_artifact.cpp",
                    "src/core/simulator.h", "src/weather/synthetic.h",
                    "src/util/thread_pool.cpp", "src/obs/trace.cpp",
                    "src/obs/metrics.cpp", "src/link/budget.cpp"):
            code, findings = self._scan_mutated(rel, lambda t: t)
            self.assertEqual(code, 0, findings)

    def test_rand_in_fault_plan_fails(self):
        code, findings = self._scan_mutated(
            "src/faults/fault_plan.cpp",
            lambda t: t + "\nint injected() { return rand(); }\n")
        self.assertEqual(code, 1)
        self.assertTrue(any(f["rule"] == "R1" for f in findings), findings)

    def test_unordered_iteration_in_run_artifact_fails(self):
        injected = (
            "\n#include <unordered_map>\n"
            "static std::unordered_map<int, int> injected_map;\n"
            "int injected() {\n"
            "  int s = 0;\n"
            "  for (const auto& [k, v] : injected_map) s += v;\n"
            "  return s;\n"
            "}\n")
        code, findings = self._scan_mutated(
            "src/core/run_artifact.cpp", lambda t: t + injected)
        self.assertEqual(code, 1)
        self.assertTrue(any(f["rule"] == "R2" for f in findings), findings)

    def test_callable_option_member_fails(self):
        code, findings = self._scan_mutated(
            "src/core/simulator.h",
            lambda t: t.replace(
                "  std::vector<double> value_scale;",
                "  std::vector<double> value_scale;\n"
                "  std::function<double(int, int, double)> hook;", 1))
        self.assertEqual(code, 1)
        self.assertTrue(any(f["rule"] == "R7" for f in findings), findings)

    def test_mutex_in_weather_provider_fails(self):
        code, findings = self._scan_mutated(
            "src/weather/synthetic.h",
            lambda t: t.replace(
                "  mutable Field field_;",
                "  mutable Field field_;\n  mutable std::mutex field_mu_;", 1))
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["R8"], findings)

    def test_lock_and_shard_slot_in_metrics_fail(self):
        injected = (
            "\nnamespace dgs::obs {\n"
            "std::mutex injected_registry_mu;\n"
            "int injected_shard() {\n"
            "  thread_local int slot = 0;\n"
            "  return slot;\n"
            "}\n"
            "}  // namespace dgs::obs\n")
        code, findings = self._scan_mutated(
            "src/obs/metrics.cpp", lambda t: t + injected)
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["R8", "R9"],
                         findings)

    def test_thread_local_memo_in_link_budget_fails(self):
        injected = (
            "\nnamespace dgs::link {\n"
            "double memo_symbol_rate_db(double hz) {\n"
            "  thread_local double memo_hz = 0.0;\n"
            "  thread_local double memo_db = 0.0;\n"
            "  if (hz != memo_hz) { memo_db = 10.0 * std::log10(hz); "
            "memo_hz = hz; }\n"
            "  return memo_db;\n"
            "}\n"
            "}  // namespace dgs::link\n")
        code, findings = self._scan_mutated(
            "src/link/budget.cpp", lambda t: t + injected)
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["R9", "R9"],
                         findings)

    def test_bad_metric_name_in_session_fails(self):
        code, findings = self._scan_mutated(
            "src/core/session.cpp",
            lambda t: t.replace("dgs_sim_assignments_total",
                                "sim_assignments_total", 1))
        self.assertEqual(code, 1)
        self.assertTrue(any(f["rule"] == "R5" for f in findings), findings)


    def test_renamed_summary_kind_fails(self):
        # A row whose kind the table parser does not know used to drop out
        # of the summary key set without a word.
        code, findings = self._scan_mutated(
            "src/core/run_artifact.cpp",
            lambda t: t.replace("kTenants", "kTenantRows"))
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["R5"], findings)
        self.assertIn("'tenants' has kind 'kTenantRows'",
                      findings[0]["message"])

    def test_unparseable_summary_table_fails(self):
        # A table that parses to no keys used to switch the summary-key
        # check off altogether.
        code, findings = self._scan_mutated(
            "src/core/run_artifact.cpp",
            lambda t: t.replace("kSummaryFields", "kSummaryRows"))
        self.assertEqual(code, 1)
        self.assertEqual([f["rule"] for f in findings], ["R5"], findings)
        self.assertIn("no kSummaryFields table", findings[0]["message"])


class SummaryTableTest(unittest.TestCase):
    def test_real_table_yields_every_summary_key(self):
        sys.path.insert(0, os.path.dirname(DGSLINT))
        try:
            import dgslint  # pylint: disable=import-outside-toplevel
        finally:
            sys.path.pop(0)
        keys = dgslint.load_summary_keys(REPO_ROOT)
        self.assertEqual(len(keys), 22, sorted(keys))
        for key in ("schema_version", "latency_minutes", "steps",
                    "tenants"):
            self.assertIn(key, keys)


class CliContractTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        code, out, err = run_dgslint()
        self.assertEqual(code, 0, out + err)

    def test_github_format_emits_error_annotations(self):
        code, out, _ = run_dgslint(
            "--root", FIXTURES,
            "--baseline", os.path.join(FIXTURES, "baseline.json"),
            "--format", "github")
        self.assertEqual(code, 1)
        self.assertIn("::error file=src/util/r1_cases.cpp,line=", out)
        # Baselined findings must not produce annotations.
        self.assertNotIn("::error file=src/core/r4_cases.cpp,line=5", out)

    def test_verify_baseline_rejects_stale_entries(self):
        tmp = tempfile.mkdtemp(prefix="dgslint_base_")
        self.addCleanup(shutil.rmtree, tmp)
        stale = os.path.join(tmp, "baseline.json")
        with open(stale, "w", encoding="utf-8") as fh:
            json.dump({"entries": [
                {"rule": "R1", "path": "src/nonexistent.cpp", "count": 1}
            ]}, fh)
        code, out, _ = run_dgslint("--verify-baseline", "--baseline", stale)
        self.assertEqual(code, 1)
        self.assertIn("stale baseline entry", out)

    def test_verify_baseline_accepts_live_entries(self):
        code, _, _ = run_dgslint(
            "--verify-baseline",
            "--baseline", os.path.join(FIXTURES, "baseline.json"),
            "--root", FIXTURES)
        self.assertEqual(code, 0)

    def test_list_rules(self):
        code, out, _ = run_dgslint("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                     "SUP"):
            self.assertIn(rule, out)


if __name__ == "__main__":
    unittest.main()
