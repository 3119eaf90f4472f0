"""cimlint self-test (ctest: lint.selftest).

Runs tools/lint.py against the fixture corpus in tests/lint_fixtures/repo
and asserts exact finding counts, line numbers, exit codes, suppression
behaviour, baseline round-trips and SARIF shape — so a lint regression
(a rule silently going blind, a tokenizer bug swallowing code, an exit
code drifting) fails the build, not a code review six months later.

Run directly: python3 tests/lint_selftest.py
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures" / "repo"

# The contract with tests/lint_fixtures/repo: every rule fires the exact
# number of times the fixture files promise in their comments.
EXPECTED_COUNTS = {
    "anneal-dense-rebuild": 1,
    "cim-counter-charge": 1,
    "det-taint": 2,
    "hdr-pragma-once": 1,
    "hdr-using-namespace": 1,
    "index-check-dead": 1,
    "index-range-overflow": 1,
    "layer-dag": 1,
    "lock-annotation-unknown": 1,
    "lock-mutex-unannotated": 1,
    "lock-order-cycle": 1,
    "lock-raw-call": 2,
    "nolint-unknown-rule": 2,
    "raw-thread": 1,
    "rng-libc-rand": 2,
    "rng-mt19937": 1,
    "rng-random-device": 1,
    "rng-time-seed": 1,
    "rng-unproven-seed": 1,
    "simd-intrinsics-confined": 2,
    "store-unversioned-io": 2,
    "telemetry-in-header": 1,
    "unit-float-eq": 3,
    "unit-raw-double": 2,
}


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def fixture_findings(*extra: str) -> tuple[list[dict], int]:
    proc = run_lint("--root", str(FIXTURES), "--no-baseline",
                    "--format", "json", *extra)
    data = json.loads(proc.stdout)
    return data["findings"], proc.returncode


class FixtureScan(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.findings, cls.exit_code = fixture_findings()

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.exit_code, 1)

    def test_exact_per_rule_counts(self):
        counts = collections.Counter(f["rule"] for f in self.findings)
        self.assertEqual(dict(counts), EXPECTED_COUNTS)

    def test_total_count(self):
        self.assertEqual(len(self.findings), sum(EXPECTED_COUNTS.values()))

    def at(self, rule: str) -> list[tuple[str, int]]:
        return sorted((f["path"], f["line"])
                      for f in self.findings if f["rule"] == rule)

    def test_layer_dag_location(self):
        self.assertEqual(self.at("layer-dag"),
                         [("src/ppa/bad_include.hpp", 5)])

    def test_float_eq_nolint_window(self):
        # Lines 5 and 19 fire; the inline (8) and two-above (13) markers
        # suppress; the four-above marker does not reach line 19.
        self.assertEqual(self.at("unit-float-eq"),
                         [("src/util/float_eq.cpp", 5),
                          ("src/util/float_eq.cpp", 19),
                          ("src/util/tokenizer_cases.cpp", 10)])

    def test_digit_separator_not_swallowed(self):
        # The comparison after `1'000'000` must survive the stripper.
        self.assertIn(("src/util/tokenizer_cases.cpp", 10),
                      self.at("unit-float-eq"))

    def test_raw_string_include_does_not_fire(self):
        # R"(... #include "anneal/fake.hpp" ...)" is data, not a directive.
        for path, _ in self.at("layer-dag"):
            self.assertNotEqual(path, "src/util/tokenizer_cases.cpp")

    def test_counter_charge_reports_at_signature(self):
        self.assertEqual(self.at("cim-counter-charge"),
                         [("src/cim/uncharged.cpp", 11)])

    def test_raw_thread_fires_outside_util_only(self):
        # The spawn in src/anneal fires; the NOLINT twin, the inert
        # handle types and the src/util allowlisted file stay silent.
        self.assertEqual(self.at("raw-thread"),
                         [("src/anneal/raw_thread.cpp", 10)])

    def test_simd_confinement_locations(self):
        # The vendor include and the raw intrinsic call fire; the
        # suppressed twin and the look-alike lambda stay silent.
        self.assertEqual(self.at("simd-intrinsics-confined"),
                         [("src/cim/raw_intrinsic.cpp", 4),
                          ("src/cim/raw_intrinsic.cpp", 12)])

    def test_telemetry_in_header_location(self):
        # The bare macro fires; the NOLINT-vouched template twin and
        # every .cpp emission site stay silent.
        self.assertEqual(self.at("telemetry-in-header"),
                         [("src/cim/telem_header.hpp", 8)])

    def test_unknown_nolint_audit(self):
        self.assertEqual(self.at("nolint-unknown-rule"),
                         [("src/util/unknown_nolint.cpp", 5),
                          ("src/util/unknown_nolint.cpp", 7)])

    def messages(self, rule: str) -> dict[tuple[str, int], str]:
        return {(f["path"], f["line"]): f["message"]
                for f in self.findings if f["rule"] == rule}

    def test_det_taint_direct_and_transitive(self):
        self.assertEqual(self.at("det-taint"),
                         [("src/anneal/taint_direct.cpp", 10),
                          ("src/anneal/taint_transitive.cpp", 9)])

    def test_det_taint_witness_chain(self):
        # The transitive finding must carry the full call path from the
        # CIM_DETERMINISM_ROOT to the function containing the source —
        # two hops below the root.
        msg = self.messages("det-taint")[("src/anneal/taint_transitive.cpp",
                                          9)]
        self.assertIn("taint_transitive_root -> taint_helper_a -> "
                      "taint_helper_b", msg)
        self.assertIn("wall-clock", msg)

    def test_det_taint_nolint_suppressed(self):
        # The vouched twin (taint_nolint.cpp) must stay silent: project
        # findings honour NOLINT at the reported site like per-file ones.
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/anneal/taint_nolint.cpp")

    def test_lock_discipline_locations(self):
        self.assertEqual(self.at("lock-mutex-unannotated"),
                         [("src/util/lock_unguarded.cpp", 12)])
        self.assertEqual(self.at("lock-annotation-unknown"),
                         [("src/util/lock_unguarded.cpp", 13)])
        self.assertEqual(self.at("lock-raw-call"),
                         [("src/util/lock_unguarded.cpp", 18),
                          ("src/util/lock_unguarded.cpp", 21)])

    def test_lock_annotated_twin_is_silent(self):
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/util/lock_annotated.cpp")

    def test_lock_order_cycle_reports_both_paths(self):
        # The deadlock finding must name the cycle and carry *both*
        # acquisition paths — the direct nesting and the one through a
        # call made under a held lock — each with its witness site.
        self.assertEqual(self.at("lock-order-cycle"),
                         [("src/util/lock_order_cycle.cpp", 27)])
        msg = self.messages("lock-order-cycle")[
            ("src/util/lock_order_cycle.cpp", 27)]
        self.assertIn("cycle 'journal_mu' -> 'table_mu' -> 'journal_mu'",
                      msg)
        self.assertIn("[path 1] reload_table (src/util/lock_order_cycle"
                      ".cpp:27) acquires 'table_mu' while holding "
                      "'journal_mu'", msg)
        self.assertIn("[path 2] flush_table (src/util/lock_order_cycle"
                      ".cpp:22) holds 'table_mu' and calls append_journal, "
                      "which acquires 'journal_mu' "
                      "(src/util/lock_order_cycle.cpp:16)", msg)

    def test_lock_order_clean_twin_is_silent(self):
        # Consistent ordering plus an iteration-scoped guard: the RAII
        # release on the loop back edge must not fabricate an edge.
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/util/lock_order_clean.cpp")

    def test_index_range_overflow_off_by_one(self):
        # `c <= s.cols()` walks one column past the 8-wide extent; the
        # message carries the proven interval and the valid range.
        self.assertEqual(self.at("index-range-overflow"),
                         [("src/anneal/range_overflow.cpp", 24)])
        msg = self.messages("index-range-overflow")[
            ("src/anneal/range_overflow.cpp", 24)]
        self.assertIn("range [0, 8]", msg)
        self.assertIn("col extent 8 (valid [0, 7])", msg)

    def test_index_check_dead_guard(self):
        # `if (c < 8)` under `c < s.cols()` with cols == 8 is always
        # true: the guard is dead and the message proves it.
        self.assertEqual(self.at("index-check-dead"),
                         [("src/anneal/range_overflow.cpp", 33)])
        msg = self.messages("index-check-dead")[
            ("src/anneal/range_overflow.cpp", 33)]
        self.assertIn("provably always true", msg)
        self.assertIn("'c' in [0, 7]", msg)

    def test_range_clean_twin_is_silent(self):
        # In-bounds walks and a guard on caller data (undecidable) —
        # neither range rule may fire.
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/anneal/range_clean.cpp")

    def test_rng_unproven_seed_witness(self):
        # The seed provenance proof fails at ticket(); the finding names
        # the unproven variable and the chain from the determinism root.
        self.assertEqual(self.at("rng-unproven-seed"),
                         [("src/anneal/seed_unproven.cpp", 16)])
        msg = self.messages("rng-unproven-seed")[
            ("src/anneal/seed_unproven.cpp", 16)]
        self.assertIn("'mix' has no seed provenance", msg)
        self.assertIn("reachable from determinism root "
                      "seed_unproven_replay", msg)
        self.assertIn("witness: seed_unproven_replay", msg)

    def test_seed_proven_twin_is_silent(self):
        # stream_seed/hash_combine/splitmix64 chains over a parameter,
        # including a proven-on-both-arms branch join, satisfy the proof.
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/anneal/seed_proven.cpp")

    def test_overload_fixture_is_silent(self):
        for f in self.findings:
            self.assertNotEqual(f["path"], "src/util/overload_resolve.cpp")


class Sarif(unittest.TestCase):
    def test_sarif_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            sarif_path = Path(tmp) / "lint.sarif"
            proc = run_lint("--root", str(FIXTURES), "--no-baseline",
                            "--sarif", str(sarif_path))
            self.assertEqual(proc.returncode, 1)
            doc = json.loads(sarif_path.read_text(encoding="utf-8"))
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        results = run["results"]
        self.assertEqual(len(results), sum(EXPECTED_COUNTS.values()))
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        used = {r["ruleId"] for r in results}
        self.assertTrue(used <= declared,
                        f"results reference undeclared rules: {used - declared}")
        loc = results[0]["locations"][0]["physicalLocation"]
        self.assertIn("artifactLocation", loc)
        self.assertIn("region", loc)


class BaselineRoundTrip(unittest.TestCase):
    def test_update_then_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.txt"
            update = run_lint("--root", str(FIXTURES),
                              "--baseline", str(baseline),
                              "--update-baseline")
            self.assertEqual(update.returncode, 0, update.stderr)
            rerun = run_lint("--root", str(FIXTURES),
                             "--baseline", str(baseline))
            self.assertEqual(rerun.returncode, 0, rerun.stdout)
            self.assertIn(f"{sum(EXPECTED_COUNTS.values())} baselined",
                          rerun.stdout)


class ChangedOnly(unittest.TestCase):
    def test_fallback_outside_git_scans_everything(self):
        # --changed-only on a tree that is not a git work tree must warn
        # and degrade to a full scan — same findings, same exit code.
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "repo"
            shutil.copytree(FIXTURES, copy)
            proc = run_lint("--root", str(copy), "--no-baseline",
                            "--no-index-cache", "--format", "json",
                            "--changed-only",
                            # A tmpdir nested under a real repo would
                            # still resolve; point git at nothing.
                            "--base-ref", "no-such-ref-cimlint-selftest")
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertIn("falling back to a full scan", proc.stderr)
            data = json.loads(proc.stdout)
            counts = collections.Counter(f["rule"] for f in data["findings"])
            self.assertEqual(dict(counts), EXPECTED_COUNTS)

    def test_index_cache_round_trip(self):
        # A warm cache must reproduce the cold run bit-for-bit.
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "index.json"
            cold = run_lint("--root", str(FIXTURES), "--no-baseline",
                            "--format", "json", "--index-cache", str(cache))
            self.assertTrue(cache.is_file())
            warm = run_lint("--root", str(FIXTURES), "--no-baseline",
                            "--format", "json", "--index-cache", str(cache))
            self.assertEqual(cold.stdout, warm.stdout)


class CliContracts(unittest.TestCase):
    def test_list_rules_complete(self):
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in EXPECTED_COUNTS:
            self.assertIn(rule, proc.stdout)

    def test_explain_known_rule(self):
        proc = run_lint("--explain", "unit-float-eq")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("unit-float-eq", proc.stdout)

    def test_explain_unknown_rule_is_usage_error(self):
        proc = run_lint("--explain", "no-such-rule")
        self.assertEqual(proc.returncode, 2)

    def test_empty_root_is_configuration_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_lint("--root", tmp)
        self.assertEqual(proc.returncode, 2)


class TokenizerUnit(unittest.TestCase):
    """Direct regression checks on the stripper (satellite 1)."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))
        from cimlint.tokenizer import strip_comments_and_strings
        cls.strip = staticmethod(strip_comments_and_strings)

    def test_digit_separator_is_not_char_literal(self):
        out = self.strip("int x = 1'000'000; int y = f();")
        self.assertIn("1'000'000", out)
        self.assertIn("f()", out)

    def test_char_literal_still_blanked(self):
        out = self.strip("char c = 'x'; g();")
        self.assertNotIn("'x'", out)
        self.assertIn("g()", out)

    def test_raw_string_blanked_without_desync(self):
        out = self.strip('auto s = R"(a "quoted" thing)"; h();')
        self.assertNotIn("quoted", out)
        self.assertIn("h()", out)

    def test_raw_string_blanked_even_with_keep_strings(self):
        out = self.strip('auto s = R"(\n#include "anneal/x.hpp"\n)"; i();',
                         keep_strings=True)
        self.assertNotIn("#include", out)
        self.assertIn("i()", out)

    def test_keep_strings_preserves_include_paths(self):
        out = self.strip('#include "cim/storage.hpp"  // comment',
                         keep_strings=True)
        self.assertIn('"cim/storage.hpp"', out)
        self.assertNotIn("comment", out)

    def test_newlines_and_columns_preserved(self):
        src = 'int a; /* multi\nline */ "str"\n'
        out = self.strip(src)
        self.assertEqual(len(out), len(src))
        self.assertEqual(out.count("\n"), src.count("\n"))


class CfgDataflowUnit(unittest.TestCase):
    """Direct checks on the CFG builder and the worklist solver."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))

    def _solve(self, code: str):
        from cimlint import dataflow
        from cimlint.cfg import build_cfg
        from cimlint.rules_ranges import _IntervalClient
        body_start = code.index("{") + 1
        cfg = build_cfg(code, body_start, len(code) - 1)
        client = _IntervalClient({})
        ins, outs = dataflow.solve(cfg, client)
        states = {stmt.text: state for stmt, state
                  in dataflow.stmt_states(cfg, client, ins)}
        return cfg, states

    def test_loop_head_detected_and_cond_edges_labelled(self):
        from cimlint.cfg import build_cfg
        code = "void f() { for (int i = 0; i < 10; ++i) { g(i); } }"
        cfg = build_cfg(code, code.index("{") + 1, len(code) - 1)
        self.assertTrue(cfg.loop_heads)
        conds = {(e.cond, e.cond_value, e.origin) for e in cfg.edges
                 if e.cond is not None}
        self.assertIn(("i < 10", True, "loop"), conds)
        self.assertIn(("i < 10", False, "loop"), conds)

    def test_widen_then_narrow_recovers_exact_bounds(self):
        # Widening makes the loop terminate; the narrowing sweeps must
        # recover the exact interval inside and after the loop.
        _, states = self._solve(
            "void f() { for (int i = 0; i < 10; ++i) { int z = i; } "
            "int after = i; }")
        self.assertEqual(states["int z = i"]["i"], (0, 9))
        self.assertEqual(states["int after = i"]["i"], (10, 10))

    def test_nested_loop_outer_counter_not_lost(self):
        # The regression the narrowing pass exists for: widening at the
        # inner head must not leave the outer counter at [0, +inf].
        _, states = self._solve(
            "void f() { for (int r = 0; r < 4; ++r) { "
            "for (int c = 0; c < 6; ++c) { int probe = r; } } }")
        self.assertEqual(states["int probe = r"]["r"], (0, 3))
        self.assertEqual(states["int probe = r"]["c"], (0, 5))

    def test_branch_join_unions_intervals(self):
        _, states = self._solve(
            "void f(int flag) { int v = 1; if (flag) { v = 5; } "
            "int probe = v; }")
        self.assertEqual(states["int probe = v"]["v"], (1, 5))

    def test_raii_guard_release_on_scope_exit(self):
        from cimlint.cfg import build_cfg
        code = ("void f() { { std::lock_guard<std::mutex> g(mu); use(); } "
                "after(); }")
        cfg = build_cfg(code, code.index("{") + 1, len(code) - 1)
        released = [mu for e in cfg.edges for mu in e.releases]
        self.assertEqual(released, ["mu"])


class IndexCacheContentHash(unittest.TestCase):
    """Satellite: the index cache must key on content, not (mtime, size).

    An edit that keeps both byte size and mtime (editors restoring
    timestamps, fast successive writes within mtime granularity) must
    still invalidate the cached per-file summary.
    """

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))

    def test_same_size_same_mtime_edit_invalidates(self):
        from cimlint.index import build_index
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            src = root / "src" / "util"
            src.mkdir(parents=True)
            probe = src / "probe.cpp"
            probe.write_text("void probe() { helper_one(); }\n",
                             encoding="utf-8")
            st = probe.stat()
            cache = root / "index.json"
            idx = build_index(root, [probe], cache)
            (fn,) = idx.all_functions()
            self.assertIn("helper_one", fn.calls)

            # Same byte count, same restored mtime — only content differs.
            probe.write_text("void probe() { helper_two(); }\n",
                             encoding="utf-8")
            os.utime(probe, ns=(st.st_atime_ns, st.st_mtime_ns))
            self.assertEqual(probe.stat().st_size, st.st_size)
            self.assertEqual(probe.stat().st_mtime_ns, st.st_mtime_ns)

            idx2 = build_index(root, [probe], cache)
            (fn2,) = idx2.all_functions()
            self.assertIn("helper_two", fn2.calls)


class MergeSarifDedupe(unittest.TestCase):
    """Satellite: cross-run duplicates collapse by stable fingerprint."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))

    def _result(self, line: int) -> dict:
        return {
            "ruleId": "rng-libc-rand",
            "level": "warning",
            "message": {"text": "libc rand()"},
            "locations": [{"physicalLocation": {
                "artifactLocation": {"uri": "src/a.cpp"},
                "region": {"startLine": line},
            }}],
        }

    def test_cross_run_duplicate_dropped_same_run_repeats_kept(self):
        import merge_sarif
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            # Two *identical* flagged lines: same content hash, distinct
            # occurrences — both must survive within one run.
            (root / "src" / "a.cpp").write_text(
                "int x = rand();\nint y = rand();\n", encoding="utf-8")
            run = {"tool": {"driver": {"name": "cimlint"}},
                   "results": [self._result(1), self._result(2)]}
            doc = {"version": "2.1.0", "runs": [run]}
            one = root / "one.sarif"
            two = root / "two.sarif"
            one.write_text(json.dumps(doc), encoding="utf-8")
            two.write_text(json.dumps(doc), encoding="utf-8")
            out = root / "merged.sarif"
            rc = merge_sarif.main([str(one), str(two),
                                   "--output", str(out),
                                   "--root", str(root)])
            self.assertEqual(rc, 0)
            merged = json.loads(out.read_text(encoding="utf-8"))
            counts = [len(r["results"]) for r in merged["runs"]]
            # Run 1 keeps both occurrences; run 2's copies are duplicates.
            self.assertEqual(counts, [2, 0])


class CallgraphResolution(unittest.TestCase):
    """Satellite: name resolution on overloaded / templated functions.

    Resolution is by last name and deliberately over-approximate: a call
    to `scale` resolves to *every* definition named scale, in sorted
    (path, line) order, and a templated definition is a node like any
    other. These tests pin that contract on the fixture.
    """

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))
        from cimlint.callgraph import CallGraph
        from cimlint.index import build_index
        fixture = FIXTURES / "src" / "util" / "overload_resolve.cpp"
        cls.index = build_index(FIXTURES, [fixture], None)
        cls.graph = CallGraph(cls.index)

    def test_both_overloads_indexed(self):
        lines = sorted(f.line for f in self.index.all_functions()
                       if f.name == "scale")
        self.assertEqual(len(lines), 2)

    def test_templated_function_is_a_node(self):
        names = {f.name for f in self.index.all_functions()}
        self.assertIn("clamp_to", names)

    def test_call_resolves_to_every_overload_deterministically(self):
        (driver,) = [f for f in self.index.all_functions()
                     if f.name == "overload_driver"]
        callees = [(c.name, c.line) for c in self.graph.callees(driver)]
        scale_lines = [line for name, line in callees if name == "scale"]
        self.assertEqual(len(scale_lines), 2)
        self.assertEqual(scale_lines, sorted(scale_lines))
        self.assertIn("clamp_to", [name for name, _ in callees])


class StatsAndRulesDoc(unittest.TestCase):
    """Satellites: --stats JSON shape and the generated rule reference."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(REPO / "tools"))

    def test_stats_json_schema_and_phases(self):
        with tempfile.TemporaryDirectory() as tmp:
            stats_path = Path(tmp) / "stats.json"
            proc = run_lint("--root", str(FIXTURES), "--no-baseline",
                            "--no-index-cache", "--stats", str(stats_path))
            self.assertEqual(proc.returncode, 1, proc.stderr)
            data = json.loads(stats_path.read_text(encoding="utf-8"))
        self.assertEqual(data["schema_version"], 1)
        self.assertGreater(data["scanned_files"], 0)
        self.assertGreater(data["total_seconds"], 0)
        for phase in ("index", "cfg", "solve", "scan", "project"):
            self.assertIn(phase, data["phases"], data["phases"])
        for rule in EXPECTED_COUNTS:
            self.assertIn(rule, data["rules"])
            self.assertGreaterEqual(data["rules"][rule]["seconds"], 0.0)
        # Suppression-aware: the stats findings count what the scan kept.
        self.assertEqual(data["rules"]["lock-order-cycle"]["findings"], 1)
        self.assertEqual(data["rules"]["index-range-overflow"]["findings"],
                         1)

    def test_rules_md_fresh_and_check_detects_staleness(self):
        from cimlint import rulesdoc
        committed = (REPO / "tools" / "cimlint" / "RULES.md").read_text(
            encoding="utf-8")
        self.assertEqual(committed, rulesdoc.render(),
                         "RULES.md is stale — regenerate with "
                         "tools/lint.py --write-rules-md")
        with tempfile.TemporaryDirectory() as tmp:
            stale = Path(tmp) / "RULES.md"
            stale.write_text(committed + "tampered\n", encoding="utf-8")
            self.assertFalse(rulesdoc.check(stale))
            self.assertTrue(rulesdoc.check(
                REPO / "tools" / "cimlint" / "RULES.md"))

    def test_check_rules_md_cli_exit_codes(self):
        proc = run_lint("--check-rules-md")
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
