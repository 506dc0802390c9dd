#!/usr/bin/env python3
"""Tests for tools/wheels_rng.py, the whole-program RNG provenance
analyzer.

Each fixture directory under tests/fixtures/rng/ is a miniature repo
(src/..., optional tools/rng_graph.json pin) run through the analyzer
with --root. A rule only counts as enforced if it (a) fires on the
violating tree at the expected location and (b) stays quiet on the
adjacent compliant tree. The trace tests feed handcrafted audit JSONL
(the same shape src/obs/rng_audit.cpp emits) through --check-trace
against the good fixture's static graph.

Run directly (python3 tests/test_rng_rules.py) or via ctest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
RNG = os.path.join(REPO_ROOT, "tools", "wheels_rng.py")
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "rng")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from wheels_rng import classify_header, fnv1a  # noqa: E402


def run_rng(root, *extra):
    if not os.path.isabs(root):
        root = os.path.join(FIXTURES, root)
    proc = subprocess.run(
        [sys.executable, RNG, "--root", root, *extra],
        capture_output=True,
        text=True,
        check=False)
    return proc.returncode, proc.stdout, proc.stderr


def write_tree(base, files):
    for rel, content in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(content))


def hex64(v):
    return "0x%016x" % v


def stream(sid, parent=None, salt=None, label=None, draws=0, conflicts=0):
    return json.dumps({
        "id": hex64(sid),
        "parent": hex64(parent) if parent is not None else None,
        "salt": hex64(salt) if salt is not None else None,
        "label": label,
        "seeds": 1 if parent is None else 0,
        "forks": 0 if parent is None else 1,
        "draws": draws,
        "conflicts": conflicts,
    })


def write_trace(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


class GoodFixture(unittest.TestCase):
    def test_clean_tree_passes(self):
        code, out, err = run_rng("good")
        self.assertEqual(code, 0, out + err)
        self.assertIn("OK", out)
        # The pin is present, so the drift check must actually run.
        self.assertNotIn("drift check skipped", err)

    def test_dot_export_marks_dynamic_edges(self):
        code, out, _ = run_rng("good", "--dot")
        self.assertEqual(code, 0, out)
        self.assertIn("digraph rng_forks", out)
        self.assertIn('"seed:src/sim.cpp:drive:root"', out)
        self.assertIn("style=dashed", out)  # the declared-dynamic edge

    def test_json_format_reports_graph_size(self):
        code, out, _ = run_rng("good", "--format", "json")
        self.assertEqual(code, 0, out)
        payload = json.loads(out)
        self.assertEqual(payload["tool"], "wheels-rng")
        self.assertEqual(payload["findings"], [])
        self.assertEqual(payload["edges"], 6)

    def test_list_rules_covers_static_and_trace_rules(self):
        code, out, _ = run_rng("good", "--list-rules")
        self.assertEqual(code, 0, out)
        for rule in ("fork-collision", "rng-by-value", "rng-member-copy",
                     "draw-in-unordered", "unlabeled-fork",
                     "fork-graph-drift", "trace-unknown-edge",
                     "trace-conflict", "trace-draw-mismatch"):
            self.assertIn(rule, out)


class CollisionFixture(unittest.TestCase):
    def test_cross_tu_collision_fires(self):
        code, out, _ = run_rng("collision")
        self.assertEqual(code, 1, out)
        self.assertIn("[fork-collision]", out)
        self.assertIn("src/b.cpp:7", out)   # second site is the finding
        self.assertIn("src/a.cpp:6", out)   # ...pointing at the first
        self.assertIn("seed:member:A::rng_", out)

    def test_allow_comment_suppresses(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(FIXTURES, "collision"),
                            os.path.join(tmp, "repo"))
            b = os.path.join(tmp, "repo", "src", "b.cpp")
            with open(b, encoding="utf-8") as f:
                text = f.read()
            text = text.replace(
                "  Rng clash",
                "  // wheels-rng: allow(fork-collision)\n  Rng clash")
            with open(b, "w", encoding="utf-8") as f:
                f.write(text)
            code, out, _ = run_rng(os.path.join(tmp, "repo"))
            self.assertEqual(code, 0, out)

    def test_sarif_format_carries_the_finding(self):
        code, out, _ = run_rng("collision", "--format", "sarif")
        self.assertEqual(code, 1, out)
        payload = json.loads(out)
        results = payload["runs"][0]["results"]
        self.assertTrue(any(r["ruleId"] == "fork-collision"
                            for r in results), out)


class DuplicateForkFixture(unittest.TestCase):
    """The lint duplicate-fork fixture's cases, ported: fork-collision
    fires on everything the lexical rule proves and stays quiet on its
    compliant patterns."""

    def test_repeated_label_and_respelled_salt_fire(self):
        code, out, _ = run_rng("duplicate_fork")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[fork-collision]"), 2, out)
        self.assertIn("src/trip/dup_fork.cpp:11: [fork-collision] fork "
                      "'cell'", out)
        self.assertIn("collides with src/trip/dup_fork.cpp:10", out)
        self.assertIn("src/trip/dup_fork.cpp:52: [fork-collision] fork "
                      "'#7'", out)
        self.assertIn("collides with src/trip/dup_fork.cpp:50", out)

    def test_compliant_patterns_stay_quiet(self):
        # Distinct labels, other scopes and parents, chained forks, the
        # mention inside a string, 1'000 vs 1'001, "7" vs 7, and the
        # declared dynamic labels.
        _, out, _ = run_rng("duplicate_fork")
        findings = [ln for ln in out.splitlines() if ": [" in ln]
        self.assertEqual(len(findings), 2, out)
        self.assertNotIn("[unlabeled-fork]", out)


class ForkInStringLiteral(unittest.TestCase):
    def test_fork_mentioned_in_a_string_is_not_a_fork(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, {"src/doc.cpp": """\
                namespace wheels {
                const char* doc = "call rng.fork(cell) once";
                }  // namespace wheels
                """})
            code, out, _ = run_rng(tmp)
            self.assertEqual(code, 0, out)
            self.assertIn("0 fork edges", out)

    def test_fork_after_a_string_mention_still_counts(self):
        code, out, _ = run_rng("duplicate_fork", "--dot")
        self.assertEqual(code, 0, out)
        self.assertIn('"param:src/trip/dup_fork.cpp:good_in_string:rng/cell"',
                      out)
        self.assertNotIn("once per scope", out)


class ByValueFixture(unittest.TestCase):
    def test_copy_and_pass_by_value_fire(self):
        code, out, _ = run_rng("by_value")
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[rng-by-value]"), 2, out)
        self.assertIn("passed by value and used again", out)
        self.assertIn("copy-initialized from live stream", out)

    def test_fresh_fork_sink_idiom_is_quiet(self):
        # The good fixture passes consume(city_rng.fork("sink")) by
        # value -- the blessed hand-off idiom must not fire.
        code, out, _ = run_rng("good")
        self.assertEqual(code, 0, out)


class UnorderedDrawFixture(unittest.TestCase):
    def test_draw_in_hash_order_fires(self):
        code, out, _ = run_rng("unordered_draw")
        self.assertEqual(code, 1, out)
        self.assertIn("[draw-in-unordered]", out)
        self.assertIn("'cells'", out)


class DriftedGraphFixture(unittest.TestCase):
    def test_both_drift_directions_fire(self):
        code, out, _ = run_rng("drifted_graph")
        self.assertEqual(code, 1, out)
        self.assertIn("new fork edge not in the pinned graph", out)
        self.assertIn("pinned fork edge no longer in the program", out)
        self.assertEqual(out.count("[fork-graph-drift]"), 2, out)

    def test_fix_graph_repins_and_clears(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(FIXTURES, "drifted_graph"),
                            os.path.join(tmp, "repo"))
            root = os.path.join(tmp, "repo")
            code, out, _ = run_rng(root, "--fix-graph")
            self.assertEqual(code, 0, out)
            code, out, _ = run_rng(root)
            self.assertEqual(code, 0, out)

    def test_missing_pin_skips_with_notice(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(FIXTURES, "drifted_graph"),
                            os.path.join(tmp, "repo"))
            os.remove(os.path.join(tmp, "repo", "tools", "rng_graph.json"))
            code, out, err = run_rng(os.path.join(tmp, "repo"))
            self.assertEqual(code, 0, out + err)
            self.assertIn("drift check skipped", err)


class UnlabeledFork(unittest.TestCase):
    SNIPPET = """\
    #include "core/rng.h"
    namespace wheels {
    struct Config { unsigned long long seed = 1; };
    void drive(const Config& cfg, int city) {
      Rng root(cfg.seed);
      {ANNOTATION}Rng s = root.fork(static_cast<unsigned>(city));
      (void)s.next_u64();
    }
    }  // namespace wheels
    """

    def run_snippet(self, annotation):
        with tempfile.TemporaryDirectory() as tmp:
            src = self.SNIPPET.replace("{ANNOTATION}", annotation)
            write_tree(tmp, {"src/uf.cpp": src})
            return run_rng(tmp)

    def test_computed_salt_without_annotation_fires(self):
        code, out, _ = self.run_snippet("")
        self.assertEqual(code, 1, out)
        self.assertIn("[unlabeled-fork]", out)
        self.assertIn("static_cast<unsigned>(city)", out)

    def test_dynamic_annotation_declares_the_wildcard(self):
        code, out, _ = self.run_snippet(
            "// wheels-rng: dynamic(one stream per city)\n      ")
        self.assertEqual(code, 0, out)


class LambdaFixture(unittest.TestCase):
    """A lambda body belongs to its enclosing function, whatever callee
    the lambda is passed to."""

    def test_captured_stream_chains_to_its_real_root(self):
        code, out, _ = run_rng("lambda", "--dot")
        self.assertEqual(code, 0, out)
        self.assertIn('"seed:src/fan.cpp:fan_out:root/static/?city/tcp"',
                      out)
        self.assertNotIn("extern:", out)

    def test_collision_across_two_lambdas_fires(self):
        code, out, _ = run_rng("lambda")
        self.assertEqual(code, 1, out)
        self.assertIn("src/fan.cpp:32: [fork-collision]", out)
        self.assertIn("collides with src/fan.cpp:28", out)
        self.assertIn("'seed:src/fan.cpp:fan_out:root'", out)

    def test_functions_stay_functions(self):
        self.assertEqual(classify_header("void f(int x[])"),
                         ("function", "f"))
        self.assertEqual(
            classify_header("void Grid::fill(double (&cells)[4])"),
            ("function", "Grid::fill"))
        self.assertEqual(
            classify_header("pool.run(n, [&, this](int i) mutable")[0],
            "block")


class MemberCopy(unittest.TestCase):
    def test_two_members_from_one_stream_fires(self):
        snippet = """\
        #include "core/rng.h"
        namespace wheels {
        class Twin {
         public:
          explicit Twin(Rng base) : left_(base), right_(base) {}
         private:
          Rng left_;
          Rng right_;
        };
        }  // namespace wheels
        """
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, {"src/tw.cpp": snippet})
            code, out, _ = run_rng(tmp)
            self.assertEqual(code, 1, out)
            self.assertIn("[rng-member-copy]", out)
            self.assertIn("'right_'", out)


class CheckTrace(unittest.TestCase):
    """Handcrafted audit JSONL validated against the good fixture's
    static graph: root -> "trip" (label), -> #7 (salt), -> "city" ->
    dynamic per-city -> "sink"."""

    def check(self, *traces):
        return run_rng("good", "--check-trace", *traces)

    def test_embedded_subtree_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "trace.jsonl")
            write_trace(trace, [
                stream(0x1, draws=0),
                stream(0x2, parent=0x1, salt=fnv1a("trip"), label="trip",
                       draws=3),
                stream(0x3, parent=0x1, salt=7, draws=1),
                stream(0x4, parent=0x1, salt=fnv1a("city"), label="city"),
                stream(0x5, parent=0x4, salt=2, draws=0),
                stream(0x6, parent=0x5, salt=fnv1a("sink"), label="sink",
                       draws=9),
            ])
            code, out, _ = self.check(trace)
            self.assertEqual(code, 0, out)
            self.assertIn("trace check", out)

    def test_unregistered_fork_site_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "trace.jsonl")
            write_trace(trace, [
                stream(0x1),
                stream(0x2, parent=0x1, salt=fnv1a("nope"), label="nope"),
            ])
            code, out, _ = self.check(trace)
            self.assertEqual(code, 1, out)
            self.assertIn("[trace-unknown-edge]", out)
            self.assertIn('"nope"', out)

    def test_runtime_conflict_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            trace = os.path.join(tmp, "trace.jsonl")
            write_trace(trace, [
                stream(0x1),
                stream(0x2, parent=0x1, salt=fnv1a("trip"), label="trip",
                       conflicts=1),
            ])
            code, out, _ = self.check(trace)
            self.assertEqual(code, 1, out)
            self.assertIn("[trace-conflict]", out)

    def test_draw_count_mismatch_across_traces_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "jobs1.jsonl")
            b = os.path.join(tmp, "jobs4.jsonl")
            common = [stream(0x1)]
            write_trace(a, common + [
                stream(0x2, parent=0x1, salt=fnv1a("trip"), label="trip",
                       draws=5)])
            write_trace(b, common + [
                stream(0x2, parent=0x1, salt=fnv1a("trip"), label="trip",
                       draws=6)])
            code, out, _ = self.check(a, b)
            self.assertEqual(code, 1, out)
            self.assertIn("[trace-draw-mismatch]", out)
            self.assertIn("drew 5 times", out)

    def test_stream_set_mismatch_across_traces_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "jobs1.jsonl")
            b = os.path.join(tmp, "jobs4.jsonl")
            extra = stream(0x2, parent=0x1, salt=fnv1a("trip"),
                           label="trip", draws=5)
            write_trace(a, [stream(0x1), extra])
            write_trace(b, [stream(0x1)])
            code, out, _ = self.check(a, b)
            self.assertEqual(code, 1, out)
            self.assertIn("[trace-draw-mismatch]", out)
            self.assertIn("but not here", out)

    def test_identical_traces_pass(self):
        with tempfile.TemporaryDirectory() as tmp:
            a = os.path.join(tmp, "jobs1.jsonl")
            b = os.path.join(tmp, "jobs4.jsonl")
            lines = [
                stream(0x1),
                stream(0x2, parent=0x1, salt=fnv1a("trip"), label="trip",
                       draws=5),
            ]
            write_trace(a, lines)
            write_trace(b, lines)
            code, out, _ = self.check(a, b)
            self.assertEqual(code, 0, out)

    def test_missing_trace_is_a_usage_error(self):
        code, _, err = self.check("/nonexistent/trace.jsonl")
        self.assertEqual(code, 2, err)
        self.assertIn("trace not found", err)


if __name__ == "__main__":
    unittest.main()
