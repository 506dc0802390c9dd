#!/usr/bin/env python3
"""Tests for tools/run_static_analysis.sh, the CI driver.

The driver's own logic -- the stage roster taken from tools/contracts.json
`ci_stages`, --quick membership, WHEELS_CI_SKIP, unknown-argument
rejection and failure propagation into the exit status -- is checked
against a stub (WHEELS_CI_STUB) that only prints the id it is called
with, so those cases take milliseconds. Two cases run real stage bodies:
one --quick run that must pass, and one run over a temp copy of the repo
with three injected defects that must fail.

Run directly (python3 tests/test_ci_driver.py) or via ctest.
"""

import json
import os
import shutil
import stat
import subprocess
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
DRIVER = os.path.join("tools", "run_static_analysis.sh")

with open(os.path.join(REPO_ROOT, "tools", "contracts.json"),
          encoding="utf-8") as _f:
    ROSTER = json.load(_f)["ci_stages"]
ALL_IDS = [s["id"] for s in ROSTER]
QUICK_IDS = [s["id"] for s in ROSTER if s["quick"]]

# Prints the id it stands in for; fails for the ids listed in STUB_FAIL.
STUB = """#!/bin/sh
echo "stub:$1"
case ",${STUB_FAIL:-}," in *",$1,"*) exit 1 ;; esac
"""


def run_driver(*args, env=None, root=REPO_ROOT):
    full_env = dict(os.environ)
    for name in ("WHEELS_CI_SKIP", "WHEELS_CI_STUB", "STUB_FAIL"):
        full_env.pop(name, None)
    full_env.update(env or {})
    proc = subprocess.run(
        ["bash", os.path.join(root, DRIVER), *args],
        capture_output=True,
        text=True,
        cwd=root,
        env=full_env,
        check=False)
    return proc.returncode, proc.stdout + proc.stderr


class StubbedRoster(unittest.TestCase):
    """The roster loop against the stub: which stages run, in which
    order, and what the driver makes of their exit codes."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.stub = os.path.join(cls.tmp.name, "stub.sh")
        with open(cls.stub, "w", encoding="utf-8") as f:
            f.write(STUB)
        os.chmod(cls.stub, os.stat(cls.stub).st_mode | stat.S_IXUSR)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_stubbed(self, *args, skip=None, fail=""):
        env = {"WHEELS_CI_STUB": self.stub, "STUB_FAIL": fail}
        if skip is not None:
            env["WHEELS_CI_SKIP"] = skip
        code, out = run_driver(*args, env=env)
        called = [ln[len("stub:"):] for ln in out.splitlines()
                  if ln.startswith("stub:")]
        return code, out, called

    def test_full_run_calls_every_stage_in_roster_order(self):
        code, out, called = self.run_stubbed()
        self.assertEqual(code, 0, out)
        self.assertEqual(called, ALL_IDS)
        for stage in ROSTER:
            self.assertIn(f"=== {stage['name']} ===", out)
            self.assertIn(f"--- {stage['id']}: OK", out)
        self.assertIn("static analysis OK", out)

    def test_quick_run_calls_the_quick_stages_in_order(self):
        code, out, called = self.run_stubbed("--quick")
        self.assertEqual(code, 0, out)
        self.assertEqual(called, QUICK_IDS)

    def test_quick_never_runs_the_sanitizers_or_the_audit(self):
        _, out, called = self.run_stubbed("--quick")
        for stage_id in ("asan", "tsan", "rng-audit", "reach"):
            self.assertIn(stage_id, ALL_IDS)
            self.assertNotIn(stage_id, called, out)

    def test_skipped_ids_never_run(self):
        skip = ["cli", "scenario", "werror", "serve", "asan"]
        code, out, called = self.run_stubbed(skip=",".join(skip))
        self.assertEqual(code, 0, out)
        self.assertEqual(called, [i for i in ALL_IDS if i not in skip])
        self.assertNotIn("dataset CLI smoke", out)
        self.assertNotIn("serve smoke", out)

    def test_unknown_argument_exits_2(self):
        code, out, called = self.run_stubbed("--bogus")
        self.assertEqual(code, 2, out)
        self.assertIn("unknown argument", out)
        self.assertEqual(called, [])

    def test_unknown_skip_id_exits_2(self):
        code, out, called = self.run_stubbed(skip="lint,no-such-stage")
        self.assertEqual(code, 2, out)
        self.assertIn("unknown stage id in WHEELS_CI_SKIP: 'no-such-stage'",
                      out)
        self.assertEqual(called, [])

    def test_failing_stage_fails_the_driver_and_the_rest_still_run(self):
        code, out, called = self.run_stubbed("--quick", fail="arch")
        self.assertEqual(code, 1, out)
        self.assertEqual(called, QUICK_IDS)
        self.assertIn("--- arch: FAILED", out)
        self.assertIn("static analysis FAILED: 1 stage(s) reported problems",
                      out)

    def test_everything_skipped_still_summarizes_ok(self):
        code, out, called = self.run_stubbed(skip=",".join(ALL_IDS))
        self.assertEqual(code, 0, out)
        self.assertEqual(called, [])
        self.assertIn("static analysis OK", out)


class RealQuickRun(unittest.TestCase):
    """The real --quick stage bodies, minus the ones that only build or
    simulate (cli, scenario, trace, headers, werror), the optional
    clang-tidy, and selftests: ctest runs the same five rule self-test
    files as lint_rules, arch_rules, contract_rules, rng_rules and
    reach_rules, and the stubbed cases above check that the roster calls
    the stage."""

    def test_quick_passes(self):
        code, out = run_driver(
            "--quick",
            env={"WHEELS_CI_SKIP":
                 "selftests,cli,scenario,trace,headers,werror,tidy"})
        self.assertEqual(code, 0, out)
        for stage_id in ("lint", "arch", "contract", "rng", "fanalyzer",
                         "serve"):
            self.assertIn(f"--- {stage_id}: OK", out)
        # Each analyzer's full-repo pass ran.
        self.assertIn("wheels-lint: OK", out)
        self.assertIn("wheels-arch: OK", out)
        self.assertIn("wheels-contract: OK", out)
        self.assertIn("wheels-rng: OK (static check", out)
        # gcc -fanalyzer passed over src/core, or skipped with its notice
        # where the toolchain lacks C++ support (also reported OK above).
        self.assertIn("=== gcc-fanalyzer ===", out)
        # The serve smoke's loadgen report.
        self.assertIn('"byte_identical": true', out)
        self.assertIn('"failures": 0', out)
        self.assertNotIn("--- selftests", out)
        # The campaign-generating audit is not a --quick stage.
        self.assertNotIn("rng audit cross-check", out)
        self.assertNotIn("rng-audit", out)
        self.assertIn("static analysis OK", out)


class RealFailingRun(unittest.TestCase):
    """The real lint, contract and rng bodies over a temp copy of the
    repo with one defect each: every stage must pass its failure on."""

    def test_injected_defects_fail_their_stages(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "repo")
            shutil.copytree(
                REPO_ROOT, root,
                ignore=lambda d, names: [
                    n for n in names if d == REPO_ROOT
                    and (n.startswith(("build", ".bench_")) or n == ".git")])
            # banned-random: an ambient entropy source in src/.
            shutil.copy(
                os.path.join(TESTS_DIR, "lint_fixtures", "banned_random",
                             "src", "trip", "bad_entropy.cpp"),
                os.path.join(root, "src", "trip"))
            # golden-pin: a golden literal that is not the registry's.
            with open(os.path.join(root, "tests", "test_smoke.cpp"), "a",
                      encoding="utf-8") as f:
                f.write("// stale golden 0x00000000cafef00d\n")
            # fork-collision: two TUs fork one label off one member.
            collision = os.path.join(TESTS_DIR, "fixtures", "rng",
                                     "collision", "src")
            for name in os.listdir(collision):
                shutil.copy(os.path.join(collision, name),
                            os.path.join(root, "src"))
            skip = [i for i in ALL_IDS if i not in ("lint", "contract", "rng")]
            code, out = run_driver(
                env={"WHEELS_CI_SKIP": ",".join(skip)}, root=root)
        self.assertEqual(code, 1, out)
        self.assertIn("[banned-random]", out)
        self.assertIn("[golden-pin]", out)
        self.assertIn("[fork-collision]", out)
        for stage_id in ("lint", "contract", "rng"):
            self.assertIn(f"--- {stage_id}: FAILED", out)
        self.assertIn("static analysis FAILED: 3 stage(s) reported problems",
                      out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
