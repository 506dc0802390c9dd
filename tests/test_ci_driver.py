#!/usr/bin/env python3
"""Exit-code contract tests for tools/run_static_analysis.sh.

The heavy stages (dataset CLI, scenario smoke, trace validation, header
selfcheck, werror/sanitizer builds, clang-tidy, gcc-fanalyzer, the RNG
provenance stage) are env-disabled so every
case here finishes in seconds; what's under test is the driver itself: stage toggles, --quick,
unknown-flag rejection, and failure propagation from a stage into the
script's exit status (injected via the WHEELS_CI_LINT_ROOT /
WHEELS_CI_CONTRACT_ROOT / WHEELS_CI_RNG_ROOT test hooks, which point the
full-repo lint, contract or RNG provenance check at a known-violating
fixture tree).

Run directly (python3 tests/test_ci_driver.py) or via ctest.
"""

import os
import subprocess
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
DRIVER = os.path.join(REPO_ROOT, "tools", "run_static_analysis.sh")

HEAVY_STAGES_OFF = {
    "WHEELS_CI_RNG": "0",
    "WHEELS_CI_FANALYZER": "0",
    "WHEELS_CI_DATASET": "0",
    "WHEELS_CI_SCENARIO": "0",
    "WHEELS_CI_TRACE": "0",
    "WHEELS_CI_HEADERS": "0",
    "WHEELS_CI_WERROR": "0",
    "WHEELS_CI_SANITIZE": "0",
    "WHEELS_CI_TSAN": "0",
    "WHEELS_CI_TIDY": "0",
    "WHEELS_CI_SERVE": "0",
}


def run_driver(*args, extra_env=None):
    env = dict(os.environ)
    env.update(HEAVY_STAGES_OFF)
    env.update(extra_env or {})
    proc = subprocess.run(
        ["bash", DRIVER, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        check=False)
    return proc.returncode, proc.stdout + proc.stderr


class QuickPass(unittest.TestCase):
    def test_quick_with_light_stages_passes(self):
        # lint + arch + contract stages stay on; all must run and the
        # driver must report overall success.
        code, out = run_driver("--quick")
        self.assertEqual(code, 0, out)
        self.assertIn("wheels-lint: full repo", out)
        self.assertIn("wheels-arch: full repo", out)
        self.assertIn("wheels-contract: full repo", out)
        self.assertIn("static analysis OK", out)

    def test_disabled_stages_do_not_run(self):
        _, out = run_driver("--quick")
        self.assertNotIn("wheels_campaign CLI smoke", out)
        self.assertNotIn("scenario smoke", out)
        self.assertNotIn("werror build", out)
        self.assertNotIn("header self-sufficiency", out)


class UnknownFlag(unittest.TestCase):
    def test_unknown_argument_exits_2(self):
        code, out = run_driver("--bogus")
        self.assertEqual(code, 2, out)
        self.assertIn("unknown argument", out)


class InjectedFailure(unittest.TestCase):
    def test_lint_failure_fails_the_driver(self):
        # Point the full-repo lint at a fixture tree that violates
        # banned-random; the driver must count the stage as failed and
        # exit 1 (not crash, not succeed).
        bad_root = os.path.join(TESTS_DIR, "lint_fixtures", "banned_random")
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_LINT_ROOT": bad_root,
            })
        self.assertEqual(code, 1, out)
        self.assertIn("banned-random", out)
        self.assertIn("static analysis FAILED", out)


class ContractStage(unittest.TestCase):
    """The wheels-contract stage: a member of --quick, toggleable via
    WHEELS_CI_CONTRACT, failure-injectable via WHEELS_CI_CONTRACT_ROOT."""

    def test_contract_stage_runs_under_quick(self):
        code, out = run_driver(
            "--quick", extra_env={"WHEELS_CI_LINT": "0",
                                  "WHEELS_CI_ARCH": "0"})
        self.assertEqual(code, 0, out)
        self.assertIn("wheels-contract: rule self-tests", out)
        self.assertIn("wheels-contract: full repo", out)

    def test_toggle_disables_the_stage(self):
        code, out = run_driver(
            "--quick", extra_env={"WHEELS_CI_CONTRACT": "0"})
        self.assertEqual(code, 0, out)
        self.assertNotIn("wheels-contract", out)

    def test_contract_failure_fails_the_driver(self):
        # Point the full-repo contract check at the drifted-golden fixture
        # tree; the stage must fail and the driver must exit 1.
        bad_root = os.path.join(TESTS_DIR, "fixtures", "contract",
                                "drifted_golden")
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_LINT": "0",
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_CONTRACT_ROOT": bad_root,
            })
        self.assertEqual(code, 1, out)
        self.assertIn("golden-pin", out)
        self.assertIn("static analysis FAILED", out)


class RngStage(unittest.TestCase):
    """The wheels-rng stage: a member of --quick (static half only; the
    runtime audit cross-check runs outside --quick), toggleable via
    WHEELS_CI_RNG, failure-injectable via WHEELS_CI_RNG_ROOT."""

    def test_rng_stage_runs_under_quick(self):
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_LINT": "0",
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_CONTRACT": "0",
                "WHEELS_CI_RNG": "1",
            })
        self.assertEqual(code, 0, out)
        self.assertIn("wheels-rng: rule self-tests", out)
        self.assertIn("wheels-rng: full repo", out)
        # The campaign-generating cross-check is not a --quick member.
        self.assertNotIn("runtime audit cross-check", out)

    def test_toggle_disables_the_stage(self):
        code, out = run_driver("--quick")
        self.assertEqual(code, 0, out)
        self.assertNotIn("wheels-rng", out)

    def test_rng_failure_fails_the_driver(self):
        # Point the provenance check at the cross-TU collision fixture;
        # the stage must fail and the driver must exit 1.
        bad_root = os.path.join(TESTS_DIR, "fixtures", "rng", "collision")
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_LINT": "0",
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_CONTRACT": "0",
                "WHEELS_CI_RNG": "1",
                "WHEELS_CI_RNG_ROOT": bad_root,
            })
        self.assertEqual(code, 1, out)
        self.assertIn("fork-collision", out)
        self.assertIn("static analysis FAILED", out)


class FanalyzerStage(unittest.TestCase):
    """The gcc -fanalyzer stage: best-effort (runs when the toolchain
    accepts -fanalyzer on C++, otherwise skips with a notice) and
    toggleable via WHEELS_CI_FANALYZER."""

    def test_stage_runs_or_skips_with_notice(self):
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_LINT": "0",
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_CONTRACT": "0",
                "WHEELS_CI_FANALYZER": "1",
            })
        self.assertEqual(code, 0, out)
        self.assertTrue("gcc -fanalyzer: OK" in out
                        or "unsupported on this toolchain" in out, out)

    def test_toggle_disables_the_stage(self):
        code, out = run_driver("--quick")
        self.assertEqual(code, 0, out)
        self.assertNotIn("gcc -fanalyzer", out)


class ServeStage(unittest.TestCase):
    """The serve smoke stage: a member of --quick, toggleable via
    WHEELS_CI_SERVE (off in HEAVY_STAGES_OFF above, so the other cases
    never pay for the daemon build + a cold campaign simulation)."""

    def test_serve_stage_runs_under_quick(self):
        # Re-enable just this stage; it builds wheels_served and
        # wheels_loadgen, boots the daemon on a scratch socket, and runs
        # the scripted probe/cold/herd/hot schedule against it.
        code, out = run_driver(
            "--quick",
            extra_env={
                "WHEELS_CI_LINT": "0",
                "WHEELS_CI_ARCH": "0",
                "WHEELS_CI_CONTRACT": "0",
                "WHEELS_CI_SERVE": "1",
            })
        self.assertEqual(code, 0, out)
        self.assertIn("serve smoke", out)
        self.assertIn('"byte_identical": true', out)
        self.assertIn('"failures": 0', out)

    def test_toggle_disables_the_stage(self):
        code, out = run_driver(
            "--quick", extra_env={"WHEELS_CI_SERVE": "0"})
        self.assertEqual(code, 0, out)
        self.assertNotIn("serve smoke", out)


class StageToggles(unittest.TestCase):
    def test_everything_disabled_still_summarizes_ok(self):
        code, out = run_driver(
            "--quick",
            extra_env={"WHEELS_CI_LINT": "0", "WHEELS_CI_ARCH": "0",
                       "WHEELS_CI_CONTRACT": "0"})
        self.assertEqual(code, 0, out)
        self.assertIn("static analysis OK", out)
        self.assertNotIn("wheels-lint", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
