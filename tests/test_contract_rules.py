#!/usr/bin/env python3
"""Tests for tools/wheels_contract.py (and validate_trace.py --contracts).

Each fixture directory under tests/fixtures/contract/ is a miniature
repo (tools/contracts.json + the artifacts the analyzer cross-checks)
run with --root. The good tree must pass every rule; each drift tree
breaks exactly one artifact and must be caught with a file:line finding.
The fix modes (--fix-pins / --fix-docs) are exercised on temp copies so
the checked-in fixtures stay byte-stable.

Run directly (python3 tests/test_contract_rules.py) or via ctest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
CONTRACT = os.path.join(REPO_ROOT, "tools", "wheels_contract.py")
VALIDATE_TRACE = os.path.join(REPO_ROOT, "tools", "validate_trace.py")
FIXTURES = os.path.join(TESTS_DIR, "fixtures", "contract")


def run_contract(fixture, *extra):
    root = os.path.join(FIXTURES, fixture)
    return run_contract_at(root, *extra)


def run_contract_at(root, *extra):
    proc = subprocess.run(
        [sys.executable, CONTRACT, "--root", root, *extra],
        capture_output=True,
        text=True,
        check=False)
    return proc.returncode, proc.stdout, proc.stderr


class GoodFixture(unittest.TestCase):
    def test_clean_tree_passes(self):
        code, out, err = run_contract("good")
        self.assertEqual(code, 0, out + err)
        self.assertIn("OK", out)

    def test_list_rules_names_every_rule(self):
        proc = subprocess.run(
            [sys.executable, CONTRACT, "--list-rules"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0)
        for rule in ("registry", "schema-pin", "golden-pin", "pins-stale",
                     "env-undeclared", "env-unused", "doc-drift",
                     "cli-flag", "span-prefix", "ci-stage",
                     "ctest-registration", "scenario-registry"):
            self.assertIn(rule, proc.stdout)


class StaleDocPin(unittest.TestCase):
    def test_stale_readme_checksum_fires_with_location(self):
        code, out, _ = run_contract("stale_doc")
        self.assertEqual(code, 1, out)
        # Both views of the same drift: the generated table no longer
        # matches its render, and the stale literal itself is flagged.
        self.assertIn("README.md:8: [doc-drift]", out)
        self.assertIn("README.md:13: [golden-pin]", out)
        self.assertIn("0x1111111111111111", out)

    def test_fix_docs_repairs_the_drift(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "stale_doc")
            shutil.copytree(os.path.join(FIXTURES, "stale_doc"), root)
            code, out, err = run_contract_at(root, "--fix-docs")
            self.assertEqual(code, 0, out + err)
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 0, out)


class DriftedGolden(unittest.TestCase):
    def test_code_literal_differing_from_registry_fires(self):
        code, out, _ = run_contract("drifted_golden")
        self.assertEqual(code, 1, out)
        self.assertIn("tests/test_pin.cpp:3: [golden-pin]", out)
        self.assertIn("0x00000000cafef00d", out)
        self.assertIn("0x00000000deadbeef", out)


class UnregisteredEnv(unittest.TestCase):
    def test_undeclared_getenv_fires_at_the_call_site(self):
        code, out, _ = run_contract("unregistered_env")
        self.assertEqual(code, 1, out)
        self.assertIn("src/sim.cpp:12: [env-undeclared]", out)
        self.assertIn("WHEELS_BAR", out)

    def test_declared_vars_do_not_fire(self):
        _, out, _ = run_contract("unregistered_env")
        self.assertNotIn("WHEELS_FOO", out)


class OrphanTest(unittest.TestCase):
    def test_unregistered_test_file_fires(self):
        code, out, _ = run_contract("orphan_test")
        self.assertEqual(code, 1, out)
        self.assertIn("tests/test_orphan.cpp:1: [ctest-registration]", out)

    def test_registered_test_stays_quiet(self):
        _, out, _ = run_contract("orphan_test")
        self.assertNotIn("test_pin.cpp", out)


class PinsHeader(unittest.TestCase):
    def test_missing_pins_header_fires_and_fix_pins_regenerates(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "good")
            shutil.copytree(os.path.join(FIXTURES, "good"), root)
            os.remove(os.path.join(root, "tests", "contract_pins.h"))
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("tests/contract_pins.h:1: [pins-stale]", out)
            code, out, err = run_contract_at(root, "--fix-pins")
            self.assertEqual(code, 0, out + err)
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 0, out)

    def test_hand_edited_pins_header_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "good")
            shutil.copytree(os.path.join(FIXTURES, "good"), root)
            pins = os.path.join(root, "tests", "contract_pins.h")
            with open(pins, "a", encoding="utf-8") as f:
                f.write("// hand edit\n")
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("[pins-stale]", out)


class CiStages(unittest.TestCase):
    """The ci-stage rule: registry stage ids and the driver's stage_<id>
    functions map one to one. Exercised on temp copies of the good
    fixture (one stage, `selftest`, and its stage_selftest function)."""

    STAGE = {"id": "extra", "name": "extra", "quick": True, "doc": "x"}

    def copy_good(self, tmp, stages=()):
        root = os.path.join(tmp, "good")
        shutil.copytree(os.path.join(FIXTURES, "good"), root)
        reg_path = os.path.join(root, "tools", "contracts.json")
        with open(reg_path, encoding="utf-8") as f:
            reg = json.load(f)
        reg["ci_stages"] += stages
        with open(reg_path, "w", encoding="utf-8") as f:
            json.dump(reg, f, indent=2)
        with open(reg_path, encoding="utf-8") as f:
            self.registry_lines = f.read().splitlines()
        return root

    def registry_line(self, needle, nth=1):
        hits = [i for i, ln in enumerate(self.registry_lines, start=1)
                if needle in ln]
        return hits[nth - 1]

    def test_stage_without_a_function_fires_at_its_id(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, _ = run_contract_at(
                self.copy_good(tmp, [self.STAGE]))
            self.assertEqual(code, 1, out)
            line = self.registry_line('"id": "extra"')
            self.assertIn(f"tools/contracts.json:{line}: [ci-stage] "
                          "registry stage 'extra' has no stage_extra "
                          "function", out)

    def test_function_without_a_stage_fires_at_its_definition(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.copy_good(tmp)
            driver = os.path.join(root, "tools", "run_static_analysis.sh")
            with open(driver, encoding="utf-8") as f:
                lines = f.read().splitlines()
            lines.append("stage_stray_one() { :; }")
            with open(driver, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn(f"tools/run_static_analysis.sh:{len(lines)}: "
                          "[ci-stage] stage_stray_one has no registry "
                          "ci_stages entry (id 'stray-one')", out)

    def test_duplicate_id_fires_at_the_second_entry(self):
        with tempfile.TemporaryDirectory() as tmp:
            dup = dict(self.STAGE, id="selftest")
            code, out, _ = run_contract_at(self.copy_good(tmp, [dup]))
            self.assertEqual(code, 1, out)
            line = self.registry_line('"id": "selftest"', nth=2)
            self.assertIn(f"tools/contracts.json:{line}: [ci-stage] stage "
                          "id 'selftest' is declared twice", out)

    def test_malformed_id_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = dict(self.STAGE, id="Extra_Stage")
            code, out, _ = run_contract_at(self.copy_good(tmp, [bad]))
            self.assertEqual(code, 1, out)
            self.assertIn("[ci-stage] registry stage 'extra' needs an id",
                          out)


class RegistryValidation(unittest.TestCase):
    def test_unreadable_registry_is_a_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, _, err = run_contract_at(tmp)
            self.assertEqual(code, 2, err)
            self.assertIn("cannot read", err)

    def test_missing_golden_for_schema_version_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "good")
            shutil.copytree(os.path.join(FIXTURES, "good"), root)
            reg_path = os.path.join(root, "tools", "contracts.json")
            with open(reg_path, encoding="utf-8") as f:
                reg = json.load(f)
            reg["schema_version"] = 9  # no golden registered for 9
            with open(reg_path, "w", encoding="utf-8") as f:
                json.dump(reg, f, indent=2)
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("[registry]", out)
            self.assertIn("schema version 9", out)


class DatasetPins(unittest.TestCase):
    """The optional dataset_pins registry section: rendered into the pins
    header, validated entry by entry, and cross-checked against the
    benchmark's perfbench/expected_seed42.json. Exercised on temp copies
    of the good fixture (which has no dataset_pins section)."""

    PIN = {"scenario": "alpha", "kind": "static-baseline", "op": "AT&T",
           "stride": 64, "checksum": "0x0123456789abcdef"}

    def make_root(self, tmp, entries, expected=None):
        root = os.path.join(tmp, "good")
        shutil.copytree(os.path.join(FIXTURES, "good"), root)
        reg_path = os.path.join(root, "tools", "contracts.json")
        with open(reg_path, encoding="utf-8") as f:
            reg = json.load(f)
        reg["dataset_pins"] = {"seed": 42, "entries": entries}
        with open(reg_path, "w", encoding="utf-8") as f:
            json.dump(reg, f, indent=2)
        if expected is not None:
            os.makedirs(os.path.join(root, "perfbench"))
            with open(os.path.join(root, "perfbench", "expected_seed42.json"),
                      "w", encoding="utf-8") as f:
                json.dump({"cold-library": {"dataset_digests": expected}}, f)
        return root

    def fixed(self, root):
        code, out, err = run_contract_at(root, "--fix-pins")
        self.assertEqual(code, 0, out + err)
        code, out, err = run_contract_at(root, "--fix-docs")
        self.assertEqual(code, 0, out + err)
        return run_contract_at(root)

    def test_pins_render_into_the_header(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, [self.PIN])
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("[pins-stale]", out)
            code, out, _ = self.fixed(root)
            self.assertEqual(code, 0, out)
            with open(os.path.join(root, "tests", "contract_pins.h"),
                      encoding="utf-8") as f:
                header = f.read()
            self.assertIn('{"alpha", "static-baseline", "AT&T", 64, '
                          '0x0123456789abcdefULL},', header)
            self.assertIn("std::array<DatasetPin, 1> kDatasetPins", header)

    def test_malformed_pins_fire(self):
        bad_kind = dict(self.PIN, kind="campaign-ish")
        no_op = {k: v for k, v in self.PIN.items() if k != "op"}
        whole_roster_op = dict(self.PIN, kind="app-campaign")
        bad_stride = dict(self.PIN, op="Verizon", stride=0)
        for entry, needle in ((bad_kind, "kind must be one of"),
                              (no_op, "op must be one of"),
                              (whole_roster_op, "takes no op"),
                              (bad_stride, "positive integer")):
            with tempfile.TemporaryDirectory() as tmp:
                code, out, _ = self.fixed(self.make_root(tmp, [entry]))
                self.assertEqual(code, 1, out)
                self.assertIn("[registry]", out)
                self.assertIn(needle, out)

    def test_duplicate_pin_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            code, out, _ = self.fixed(
                self.make_root(tmp, [self.PIN, dict(self.PIN)]))
            self.assertEqual(code, 1, out)
            self.assertIn("alpha/static-baseline/AT&T is declared twice", out)

    def test_disagreement_with_benchmark_record_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(
                tmp, [self.PIN],
                {"alpha/static-baseline/AT&T": "0x1111111111111111"})
            code, out, _ = self.fixed(root)
            self.assertEqual(code, 1, out)
            self.assertIn("perfbench/expected_seed42.json records "
                          "0x1111111111111111", out)

    def test_agreement_with_benchmark_record_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(
                tmp, [self.PIN],
                {"alpha/static-baseline/AT&T": self.PIN["checksum"]})
            code, out, _ = self.fixed(root)
            self.assertEqual(code, 0, out)


class WorkCounts(unittest.TestCase):
    """The optional work_counts registry section: the exact counter deltas
    of a cold then a warm pass, rendered into the pins header and checked
    for shape, declared metric prefixes, and a warm pass that reads back
    what the cold pass wrote. Exercised on temp copies of the good fixture
    (whose one metric prefix is `sim.`; its registry has no work_counts)."""

    COLD = {"sim.runs": 2, "dataset.cache.bytes_written": 100}
    WARM = {"sim.runs": 0, "dataset.cache.bytes_read": 100}

    def make_root(self, tmp, work_counts):
        root = os.path.join(tmp, "good")
        shutil.copytree(os.path.join(FIXTURES, "good"), root)
        reg_path = os.path.join(root, "tools", "contracts.json")
        with open(reg_path, encoding="utf-8") as f:
            reg = json.load(f)
        reg["metric_prefixes"].append("dataset.cache.")
        reg["work_counts"] = work_counts
        with open(reg_path, "w", encoding="utf-8") as f:
            json.dump(reg, f, indent=2)
        # The code that registers the cache's byte counters.
        with open(os.path.join(root, "src", "cache.cpp"), "w",
                  encoding="utf-8") as f:
            f.write('void f() { reg.counter("dataset.cache.bytes_read"); }\n')
        return root

    def section(self, cold=None, warm=None, **extra):
        cold = dict(self.COLD if cold is None else cold)
        warm = dict(self.WARM if warm is None else warm)
        # Both passes pin the same counters.
        cold.setdefault("dataset.cache.bytes_read", 0)
        warm.setdefault("dataset.cache.bytes_written", 0)
        return dict({"scenario": "alpha", "stride": 64,
                     "passes": {"cold": cold, "warm": warm}}, **extra)

    def fixed(self, root):
        code, out, err = run_contract_at(root, "--fix-pins")
        self.assertEqual(code, 0, out + err)
        code, out, err = run_contract_at(root, "--fix-docs")
        self.assertEqual(code, 0, out + err)
        return run_contract_at(root)

    def test_counts_render_into_the_header(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, self.section())
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("[pins-stale]", out)
            code, out, _ = self.fixed(root)
            self.assertEqual(code, 0, out)
            with open(os.path.join(root, "tests", "contract_pins.h"),
                      encoding="utf-8") as f:
                header = f.read()
            self.assertIn('kWorkCountScenario = "alpha";', header)
            self.assertIn("kWorkCountStride = 64;", header)
            self.assertIn("std::array<WorkCount, 6> kWorkCounts", header)
            self.assertIn('{"cold", "sim.runs", 2},', header)
            self.assertIn('{"warm", "dataset.cache.bytes_read", 100},',
                          header)
            self.assertIn("#include <array>", header)

    def test_malformed_sections_fire(self):
        cases = (
            (self.section(stride=0), "stride must be a positive integer"),
            ({"scenario": "alpha", "stride": 64,
              "passes": {"warm": self.WARM, "cold": self.COLD}},
             "exactly cold and warm"),
            (self.section(cold=dict(self.COLD, **{"sim.runs": -1})),
             "must be a non-negative integer"),
            (self.section(cold=dict(self.COLD, **{"other.count": 1}),
                          warm=dict(self.WARM, **{"other.count": 1})),
             "other.count starts with no declared metric prefix"),
            (self.section(warm=dict(self.WARM, **{"sim.extra": 0})),
             "must pin the same counters"),
        )
        for section, needle in cases:
            with tempfile.TemporaryDirectory() as tmp:
                code, out, _ = self.fixed(self.make_root(tmp, section))
                self.assertEqual(code, 1, out)
                self.assertIn("[registry]", out)
                self.assertIn(needle, out)

    def test_warm_read_differing_from_cold_write_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            warm = dict(self.WARM, **{"dataset.cache.bytes_read": 99})
            code, out, _ = self.fixed(
                self.make_root(tmp, self.section(warm=warm)))
            self.assertEqual(code, 1, out)
            self.assertIn("warm dataset.cache.bytes_read is 99 but the cold "
                          "pass wrote 100", out)


class OutputFormats(unittest.TestCase):
    def test_findings_serialize_with_rule_path_line_message(self):
        code, out, _ = run_contract("drifted_golden", "--format=json")
        self.assertEqual(code, 1, out)
        doc = json.loads(out)
        self.assertEqual(doc["tool"], "wheels-contract")
        self.assertEqual(len(doc["findings"]), 1, out)
        f = doc["findings"][0]
        self.assertEqual(f["rule"], "golden-pin")
        self.assertEqual(f["path"], "tests/test_pin.cpp")
        self.assertEqual(f["line"], 3)
        self.assertIn("registry pin", f["message"])

    def test_clean_tree_serializes_empty_findings(self):
        code, out, _ = run_contract("good", "--format=json")
        self.assertEqual(code, 0, out)
        doc = json.loads(out)
        self.assertEqual(doc["findings"], [])
        self.assertGreater(doc["files_scanned"], 0)

    def test_sarif_round_trips_the_json_findings(self):
        _, json_out, _ = run_contract("stale_doc", "--format=json")
        code, sarif_out, _ = run_contract("stale_doc", "--format=sarif")
        self.assertEqual(code, 1, sarif_out)
        native = json.loads(json_out)["findings"]
        doc = json.loads(sarif_out)
        self.assertEqual(doc["version"], "2.1.0")
        run = doc["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "wheels-contract")
        results = run["results"]
        self.assertEqual(len(results), len(native))
        for res, f in zip(results, native):
            self.assertEqual(res["ruleId"], f["rule"])
            self.assertEqual(res["message"]["text"], f["message"])
            loc = res["locations"][0]["physicalLocation"]
            self.assertEqual(loc["artifactLocation"]["uri"], f["path"])
            self.assertEqual(loc["region"]["startLine"], f["line"])
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertEqual(rule_ids, {f["rule"] for f in native})


class ValidateTraceContracts(unittest.TestCase):
    """The satellite: validate_trace.py loads its required span prefixes
    from the registry instead of hard-coded flags."""

    REGISTRY = os.path.join(FIXTURES, "good", "tools", "contracts.json")

    def run_validate(self, events, *extra):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as f:
            json.dump({"traceEvents": events}, f)
            path = f.name
        try:
            proc = subprocess.run(
                [sys.executable, VALIDATE_TRACE, path, *extra],
                capture_output=True, text=True, check=False)
            return proc.returncode, proc.stdout, proc.stderr
        finally:
            os.unlink(path)

    @staticmethod
    def span(name, ts=0, dur=1):
        return {"name": name, "cat": "wheels", "ph": "X", "pid": 1,
                "tid": 1, "ts": ts, "dur": dur}

    def test_registry_prefixes_are_required(self):
        # The fixture registry requires a sim.run* span.
        code, out, err = self.run_validate(
            [self.span("sim.run.total")], "--contracts", self.REGISTRY)
        self.assertEqual(code, 0, out + err)
        code, _, err = self.run_validate(
            [self.span("other.phase")], "--contracts", self.REGISTRY)
        self.assertEqual(code, 1, err)
        self.assertIn("sim.run", err)

    def test_contracts_and_require_span_compose(self):
        code, _, err = self.run_validate(
            [self.span("sim.run.total")],
            "--contracts", self.REGISTRY, "--require-span", "extra.")
        self.assertEqual(code, 1, err)
        self.assertIn("extra.", err)

    def test_bad_registry_is_a_usage_error(self):
        code, _, err = self.run_validate(
            [self.span("sim.run.total")], "--contracts", "/nonexistent.json")
        self.assertEqual(code, 2, err)


class ScenarioRegistry(unittest.TestCase):
    """The scenario-registry rule: shipped scenarios/*.json files must
    parse, carry unique names matching their filenames, and show up in
    the generated README scenario table. Exercised on temp copies of the
    good fixture (which itself has no scenarios/ directory, proving the
    rule is a no-op for trees without a library)."""

    def make_root(self, tmp, files):
        root = os.path.join(tmp, "good")
        shutil.copytree(os.path.join(FIXTURES, "good"), root)
        scen = os.path.join(root, "scenarios")
        os.makedirs(scen)
        for name, text in files.items():
            with open(os.path.join(scen, name), "w", encoding="utf-8") as f:
                f.write(text)
        return root

    def test_no_scenarios_dir_is_a_noop(self):
        code, out, err = run_contract("good")
        self.assertEqual(code, 0, out + err)

    def test_valid_library_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, {
                "alpha.json": '{"name": "alpha", "description": "a"}\n',
            })
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 0, out)

    def test_malformed_scenario_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, {"broken.json": '{"name": "broken"'})
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("scenarios/broken.json:1: [scenario-registry]",
                          out)

    def test_name_filename_mismatch_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, {
                "alpha.json": '{"name": "beta", "description": "x"}\n',
            })
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("[scenario-registry]", out)
            self.assertIn("alpha.json", out)

    def test_duplicate_name_fires(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = self.make_root(tmp, {
                "alpha.json": '{"name": "alpha", "description": "x"}\n',
                "beta.json": '{"name": "alpha", "description": "y"}\n',
            })
            code, out, _ = run_contract_at(root)
            self.assertEqual(code, 1, out)
            self.assertIn("already taken", out)


class RepoIsClean(unittest.TestCase):
    def test_real_repo_passes(self):
        code, out, err = run_contract_at(REPO_ROOT)
        self.assertEqual(code, 0, out + err)

    def test_real_registry_pins_the_documented_golden(self):
        # The acceptance pin: the registry (single source of truth) still
        # carries the PR-2 golden for the current schema version.
        with open(os.path.join(REPO_ROOT, "tools", "contracts.json"),
                  encoding="utf-8") as f:
            reg = json.load(f)
        golden = reg["golden_checksums"][str(reg["schema_version"])]
        self.assertEqual(golden["checksum"], "0xbba11b2dda6d2b08")
        self.assertEqual(golden["seed"], 42)
        self.assertEqual(golden["stride"], 64)

    def test_real_registry_pins_every_dataset_of_every_scenario(self):
        # Eight datasets per library scenario; paper-default's campaign
        # is the golden above.
        with open(os.path.join(REPO_ROOT, "tools", "contracts.json"),
                  encoding="utf-8") as f:
            reg = json.load(f)
        pins = {(p["scenario"], p["kind"], p.get("op", ""))
                for p in reg["dataset_pins"]["entries"]}
        scenarios = sorted(n[:-len(".json")] for n in os.listdir(
            os.path.join(REPO_ROOT, "scenarios")) if n.endswith(".json"))
        want = set()
        for name in scenarios:
            for kind in ("static-baseline", "app-static-baseline"):
                for op in ("Verizon", "T-Mobile", "AT&T"):
                    want.add((name, kind, op))
            want.add((name, "app-campaign", ""))
            if name != "paper-default":
                want.add((name, "campaign", ""))
        self.assertEqual(pins, want)


if __name__ == "__main__":
    unittest.main(verbosity=2)
