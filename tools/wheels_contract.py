#!/usr/bin/env python3
"""wheels-contract: cross-artifact determinism-pin contract analyzer.

The repo's core guarantee is bit-level determinism: the seed-42 stride-64
campaign hits one golden FNV checksum, datasets carry one magic/schema
pair, the `WHEELS_*` env surface is documented, and the obs span names CI
validates are the ones the code emits. Those pins used to live as loose
literals scattered across tests, tools, benches, docs and the CI driver —
exactly the drift surface that rots silently when a schema or golden is
deliberately bumped. This tool makes tools/contracts.json the single
source of truth and cross-checks every artifact against it, compile-free,
in the style of wheels_lint.py / wheels_arch.py:

  registry            tools/contracts.json itself is malformed: missing
                      keys, no golden for the current schema version,
                      bad checksum syntax, duplicate env var names, or a
                      per-dataset pin that is malformed, duplicated,
                      names no library scenario, or disagrees with the
                      benchmark's perfbench/expected_seed42.json, or a
                      printer digest that is malformed, misses or names
                      no bench/ printer, or disagrees with that file's
                      warm-figures record, or a
                      work_counts section that is malformed or whose
                      warm pass does not read back the bytes its cold
                      pass wrote.
  schema-pin          src/dataset/serialize.h kSchemaVersion / kMagic
                      disagree with the registry.
  golden-pin          a golden-checksum literal (tests/, bench/, or a
                      16-hex-digit literal in README/DESIGN/EXPERIMENTS)
                      differs from the registry's checksum for the
                      current schema version.
  pins-stale          the generated tests/contract_pins.h (golden,
                      per-dataset pins and work counts) is missing or out
                      of sync with the registry (--fix-pins regenerates
                      it).
  env-undeclared      getenv/setenv of a WHEELS_* variable in C++, or a
                      WHEELS_* reference in the CI driver, that the
                      registry does not declare.
  env-unused          a declared env var with no consumer in the artifact
                      its kind names (runtime -> C++ getenv/setenv,
                      ci -> tools/run_static_analysis.sh,
                      cmake -> CMakeLists/CMakePresets/cmake/*.cmake).
  doc-drift           a generated README table (determinism pins, env
                      vars, CI gates) is missing or differs from the
                      registry render (--fix-docs regenerates them).
  cli-flag            wheels_campaign's parsed subcommands/flags and the
                      registry's cli section disagree (either direction).
  span-prefix         a registry metric/span prefix with no matching
                      string literal in src/, or a metric registered in
                      src/ whose name starts with no declared prefix.
  ci-stage            a registry CI stage whose id is malformed or
                      declared twice, or has no stage_<id> function in
                      the driver (dashes written as underscores), or a
                      driver stage_* function no registry stage names.
  ctest-registration  a tests/test_*.{cpp,py} file that is not wired
                      into tests/CMakeLists.txt (a test that never runs
                      is a pin that never pins), or a Suite.Case that
                      tests/long_tests.cmake gives a COST but no
                      TEST/TEST_F/TEST_P in tests/*.cpp defines (ctest
                      ignores the properties of a test that does not
                      exist, so a renamed long test would quietly lose
                      its place at the front of a fresh build's run).
  scenario-registry   a scenarios/*.json library file that does not
                      parse, names a scenario twice, disagrees with its
                      filename, or is missing from the README scenario
                      table (--fix-docs regenerates the table).

Usage:
  tools/wheels_contract.py [--root DIR] [--format text|json|sarif]
                           [--fix-docs] [--fix-pins] [--list-rules]

The CLI, output formats and exit codes are the shared front end's
(tools/wheels_check.py); an unreadable registry is a usage error (exit
2). --fix-docs / --fix-pins rewrite the derived artifacts from the
registry and exit 0.
"""

from __future__ import annotations

import json
import os
import re
import sys

from wheels_check import Finding, Report, gather_files
import wheels_check

REGISTRY_REL = "tools/contracts.json"
SCENARIOS_DIR_REL = "scenarios"
SERIALIZE_REL = "src/dataset/serialize.h"
DRIVER_REL = "tools/run_static_analysis.sh"
TESTS_DIR_REL = "tests"
TESTS_CMAKE_REL = "tests/CMakeLists.txt"
LONG_TESTS_REL = "tests/long_tests.cmake"
README_REL = "README.md"
DOC_SCAN = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
# The benchmark's own record of the seed-42 stride-64 dataset digests;
# per-dataset pins at that seed and stride must agree with it.
BENCH_EXPECTED_REL = "perfbench/expected_seed42.json"

CPP_SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")

# No \b: a C++ suffix (0x...ULL) would suppress the boundary. Any run of
# exactly 16 hex digits counts; the lookahead rejects longer literals.
HEX64_RE = re.compile(r"0[xX][0-9a-fA-F]{16}(?![0-9a-fA-F])")
ENV_CALL_RE = re.compile(r"\b(?:getenv|setenv)\s*\(\s*\"(WHEELS_[A-Z0-9_]+)\"")
SHELL_ENV_RE = re.compile(r"\b(WHEELS_[A-Z0-9_]+)\b")
STAGE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(?:-[a-z0-9]+)*$")
STAGE_FUNCTION_RE = re.compile(r"^stage_(\w+)\s*\(\)", re.MULTILINE)
METRIC_REG_RE = re.compile(
    r"\.(?:counter|gauge|histogram)\s*\(\s*\"([^\"]+)\"", re.S)
SCHEMA_RE = re.compile(r"\bkSchemaVersion\s*=\s*(\d+)")
MAGIC_RE = re.compile(r"\bkMagic\s*=\s*\"([^\"]*)\"")
GTEST_CASE_RE = re.compile(r"\bTEST(?:_F|_P)?\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)")
SET_TESTS_PROPERTIES_RE = re.compile(
    r"\bset_tests_properties\s*\(([^)]*?)\bPROPERTIES\b", re.S)
CASE_NAME_RE = re.compile(r"\b\w+\.\w+\b")
CLI_SUBCOMMAND_RE = re.compile(r"command\s*==\s*\"([a-z][a-z0-9-]*)\"")
CLI_FLAG_RE = re.compile(r"\barg\s*==\s*\"(-{1,2}[a-z][a-z-]*|-h)\"")
GOLDEN_CONTEXT_RE = re.compile(r"[Gg]olden")

RULES = {
    "registry":
        "tools/contracts.json is malformed or internally inconsistent",
    "schema-pin":
        "src/dataset/serialize.h schema version / magic disagree with the "
        "registry",
    "golden-pin":
        "a golden checksum literal (code or docs) differs from the registry",
    "pins-stale":
        "generated tests/contract_pins.h missing or out of sync "
        "(--fix-pins)",
    "env-undeclared":
        "WHEELS_* env var used in code/CI but not declared in the registry",
    "env-unused":
        "declared env var with no consumer in the artifact its kind names",
    "doc-drift":
        "generated README table missing or out of sync (--fix-docs)",
    "cli-flag":
        "wheels_campaign subcommands/flags disagree with the registry",
    "span-prefix":
        "metric/span name prefixes and src/ literals disagree",
    "ci-stage":
        "CI driver stage functions and registry stage ids disagree",
    "ctest-registration":
        "tests/test_* file not registered in tests/CMakeLists.txt, or a "
        "tests/long_tests.cmake name that is no test",
    "scenario-registry":
        "scenarios/*.json fails to parse, duplicates a name, or is "
        "missing from the README scenario table",
}


# --- small IO helpers --------------------------------------------------------


def read_text(root: str, relpath: str) -> str | None:
    try:
        with open(os.path.join(root, relpath), encoding="utf-8",
                  errors="replace") as f:
            return f.read()
    except OSError:
        return None


def registry_line(registry_text: str, needle: str, nth: int = 1) -> int:
    """Line of the nth occurrence of `needle` in the raw registry text,
    so registry-side findings point at the offending entry."""
    pos = -1
    for _ in range(nth):
        pos = registry_text.find(needle, pos + 1)
        if pos == -1:
            return 1
    return registry_text.count("\n", 0, pos) + 1


# --- registry ----------------------------------------------------------------


CHECKSUM_RE = re.compile(r"^0x[0-9a-f]{16}$")
ENV_KINDS = ("runtime", "ci", "cmake")
# dataset::to_string(DatasetKind); the static kinds are pinned once per
# roster slot, named by its paper-default operator (ran::to_string).
DATASET_KINDS = ("campaign", "static-baseline", "app-campaign",
                 "app-static-baseline")
PER_OPERATOR_KINDS = ("static-baseline", "app-static-baseline")
OPERATOR_SLOTS = ("Verizon", "T-Mobile", "AT&T")


def check_registry(reg: dict, reg_rel: str, reg_text: str) -> list[Finding]:
    findings = []

    def bad(needle: str, msg: str) -> None:
        findings.append(
            Finding(reg_rel, registry_line(reg_text, needle), "registry", msg))

    version = reg.get("schema_version")
    if not isinstance(version, int):
        bad("schema_version", "schema_version must be an integer")
    if not isinstance(reg.get("dataset_magic"), str) or \
            not reg.get("dataset_magic"):
        bad("dataset_magic", "dataset_magic must be a non-empty string")
    goldens = reg.get("golden_checksums")
    if not isinstance(goldens, dict):
        bad("golden_checksums", "golden_checksums must be an object keyed "
            "by schema version")
        goldens = {}
    if isinstance(version, int) and str(version) not in goldens:
        bad("golden_checksums",
            f"no golden checksum registered for the current schema version "
            f"{version}; a schema bump must re-pin the golden in the same "
            "edit")
    for ver, entry in sorted(goldens.items()):
        checksum = entry.get("checksum") if isinstance(entry, dict) else None
        if not isinstance(checksum, str) or not CHECKSUM_RE.match(checksum):
            bad(f'"{ver}"',
                f"golden for schema version {ver} needs a checksum of the "
                "form 0x<16 lowercase hex digits>")
    seen: set[str] = set()
    for var in reg.get("env_vars", []):
        name = var.get("name", "") if isinstance(var, dict) else ""
        if not name.startswith("WHEELS_"):
            bad("env_vars", f"env var {name!r} must start with WHEELS_")
            continue
        if name in seen:
            bad(f'"name": "{name}"', f"env var {name} declared twice")
        seen.add(name)
        if var.get("kind") not in ENV_KINDS:
            bad(f'"name": "{name}"',
                f"env var {name} has kind {var.get('kind')!r}; expected one "
                f"of {', '.join(ENV_KINDS)}")
    return findings


def dataset_pin_key(pin: dict) -> str:
    """The perfbench/expected_seed42.json spelling of a pin's dataset."""
    key = f"{pin.get('scenario')}/{pin.get('kind')}"
    return f"{key}/{pin['op']}" if pin.get("op") else key


def check_dataset_pins(root: str, reg: dict, reg_rel: str,
                       reg_text: str) -> list[Finding]:
    """The optional dataset_pins section: one well-formed entry per
    (scenario, kind, operator slot), naming library scenarios, and equal
    to the benchmark's digest wherever both pin the same dataset."""
    pins = reg.get("dataset_pins")
    if pins is None:
        return []
    findings = []

    def bad(needle: str, msg: str) -> None:
        findings.append(
            Finding(reg_rel, registry_line(reg_text, needle), "registry", msg))

    entries = pins.get("entries") if isinstance(pins, dict) else None
    if not isinstance(pins.get("seed") if isinstance(pins, dict) else None,
                      int) or not isinstance(entries, list):
        bad("dataset_pins", "dataset_pins needs an integer seed and an "
            "entries list")
        return findings
    library = {
        doc.get("name") for _, doc in scenario_docs(root)
        if isinstance(doc, dict)
    }
    seen: set[str] = set()
    valid = []
    for pin in entries:
        if not isinstance(pin, dict):
            bad("dataset_pins", "every dataset pin must be an object")
            continue
        key = dataset_pin_key(pin)
        needle = f'"checksum": "{pin.get("checksum")}"'
        kind, op = pin.get("kind"), pin.get("op", "")
        if kind not in DATASET_KINDS:
            bad(needle, f"dataset pin {key}: kind must be one of "
                f"{', '.join(DATASET_KINDS)}")
            continue
        if kind in PER_OPERATOR_KINDS and op not in OPERATOR_SLOTS:
            bad(needle, f"dataset pin {key}: {kind} is pinned per "
                f"operator slot; op must be one of "
                f"{', '.join(OPERATOR_SLOTS)}")
            continue
        if kind not in PER_OPERATOR_KINDS and op:
            bad(needle, f"dataset pin {key}: {kind} covers the whole "
                "roster and takes no op")
            continue
        stride = pin.get("stride")
        if not isinstance(stride, int) or stride <= 0:
            bad(needle, f"dataset pin {key}: stride must be a positive "
                "integer")
            continue
        if not CHECKSUM_RE.match(str(pin.get("checksum"))):
            bad(needle, f"dataset pin {key} needs a checksum of the form "
                "0x<16 lowercase hex digits>")
            continue
        if key in seen:
            bad(needle, f"dataset pin {key} is declared twice")
            continue
        seen.add(key)
        if library and pin.get("scenario") not in library:
            bad(needle, f"dataset pin {key} names no scenarios/*.json "
                "library scenario")
            continue
        valid.append(pin)

    expected_text = read_text(root, BENCH_EXPECTED_REL)
    if expected_text is None or pins["seed"] != 42:
        return findings
    try:
        digests = json.loads(expected_text)["cold-library"]["dataset_digests"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return findings
    for pin in valid:
        want = digests.get(dataset_pin_key(pin))
        if pin["stride"] == 64 and want is not None and \
                want.lower() != pin["checksum"]:
            bad(f'"checksum": "{pin["checksum"]}"',
                f"dataset pin {dataset_pin_key(pin)} is {pin['checksum']} "
                f"but {BENCH_EXPECTED_REL} records {want} for the same "
                "seed-42 stride-64 dataset")
    return findings


# perfbench's printer glob (perfbench/CMakeLists.txt): the figure, table
# and ablation printers of bench/.
PRINTER_RE = re.compile(r"^(bench_(?:fig|table|ablation)\w*)\.cpp$")


def check_printer_digests(root: str, reg: dict, reg_rel: str,
                          reg_text: str) -> list[Finding]:
    """The optional printer_digests section: the FNV-1a of every bench/
    printer's stdout at stride 64 over the warm paper-default cache, one
    well-formed entry per printer, and equal to the benchmark's
    warm-figures record of the same stdout."""
    section = reg.get("printer_digests")
    if section is None:
        return []
    findings = []

    def bad(needle: str, msg: str) -> None:
        findings.append(
            Finding(reg_rel, registry_line(reg_text, needle), "registry", msg))

    entries = section.get("entries") if isinstance(section, dict) else None
    if not isinstance(entries, dict):
        bad("printer_digests", "printer_digests needs an entries object of "
            "printer: checksum")
        return findings
    for name, digest in entries.items():
        if not CHECKSUM_RE.match(str(digest)):
            bad(f'"{name}"', f"printer digest {name} needs a checksum of "
                "the form 0x<16 lowercase hex digits>")
    bench_dir = os.path.join(root, "bench")
    if os.path.isdir(bench_dir):
        printers = {
            m.group(1) for m in map(PRINTER_RE.match, os.listdir(bench_dir))
            if m
        }
        for name in sorted(printers - set(entries)):
            bad("printer_digests", f"printer {name} (bench/{name}.cpp) has "
                "no printer_digests entry")
        for name in sorted(set(entries) - printers):
            bad(f'"{name}"', f"printer digest {name} names no "
                "bench/ printer")

    expected_text = read_text(root, BENCH_EXPECTED_REL)
    if expected_text is None:
        return findings
    try:
        digests = json.loads(
            expected_text)["warm-figures"]["printer_digests"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return findings
    for name, digest in entries.items():
        want = digests.get(name)
        if want is not None and want.lower() != str(digest):
            bad(f'"{name}"', f"printer digest {name} is {digest} but "
                f"{BENCH_EXPECTED_REL} records {want} for the same "
                "stride-64 stdout")
    return findings


# The two passes of the work_counts section, in the order the test runs
# them: resolve every dataset into an empty cache, then again from it.
WORK_PASSES = ("cold", "warm")
BYTES_WRITTEN = "dataset.cache.bytes_written"
BYTES_READ = "dataset.cache.bytes_read"


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and \
        value >= 0


def check_work_counts(root: str, reg: dict, reg_rel: str,
                      reg_text: str) -> list[Finding]:
    """The optional work_counts section: the exact Det::Stable counter
    deltas of resolving every dataset of one library scenario cold, then
    warm. Both passes pin the same counters, each under a declared metric
    prefix, as non-negative integers, and the warm pass reads back exactly
    the bytes the cold pass wrote."""
    wc = reg.get("work_counts")
    if wc is None:
        return []
    findings = []

    def bad(needle: str, msg: str) -> None:
        findings.append(
            Finding(reg_rel, registry_line(reg_text, needle), "registry", msg))

    passes = wc.get("passes") if isinstance(wc, dict) else None
    if not isinstance(passes, dict) or list(passes) != list(WORK_PASSES):
        bad("work_counts", "work_counts needs a passes object with exactly "
            f"{' and '.join(WORK_PASSES)}, in that order")
        return findings
    library = {
        doc.get("name") for _, doc in scenario_docs(root)
        if isinstance(doc, dict)
    }
    scenario = wc.get("scenario")
    if not isinstance(scenario, str) or (library and scenario not in library):
        bad("work_counts", f"work_counts scenario {scenario!r} names no "
            "scenarios/*.json library scenario")
    stride = wc.get("stride")
    if not is_count(stride) or stride == 0:
        bad("work_counts", "work_counts stride must be a positive integer")
    prefixes = tuple(
        p for p in reg.get("metric_prefixes", []) if isinstance(p, str))
    counters = None
    for name in WORK_PASSES:
        counts = passes[name]
        if not isinstance(counts, dict) or not counts:
            bad(f'"{name}"', f"work_counts pass {name} needs an object of "
                "counter name: exact delta")
            continue
        for metric, value in counts.items():
            if not metric.startswith(prefixes):
                bad(f'"{metric}"', f"work_counts counter {metric} starts "
                    "with no declared metric prefix")
            if not is_count(value):
                bad(f'"{metric}"', f"work_counts {name} {metric} must be a "
                    "non-negative integer")
        if counters is None:
            counters = set(counts)
        elif set(counts) != counters:
            bad(f'"{name}"', "work_counts passes must pin the same counters")
    written = passes["cold"].get(BYTES_WRITTEN) \
        if isinstance(passes["cold"], dict) else None
    read = passes["warm"].get(BYTES_READ) \
        if isinstance(passes["warm"], dict) else None
    if written is not None and read is not None and written != read:
        bad(f'"{BYTES_READ}"', f"work_counts warm {BYTES_READ} is {read} "
            f"but the cold pass wrote {written}; a warm pass reads back "
            "exactly what the cold pass stored")
    return findings


def current_golden(reg: dict) -> dict | None:
    entry = reg.get("golden_checksums", {}).get(str(reg.get("schema_version")))
    return entry if isinstance(entry, dict) else None


# --- generated artifacts: pins header + README tables ------------------------


def render_dataset_pins(reg: dict) -> str:
    pins = reg.get("dataset_pins")
    if not isinstance(pins, dict):
        return ""
    entries = [p for p in pins.get("entries", []) if isinstance(p, dict)]
    rows = "".join(
        f'    {{"{p.get("scenario")}", "{p.get("kind")}", '
        f'"{p.get("op", "")}", {p.get("stride")}, '
        f'{p.get("checksum")}ULL}},\n' for p in entries)
    return f"""
// Per-dataset pins: FNV-1a of the encoded dataset for every shipped
// scenario at seed {pins.get("seed")}, one entry per (scenario, kind, operator
// slot). `kind` is dataset::to_string(DatasetKind); `op` names a roster
// slot by its paper-default operator (ran::to_string) and is empty for
// the whole-roster kinds. Static baselines do not depend on the stride.
struct DatasetPin {{
  std::string_view scenario;
  std::string_view kind;
  std::string_view op;
  int stride;
  std::uint64_t checksum;
}};

inline constexpr std::uint64_t kDatasetPinSeed = {pins.get("seed")};
inline constexpr std::array<DatasetPin, {len(entries)}> kDatasetPins{{{{
{rows}}}}};
"""


def render_work_counts(reg: dict) -> str:
    wc = reg.get("work_counts")
    if not isinstance(wc, dict) or not isinstance(wc.get("passes"), dict):
        return ""
    rows = [(name, metric, value)
            for name, counts in wc["passes"].items()
            if isinstance(counts, dict)
            for metric, value in sorted(counts.items())]
    body = "".join(f'    {{"{name}", "{metric}", {value}}},\n'
                   for name, metric, value in rows)
    return f"""
// Exact work of resolving every dataset of one library scenario: the
// Det::Stable counter deltas of a cold pass into an empty cache, then of a
// warm pass over the cache it left. An extra load, an extra simulation or
// a changed byte count fails the test that asserts them.
struct WorkCount {{
  std::string_view pass;
  std::string_view metric;
  std::int64_t value;
}};

inline constexpr std::string_view kWorkCountScenario = "{wc.get("scenario")}";
inline constexpr int kWorkCountStride = {wc.get("stride")};
inline constexpr std::array<WorkCount, {len(rows)}> kWorkCounts{{{{
{body}}}}};
"""


def render_pins_header(reg: dict) -> str:
    golden = current_golden(reg) or {}
    checksum = golden.get("checksum", "0x0")
    dataset_pins = render_dataset_pins(reg)
    work_counts = render_work_counts(reg)
    array_include = \
        "#include <array>\n" if dataset_pins or work_counts else ""
    return f"""\
// GENERATED FILE -- do not edit by hand.
//
// Single-source determinism pins, rendered from tools/contracts.json by
// `tools/wheels_contract.py --fix-pins`. The wheels-contract analyzer
// (pins-stale rule) fails CI whenever this header and the registry
// disagree, so a deliberate golden/schema bump is a one-line registry
// edit plus a regeneration -- never a hunt for scattered literals.
#pragma once

{array_include}#include <cstdint>
#include <string_view>

namespace wheels::contract {{

// Dataset container format (src/dataset/serialize.h must agree; the
// schema-pin rule cross-checks).
inline constexpr std::uint32_t kSchemaVersion = {reg.get("schema_version")};
inline constexpr std::string_view kDatasetMagic = "{reg.get("dataset_magic")}";

// The golden campaign: FNV-1a checksum of encode(CampaignResult) for
// this seed/stride pair, pinning every stochastic process in the
// pipeline. Regenerate deliberately via the registry, never by editing
// this file.
inline constexpr std::uint64_t kGoldenSeed = {golden.get("seed", 0)};
inline constexpr int kGoldenStride = {golden.get("stride", 0)};
inline constexpr std::uint64_t kGoldenCampaignChecksum =
    {checksum}ULL;
{dataset_pins}{work_counts}
}}  // namespace wheels::contract
"""


def table_marker(name: str, which: str) -> str:
    return f"<!-- contract:{name}:{which} -->"


def render_pins_table(reg: dict, root: str) -> list[str]:
    golden = current_golden(reg) or {}
    return [
        "| Pin | Value |",
        "|---|---|",
        f"| dataset magic | `{reg.get('dataset_magic')}` |",
        f"| dataset schema version | `{reg.get('schema_version')}` |",
        f"| golden campaign checksum (seed {golden.get('seed')}, "
        f"stride {golden.get('stride')}) | `{golden.get('checksum')}` |",
    ] + dataset_pins_row(reg) + printer_digests_row(reg) + \
        work_counts_row(reg)


def dataset_pins_row(reg: dict) -> list[str]:
    pins = reg.get("dataset_pins")
    if not isinstance(pins, dict):
        return []
    return [
        f"| per-dataset checksums (seed {pins.get('seed')}, every scenario, "
        "kind and operator slot) | "
        f"{len(pins.get('entries', []))} entries in `tools/contracts.json` "
        "`dataset_pins` |"
    ]


def printer_digests_row(reg: dict) -> list[str]:
    section = reg.get("printer_digests")
    if not isinstance(section, dict):
        return []
    return [
        "| printer stdout checksums (stride 64, warm paper-default cache) | "
        f"{len(section.get('entries', {}))} entries in `tools/contracts.json`"
        " `printer_digests` |"
    ]


def work_counts_row(reg: dict) -> list[str]:
    wc = reg.get("work_counts")
    if not isinstance(wc, dict) or not isinstance(wc.get("passes"), dict):
        return []
    return [
        f"| exact work counts ({wc.get('scenario')}, stride "
        f"{wc.get('stride')}, every dataset cold then warm) | "
        f"{sum(len(c) for c in wc['passes'].values() if isinstance(c, dict))}"
        " counter deltas in `tools/contracts.json` `work_counts` |"
    ]


def render_env_table(reg: dict, root: str) -> list[str]:
    lines = ["| Variable | Effect |", "|---|---|"]
    for var in reg.get("env_vars", []):
        if var.get("kind") != "runtime":
            continue
        lines.append(f"| `{var.get('usage', var['name'])}` | {var['doc']} |")
    return lines


def render_gates_table(reg: dict, root: str) -> list[str]:
    lines = ["| Id | Stage | In `--quick` | Checks |", "|---|---|---|---|"]
    for stage in reg.get("ci_stages", []):
        quick = "yes" if stage.get("quick") else "no"
        lines.append(f"| `{stage.get('id')}` | {stage.get('name')} | "
                     f"{quick} | {stage.get('doc', '')} |")
    return lines


def scenario_docs(root: str) -> list[tuple[str, dict | None]]:
    """(relpath, parsed-object-or-None) per scenarios/*.json, sorted by
    filename; None marks a file that is not a JSON object."""
    base = os.path.join(root, SCENARIOS_DIR_REL)
    if not os.path.isdir(base):
        return []
    out: list[tuple[str, dict | None]] = []
    for name in sorted(os.listdir(base)):
        if not name.endswith(".json"):
            continue
        relpath = f"{SCENARIOS_DIR_REL}/{name}"
        try:
            doc = json.loads(read_text(root, relpath) or "")
        except json.JSONDecodeError:
            doc = None
        out.append((relpath, doc if isinstance(doc, dict) else None))
    return out


def render_scenario_table(reg: dict, root: str) -> list[str]:
    lines = ["| Scenario | File | Description |", "|---|---|---|"]
    for relpath, doc in scenario_docs(root):
        if doc is None:
            continue  # the scenario-registry rule reports the parse failure
        name = doc.get("name", "")
        desc = " ".join(str(doc.get("description", "")).split())
        lines.append(f"| `{name}` | `{relpath}` | {desc} |")
    return lines


TABLE_RENDERERS = {
    "contract-pins-table": render_pins_table,
    "contract-env-table": render_env_table,
    "contract-gates-table": render_gates_table,
    "contract-scenario-table": render_scenario_table,
}


def check_pins_stale(root: str, reg: dict) -> list[Finding]:
    pins_rel = reg.get("generated", {}).get("pins_header")
    if not pins_rel:
        return []
    expected = render_pins_header(reg)
    actual = read_text(root, pins_rel)
    if actual is None:
        return [
            Finding(
                pins_rel, 1, "pins-stale",
                "generated pins header is missing; run "
                "tools/wheels_contract.py --fix-pins")
        ]
    if actual != expected:
        return [
            Finding(
                pins_rel, 1, "pins-stale",
                "generated pins header does not match tools/contracts.json; "
                "run tools/wheels_contract.py --fix-pins (never edit the "
                "header by hand)")
        ]
    return []


def check_doc_tables(root: str, reg: dict) -> list[Finding]:
    tables = reg.get("generated", {}).get("readme_tables", [])
    if not tables:
        return []
    text = read_text(root, README_REL)
    if text is None:
        return [
            Finding(README_REL, 1, "doc-drift",
                    "README.md is missing but the registry declares "
                    "generated tables for it")
        ]
    findings = []
    lines = text.splitlines()
    for name in tables:
        begin, end = table_marker(name, "begin"), table_marker(name, "end")
        try:
            b = lines.index(begin)
            e = lines.index(end)
        except ValueError:
            findings.append(
                Finding(
                    README_REL, 1, "doc-drift",
                    f"README.md lacks the generated table markers for "
                    f"{name} ({begin} ... {end}); run "
                    "tools/wheels_contract.py --fix-docs"))
            continue
        actual = [ln for ln in lines[b + 1:e] if ln.strip()]
        expected = TABLE_RENDERERS[name](reg, root)
        if actual != expected:
            findings.append(
                Finding(
                    README_REL, b + 1, "doc-drift",
                    f"generated table {name} is out of sync with "
                    "tools/contracts.json; run tools/wheels_contract.py "
                    "--fix-docs (edit the registry, not the table)"))
    return findings


def fix_docs(root: str, reg: dict) -> list[str]:
    """Rewrite every registered generated table between its markers.
    Returns the names actually rewritten; missing marker pairs are left
    for the caller to report."""
    tables = reg.get("generated", {}).get("readme_tables", [])
    text = read_text(root, README_REL)
    if text is None or not tables:
        return []
    lines = text.splitlines()
    fixed = []
    for name in tables:
        begin, end = table_marker(name, "begin"), table_marker(name, "end")
        try:
            b = lines.index(begin)
            e = lines.index(end)
        except ValueError:
            continue
        lines[b + 1:e] = TABLE_RENDERERS[name](reg, root)
        fixed.append(name)
    with open(os.path.join(root, README_REL), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return fixed


# --- pin checks over code and docs -------------------------------------------


def check_schema_pin(root: str, reg: dict) -> list[Finding]:
    text = read_text(root, SERIALIZE_REL)
    if text is None:
        return []
    findings = []
    m = SCHEMA_RE.search(text)
    if m and int(m.group(1)) != reg.get("schema_version"):
        findings.append(
            Finding(
                SERIALIZE_REL, text.count("\n", 0, m.start()) + 1,
                "schema-pin",
                f"kSchemaVersion = {m.group(1)} but tools/contracts.json "
                f"pins schema_version {reg.get('schema_version')}; bump the "
                "registry (and its golden) in the same change"))
    m = MAGIC_RE.search(text)
    if m and m.group(1) != reg.get("dataset_magic"):
        findings.append(
            Finding(
                SERIALIZE_REL, text.count("\n", 0, m.start()) + 1,
                "schema-pin",
                f'kMagic = "{m.group(1)}" but tools/contracts.json pins '
                f'dataset_magic "{reg.get("dataset_magic")}"'))
    return findings


def check_golden_pin(root: str, reg: dict,
                     cpp_files: list[str]) -> list[Finding]:
    golden = current_golden(reg)
    if golden is None:
        return []
    pin = golden.get("checksum", "")
    findings = []
    # Code: any line in tests/ or bench/ that names a golden and carries a
    # 64-bit hex literal must carry *the* golden. (After the contract_pins
    # refactor the only such line is the generated header itself.)
    for relpath in cpp_files:
        if not relpath.startswith(("tests/", "bench/")):
            continue
        text = read_text(root, relpath) or ""
        for idx, line in enumerate(text.splitlines(), start=1):
            if not GOLDEN_CONTEXT_RE.search(line):
                continue
            for m in HEX64_RE.finditer(line):
                if m.group(0).lower() != pin:
                    findings.append(
                        Finding(
                            relpath, idx, "golden-pin",
                            f"golden checksum literal {m.group(0)} differs "
                            f"from the registry pin {pin} for schema "
                            f"version {reg.get('schema_version')}; read it "
                            "from tests/contract_pins.h instead of "
                            "re-spelling the literal"))
    # Docs: every 64-bit hex literal in the living documents is, by
    # convention, the golden; history files (ROADMAP/CHANGES/ISSUE) are
    # deliberately out of scope.
    for doc in DOC_SCAN:
        text = read_text(root, doc)
        if text is None:
            continue
        for idx, line in enumerate(text.splitlines(), start=1):
            for m in HEX64_RE.finditer(line):
                if m.group(0).lower() != pin:
                    findings.append(
                        Finding(
                            doc, idx, "golden-pin",
                            f"documented checksum {m.group(0)} differs from "
                            f"the registry pin {pin}; regenerate the doc "
                            "tables (--fix-docs) or fix the registry"))
    return findings


# --- env-var surface ---------------------------------------------------------


def check_env(root: str, reg: dict, reg_text: str,
              cpp_files: list[str]) -> list[Finding]:
    declared = {
        v["name"]: v
        for v in reg.get("env_vars", [])
        if isinstance(v, dict) and "name" in v
    }
    findings = []
    cpp_uses: set[str] = set()
    for relpath in cpp_files:
        text = read_text(root, relpath) or ""
        for idx, line in enumerate(text.splitlines(), start=1):
            for m in ENV_CALL_RE.finditer(line):
                cpp_uses.add(m.group(1))
                if m.group(1) not in declared:
                    findings.append(
                        Finding(
                            relpath, idx, "env-undeclared",
                            f"{m.group(1)} is read here but not declared in "
                            "tools/contracts.json; every WHEELS_* knob must "
                            "be registered (and documented) before use"))
    driver_text = read_text(root, DRIVER_REL)
    driver_uses: set[str] = set()
    if driver_text is not None:
        for idx, line in enumerate(driver_text.splitlines(), start=1):
            for m in SHELL_ENV_RE.finditer(line):
                driver_uses.add(m.group(1))
                if m.group(1) not in declared:
                    findings.append(
                        Finding(
                            DRIVER_REL, idx, "env-undeclared",
                            f"{m.group(1)} appears in the CI driver but is "
                            "not declared in tools/contracts.json"))
    cmake_text = ""
    for rel in ("CMakeLists.txt", "CMakePresets.json"):
        cmake_text += read_text(root, rel) or ""
    cmake_dir = os.path.join(root, "cmake")
    if os.path.isdir(cmake_dir):
        for name in sorted(os.listdir(cmake_dir)):
            if name.endswith(".cmake"):
                cmake_text += read_text(root, f"cmake/{name}") or ""

    for name, var in sorted(declared.items()):
        kind = var.get("kind")
        line = registry_line(reg_text, f'"name": "{name}"')
        if kind == "runtime" and name not in cpp_uses:
            findings.append(
                Finding(
                    REGISTRY_REL, line, "env-unused",
                    f"runtime env var {name} is declared but no C++ source "
                    "reads it (getenv/setenv); delete the entry or wire the "
                    "knob up"))
        elif kind == "ci" and driver_text is not None and \
                name not in driver_uses:
            findings.append(
                Finding(
                    REGISTRY_REL, line, "env-unused",
                    f"ci env var {name} is declared but "
                    f"{DRIVER_REL} never references it"))
        elif kind == "cmake" and cmake_text and name not in cmake_text:
            findings.append(
                Finding(
                    REGISTRY_REL, line, "env-unused",
                    f"cmake option {name} is declared but no CMake file "
                    "references it"))
    return findings


# --- CLI flag surface --------------------------------------------------------


def check_cli(root: str, reg: dict, reg_text: str) -> list[Finding]:
    cli = reg.get("cli")
    if not isinstance(cli, dict):
        return []
    source_rel = cli.get("source", "")
    text = read_text(root, source_rel)
    if text is None:
        return [
            Finding(
                REGISTRY_REL, registry_line(reg_text, '"cli"'), "cli-flag",
                f"registry cli.source {source_rel!r} does not exist")
        ]
    findings = []
    code_subs: dict[str, int] = {}
    code_flags: dict[str, int] = {}
    for idx, line in enumerate(text.splitlines(), start=1):
        for m in CLI_SUBCOMMAND_RE.finditer(line):
            code_subs.setdefault(m.group(1), idx)
        for m in CLI_FLAG_RE.finditer(line):
            code_flags.setdefault(m.group(1), idx)
    reg_subs = set(cli.get("subcommands", []))
    reg_flags = set(cli.get("flags", []))
    for sub, idx in sorted(code_subs.items()):
        if sub not in reg_subs:
            findings.append(
                Finding(
                    source_rel, idx, "cli-flag",
                    f"subcommand '{sub}' is parsed here but missing from "
                    "the registry cli.subcommands list"))
    for sub in sorted(reg_subs - set(code_subs)):
        findings.append(
            Finding(
                REGISTRY_REL, registry_line(reg_text, f'"{sub}"'), "cli-flag",
                f"registry declares subcommand '{sub}' but {source_rel} "
                "never dispatches it"))
    for flag, idx in sorted(code_flags.items()):
        if flag not in reg_flags:
            findings.append(
                Finding(
                    source_rel, idx, "cli-flag",
                    f"flag '{flag}' is parsed here but missing from the "
                    "registry cli.flags list"))
    for flag in sorted(reg_flags - set(code_flags)):
        findings.append(
            Finding(
                REGISTRY_REL, registry_line(reg_text, f'"{flag}"'),
                "cli-flag",
                f"registry declares flag '{flag}' but {source_rel} never "
                "parses it"))
    return findings


# --- obs metric/span names ---------------------------------------------------


def check_spans(root: str, reg: dict, reg_text: str,
                cpp_files: list[str]) -> list[Finding]:
    metric_prefixes = reg.get("metric_prefixes", [])
    span_prefixes = reg.get("required_span_prefixes", [])
    if not metric_prefixes and not span_prefixes:
        return []
    src_files = [f for f in cpp_files if f.startswith("src/")]
    texts = {f: read_text(root, f) or "" for f in src_files}
    findings = []
    # Direction 1: every declared prefix must still exist as a literal in
    # src/ -- a rename that forgets the registry is caught here, a rename
    # that forgets the code is caught by CI's live trace validation.
    for prefix in list(metric_prefixes) + list(span_prefixes):
        needle = f'"{prefix}'
        if not any(needle in t for t in texts.values()):
            findings.append(
                Finding(
                    REGISTRY_REL, registry_line(reg_text, f'"{prefix}"'),
                    "span-prefix",
                    f"no string literal in src/ starts with \"{prefix}\"; "
                    "the registry prefix no longer matches the code"))
    # Direction 2: every metric registered in src/ must fall under a
    # declared prefix, so new instrumentation shows up in the registry.
    for relpath, text in sorted(texts.items()):
        for m in METRIC_REG_RE.finditer(text):
            name = m.group(1)
            if metric_prefixes and not any(
                    name.startswith(p) for p in metric_prefixes):
                findings.append(
                    Finding(
                        relpath, text.count("\n", 0, m.start()) + 1,
                        "span-prefix",
                        f"metric \"{name}\" is registered here but starts "
                        "with no metric_prefixes entry in "
                        "tools/contracts.json"))
    return findings


# --- CI driver stages --------------------------------------------------------


def check_ci_stages(root: str, reg: dict, reg_text: str) -> list[Finding]:
    """The driver runs the registry's roster by calling stage_<id> for
    each stage, so every id needs exactly one function and every
    function one id."""
    stages = reg.get("ci_stages", [])
    text = read_text(root, DRIVER_REL)
    if text is None or not stages:
        return []
    functions: dict[str, int] = {}
    for m in STAGE_FUNCTION_RE.finditer(text):
        functions.setdefault(m.group(1), text.count("\n", 0, m.start()) + 1)
    findings = []
    seen: dict[str, int] = {}
    for stage in stages:
        sid = stage.get("id")
        if not isinstance(sid, str) or not STAGE_ID_RE.match(sid):
            findings.append(
                Finding(
                    REGISTRY_REL,
                    registry_line(reg_text, f'"name": "{stage.get("name")}"'),
                    "ci-stage",
                    f"registry stage '{stage.get('name')}' needs an id of "
                    f"lowercase words joined by dashes, not {sid!r}"))
            continue
        needle = f'"id": "{sid}"'
        seen[sid] = seen.get(sid, 0) + 1
        if seen[sid] > 1:
            findings.append(
                Finding(
                    REGISTRY_REL, registry_line(reg_text, needle, seen[sid]),
                    "ci-stage",
                    f"stage id '{sid}' is declared twice; an id names one "
                    "stage_<id> function and one WHEELS_CI_SKIP entry"))
            continue
        function = sid.replace("-", "_")
        if function not in functions:
            findings.append(
                Finding(
                    REGISTRY_REL, registry_line(reg_text, needle), "ci-stage",
                    f"registry stage '{sid}' has no stage_{function} "
                    f"function in {DRIVER_REL}"))
    ids = {sid.replace("-", "_") for sid in seen}
    for function, line in sorted(functions.items()):
        if function not in ids:
            findings.append(
                Finding(
                    DRIVER_REL, line, "ci-stage",
                    f"stage_{function} has no registry ci_stages entry "
                    f"(id '{function.replace('_', '-')}'), so the driver "
                    "never runs it"))
    return findings


# --- ctest registration ------------------------------------------------------


def check_ctest_registration(root: str) -> list[Finding]:
    tests_dir = os.path.join(root, TESTS_DIR_REL)
    cmake_text = read_text(root, TESTS_CMAKE_REL)
    if not os.path.isdir(tests_dir) or cmake_text is None:
        return []
    findings = []
    for name in sorted(os.listdir(tests_dir)):
        if not name.startswith("test_"):
            continue
        if not name.endswith((".cpp", ".cc", ".py")):
            continue
        if name not in cmake_text:
            findings.append(
                Finding(
                    f"{TESTS_DIR_REL}/{name}", 1, "ctest-registration",
                    f"{name} is not referenced by {TESTS_CMAKE_REL}; a test "
                    "that ctest never runs enforces nothing -- register it "
                    "or delete it"))
    return findings + check_long_test_names(root, tests_dir)


def check_long_test_names(root: str, tests_dir: str) -> list[Finding]:
    """Every Suite.Case that long_tests.cmake gives a property must be a
    gtest case some tests/*.cpp defines: ctest applies the properties of
    a name that matches no test to nothing, without a word."""
    text = read_text(root, LONG_TESTS_REL)
    if text is None:
        return []
    defined = set()
    for name in os.listdir(tests_dir):
        if name.endswith((".cpp", ".cc")):
            source = read_text(root, f"{TESTS_DIR_REL}/{name}") or ""
            defined.update(f"{suite}.{case}"
                           for suite, case in GTEST_CASE_RE.findall(source))
    code = re.sub(r"#[^\n]*", "", text)  # comments keep their newlines
    findings = []
    for call in SET_TESTS_PROPERTIES_RE.finditer(code):
        for case in CASE_NAME_RE.finditer(call.group(1)):
            if case.group() in defined:
                continue
            line = code.count("\n", 0, call.start(1) + case.start()) + 1
            findings.append(
                Finding(
                    LONG_TESTS_REL, line, "ctest-registration",
                    f"{case.group()} is defined by no TEST/TEST_F/TEST_P "
                    f"in {TESTS_DIR_REL}/*.cpp; ctest gives the properties "
                    "of a test that does not exist to nothing, so a "
                    "renamed long test quietly loses its COST -- rename "
                    "it here too"))
    return findings


# --- scenario library --------------------------------------------------------


def check_scenario_registry(root: str, reg: dict) -> list[Finding]:
    """Every shipped scenarios/*.json must load (pure python json: a file
    the C++ parser would need to accept), carry a unique name that matches
    its filename, and appear in the generated README scenario table. A
    repo without a scenarios/ directory is simply out of scope."""
    findings = []
    names: dict[str, str] = {}
    for relpath, doc in scenario_docs(root):
        if doc is None:
            findings.append(
                Finding(
                    relpath, 1, "scenario-registry",
                    "scenario file is not a JSON object; every shipped "
                    "scenario must parse (wheels_campaign --scenario would "
                    "reject it)"))
            continue
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            findings.append(
                Finding(
                    relpath, 1, "scenario-registry",
                    'scenario file lacks a non-empty "name" string'))
            continue
        stem = os.path.basename(relpath)[:-len(".json")]
        if name != stem:
            findings.append(
                Finding(
                    relpath, 1, "scenario-registry",
                    f'scenario is named "{name}" but lives in {stem}.json; '
                    "the filename stem and the name must agree so "
                    "--scenario NAME and --scenario PATH load the same "
                    "world"))
        if name in names:
            findings.append(
                Finding(
                    relpath, 1, "scenario-registry",
                    f'scenario name "{name}" is already taken by '
                    f"{names[name]}; names key the dataset cache and must "
                    "be unique"))
        else:
            names[name] = relpath
    tables = reg.get("generated", {}).get("readme_tables", [])
    if not names or "contract-scenario-table" not in tables:
        return findings
    text = read_text(root, README_REL)
    if text is None:
        return findings
    lines = text.splitlines()
    begin = table_marker("contract-scenario-table", "begin")
    end = table_marker("contract-scenario-table", "end")
    try:
        b, e = lines.index(begin), lines.index(end)
    except ValueError:
        return findings  # missing markers are doc-drift's finding
    block = "\n".join(lines[b:e])
    for name, relpath in sorted(names.items()):
        if f"`{name}`" not in block:
            findings.append(
                Finding(
                    README_REL, b + 1, "scenario-registry",
                    f'scenario "{name}" ({relpath}) is missing from the '
                    "README scenario table; run tools/wheels_contract.py "
                    "--fix-docs"))
    return findings


# --- driver ------------------------------------------------------------------


def add_arguments(parser) -> None:
    parser.add_argument("--fix-docs", action="store_true",
                        help="regenerate the README tables from the "
                        "registry and exit")
    parser.add_argument("--fix-pins", action="store_true",
                        help="regenerate the pins header from the registry "
                        "and exit")


def fix(args, root: str, reg: dict) -> int:
    if args.fix_pins:
        pins_rel = reg.get("generated", {}).get("pins_header")
        if not pins_rel:
            print("wheels-contract: registry declares no "
                  "generated.pins_header", file=sys.stderr)
            return 2
        with open(os.path.join(root, pins_rel), "w", encoding="utf-8") as f:
            f.write(render_pins_header(reg))
        print(f"wheels-contract: wrote {pins_rel}")
    if args.fix_docs:
        fixed = fix_docs(root, reg)
        for name in fixed:
            print(f"wheels-contract: regenerated {name} in {README_REL}")
        missing = [
            t for t in reg.get("generated", {}).get("readme_tables", [])
            if t not in fixed
        ]
        for name in missing:
            print(f"wheels-contract: {README_REL} has no markers for "
                  f"{name}; add {table_marker(name, 'begin')} / "
                  f"{table_marker(name, 'end')} first", file=sys.stderr)
        if missing:
            return 2
    return 0


def run(args) -> Report | int:
    root = args.root
    reg_text = read_text(root, REGISTRY_REL)
    if reg_text is None:
        print(f"wheels-contract: cannot read {REGISTRY_REL} under {root}",
              file=sys.stderr)
        return 2
    try:
        reg = json.loads(reg_text)
    except json.JSONDecodeError as exc:
        print(f"wheels-contract: {REGISTRY_REL} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2

    if args.fix_pins or args.fix_docs:
        return fix(args, root, reg)

    cpp_files = gather_files(root, CPP_SCAN_DIRS)

    findings = check_registry(reg, REGISTRY_REL, reg_text)
    registry_broken = bool(findings)
    findings += check_dataset_pins(root, reg, REGISTRY_REL, reg_text)
    findings += check_printer_digests(root, reg, REGISTRY_REL, reg_text)
    findings += check_work_counts(root, reg, REGISTRY_REL, reg_text)
    if not registry_broken:
        findings += check_schema_pin(root, reg)
        findings += check_golden_pin(root, reg, cpp_files)
        findings += check_pins_stale(root, reg)
        findings += check_env(root, reg, reg_text, cpp_files)
        findings += check_doc_tables(root, reg)
        findings += check_cli(root, reg, reg_text)
        findings += check_spans(root, reg, reg_text, cpp_files)
        findings += check_ci_stages(root, reg, reg_text)
        findings += check_ctest_registration(root)
        findings += check_scenario_registry(root, reg)

    files_scanned = len(cpp_files) + len(scenario_docs(root)) + sum(
        1 for doc in DOC_SCAN if os.path.exists(os.path.join(root, doc)))
    return Report(findings, files_scanned,
                  f"{files_scanned} files cross-checked against "
                  "tools/contracts.json")


def main(argv: list[str]) -> int:
    return wheels_check.main(argv, tool="wheels-contract", doc=__doc__,
                             rules=RULES, run=run,
                             add_arguments=add_arguments)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
