#!/usr/bin/env bash
# CI entry point for the static-analysis & dynamic-checking gates.
#
# Stages (each independently skippable via env toggles, all default ON):
#   1. wheels-lint       determinism/hygiene linter + its own rule tests
#   2. wheels-arch       include-graph architecture analyzer (layer DAG,
#                        cycles, orphan headers) + its own rule tests
#   3. wheels-contract   cross-artifact determinism-pin analyzer
#                        (tools/contracts.json vs code, tests, docs, CI)
#                        + its own rule tests
#   4. wheels-rng        whole-program RNG fork-graph analyzer (collisions,
#                        by-value stream copies, pinned-graph drift) + its
#                        rule tests; outside --quick also generates the
#                        stride-64 campaign at jobs=1 and jobs=4 with the
#                        runtime audit armed and cross-checks both JSONL
#                        fork trees against the static graph
#   5. dataset CLI       wheels_campaign smoke (argument validation, info
#                        on an empty cache; no simulation)
#   6. scenario smoke    the scenario library loads (list-scenarios), one
#                        non-default scenario generates at a sparse
#                        stride, unknown scenario names are rejected
#   7. trace validation  stride-64 bench with WHEELS_TRACE into a fresh
#                        cache dir; the emitted Chrome trace must parse,
#                        nest monotonically per thread and cover the
#                        registry's required_span_prefixes
#                        (tools/validate_trace.py --contracts)
#   8. header selfcheck  one synthetic TU per src/**/*.h compiled under
#                        the werror flag set (header self-sufficiency)
#   9. werror build      expanded warning set promoted to errors
#  10. asan-ubsan build  full ctest suite under ASan+UBSan, zero reports
#  11. tsan-parallel     thread-pool + determinism tests with WHEELS_JOBS=4
#                        under ThreadSanitizer (the parallel replay path)
#  12. clang-tidy        only when clang-tidy is installed (optional
#                        stage); consumes build/compile_commands.json
#                        exported by the default preset so local and CI
#                        invocations analyze identical command lines
#  13. gcc-fanalyzer     only when the toolchain's g++ accepts -fanalyzer
#                        on C++ (optional stage); path-sensitive analysis
#                        over src/core/ with the default include dirs
#  14. serve smoke       wheels_served on a scratch socket driven by
#                        wheels_loadgen (malformed-frame probes, cold/herd/
#                        hot phases, single-flight counters, clean shutdown)
#
# Usage: tools/run_static_analysis.sh [--quick]
#   --quick     skip the sanitizer ctest runs (stages 10-11) and the
#               rng audit cross-check portion of stage 4
#
# Env toggles: WHEELS_CI_LINT=0, WHEELS_CI_ARCH=0, WHEELS_CI_CONTRACT=0,
#              WHEELS_CI_RNG=0, WHEELS_CI_DATASET=0, WHEELS_CI_SCENARIO=0,
#              WHEELS_CI_TRACE=0, WHEELS_CI_HEADERS=0, WHEELS_CI_WERROR=0,
#              WHEELS_CI_SANITIZE=0, WHEELS_CI_TSAN=0, WHEELS_CI_TIDY=0,
#              WHEELS_CI_FANALYZER=0, WHEELS_CI_SERVE=0, WHEELS_CI_JOBS=<n>
# Test hooks:  WHEELS_CI_LINT_ROOT=<dir> lints that tree instead of the
#              repo, WHEELS_CI_CONTRACT_ROOT=<dir> likewise for the
#              contract check, WHEELS_CI_RNG_ROOT=<dir> likewise for the
#              RNG provenance check (which then also skips the audit
#              cross-check; used by tests/test_ci_driver.py to inject
#              known failures without touching the real sources).
# The stage list, toggles and --quick membership are themselves pinned in
# tools/contracts.json; the ci-stage rule fails when this file and the
# registry disagree.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="${WHEELS_CI_JOBS:-$(nproc)}"
FAILURES=0

banner() { printf '\n=== %s ===\n' "$1"; }

# --- Stage 1: determinism linter -------------------------------------------
if [[ "${WHEELS_CI_LINT:-1}" == 1 ]]; then
  banner "wheels-lint: rule self-tests"
  python3 tests/test_lint_rules.py || FAILURES=$((FAILURES + 1))
  banner "wheels-lint: full repo"
  python3 tools/wheels_lint.py --root "${WHEELS_CI_LINT_ROOT:-$ROOT}" \
    || FAILURES=$((FAILURES + 1))
fi

# --- Stage 2: architecture analyzer ----------------------------------------
# Layer-DAG conformance against tools/layers.json, include-cycle freedom
# and orphan-header detection, preceded by the analyzer's fixture tests.
if [[ "${WHEELS_CI_ARCH:-1}" == 1 ]]; then
  banner "wheels-arch: rule self-tests"
  python3 tests/test_arch_rules.py || FAILURES=$((FAILURES + 1))
  banner "wheels-arch: full repo"
  python3 tools/wheels_arch.py --root "$ROOT" || FAILURES=$((FAILURES + 1))
fi

# --- Stage 3: contract analyzer --------------------------------------------
# Cross-checks the determinism-pin registry (tools/contracts.json) against
# every artifact that spells a pin: golden/schema literals, WHEELS_* env
# vars, obs name prefixes, CLI flags, ctest registration, the generated
# pins header and README tables, and this driver's own stage list.
if [[ "${WHEELS_CI_CONTRACT:-1}" == 1 ]]; then
  banner "wheels-contract: rule self-tests"
  python3 tests/test_contract_rules.py || FAILURES=$((FAILURES + 1))
  banner "wheels-contract: full repo"
  python3 tools/wheels_contract.py \
    --root "${WHEELS_CI_CONTRACT_ROOT:-$ROOT}" \
    || FAILURES=$((FAILURES + 1))
fi

# --- Stage 4: RNG provenance -------------------------------------------------
# Whole-program fork-graph rules (fork-collision, rng-by-value,
# draw-in-unordered, unlabeled-fork, fork-graph-drift against the pinned
# tools/rng_graph.json), preceded by the analyzer's fixture tests.
# Outside --quick, additionally generates the seed-42 stride-64 datasets
# (campaign, static baselines, app campaign and app baselines) twice
# (jobs=1 and jobs=4, cold caches) with the runtime audit armed and
# cross-checks both JSONL fork trees: every runtime edge must exist in
# the static graph, zero provenance conflicts, and per-stream draw counts
# must be identical across the two jobs values.
if [[ "${WHEELS_CI_RNG:-1}" == 1 ]]; then
  banner "wheels-rng: rule self-tests"
  python3 tests/test_rng_rules.py || FAILURES=$((FAILURES + 1))
  banner "wheels-rng: full repo"
  python3 tools/wheels_rng.py --root "${WHEELS_CI_RNG_ROOT:-$ROOT}" \
    || FAILURES=$((FAILURES + 1))
  if [[ "$QUICK" == 0 && -z "${WHEELS_CI_RNG_ROOT:-}" ]]; then
    banner "wheels-rng: runtime audit cross-check (jobs=1 vs jobs=4)"
    cmake --preset default >/dev/null
    if cmake --build --preset default -j "$JOBS" --target wheels_campaign; then
      CLI=build/tools/wheels_campaign
      RNG_DIR=build/ci-rng-audit
      rm -rf "$RNG_DIR" && mkdir -p "$RNG_DIR"
      RNG_OK=1
      for J in 1 4; do
        WHEELS_DATASET_DIR="$RNG_DIR/cache-$J" \
        WHEELS_RNG_AUDIT_OUT="$RNG_DIR/trace-$J.jsonl" \
          "$CLI" generate --stride 64 --apps-stride 64 --jobs "$J" \
          --dir "$RNG_DIR/cache-$J" >/dev/null || RNG_OK=0
      done
      if [[ "$RNG_OK" == 1 ]]; then
        python3 tools/wheels_rng.py --root "$ROOT" \
          --check-trace "$RNG_DIR/trace-1.jsonl" "$RNG_DIR/trace-4.jsonl" \
          || RNG_OK=0
      fi
      rm -rf "$RNG_DIR"
      if [[ "$RNG_OK" == 1 ]]; then
        echo "rng audit cross-check: OK"
      else
        echo "rng audit cross-check FAILED"
        FAILURES=$((FAILURES + 1))
      fi
    else
      FAILURES=$((FAILURES + 1))
    fi
  fi
fi

# --- Stage 5: dataset CLI smoke --------------------------------------------
# Builds wheels_campaign and checks the argument/exit-code contract without
# running a simulation: `info` on an empty cache succeeds, malformed input
# and unknown subcommands must exit non-zero.
if [[ "${WHEELS_CI_DATASET:-1}" == 1 ]]; then
  banner "wheels_campaign CLI smoke"
  cmake --preset default >/dev/null
  if cmake --build --preset default -j "$JOBS" --target wheels_campaign; then
    CLI=build/tools/wheels_campaign
    SMOKE_DIR=build/cli-smoke-cache
    rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
    CLI_OK=1
    "$CLI" --help >/dev/null || CLI_OK=0
    "$CLI" info --dir "$SMOKE_DIR" >/dev/null || CLI_OK=0
    if "$CLI" generate --stride abc --dir "$SMOKE_DIR" 2>/dev/null; then
      CLI_OK=0  # malformed stride must be rejected
    fi
    if "$CLI" bogus-subcommand 2>/dev/null; then
      CLI_OK=0  # unknown subcommand must be rejected
    fi
    rm -rf "$SMOKE_DIR"
    if [[ "$CLI_OK" == 1 ]]; then
      echo "wheels_campaign CLI: OK"
    else
      echo "wheels_campaign CLI smoke FAILED"
      FAILURES=$((FAILURES + 1))
    fi
  else
    FAILURES=$((FAILURES + 1))
  fi
fi

# --- Stage 6: scenario smoke -------------------------------------------------
# The declarative scenario library must stay loadable and runnable end to
# end: list-scenarios prints every built-in, and one non-default scenario
# generates into a scratch cache at a sparse stride (a real simulation,
# seconds-scale). Unknown scenario names must be rejected.
if [[ "${WHEELS_CI_SCENARIO:-1}" == 1 ]]; then
  banner "scenario smoke (list-scenarios + urban-loop generate)"
  cmake --preset default >/dev/null
  if cmake --build --preset default -j "$JOBS" --target wheels_campaign; then
    CLI=build/tools/wheels_campaign
    SCEN_DIR=build/ci-scenario-cache
    rm -rf "$SCEN_DIR" && mkdir -p "$SCEN_DIR"
    SCEN_OK=1
    "$CLI" list-scenarios >/dev/null || SCEN_OK=0
    "$CLI" generate --scenario urban-loop --stride 64 \
        --skip-apps --skip-static --dir "$SCEN_DIR" >/dev/null || SCEN_OK=0
    if "$CLI" generate --scenario no-such-scenario --dir "$SCEN_DIR" \
        2>/dev/null; then
      SCEN_OK=0  # unknown scenario names must be rejected
    fi
    rm -rf "$SCEN_DIR"
    if [[ "$SCEN_OK" == 1 ]]; then
      echo "scenario smoke: OK"
    else
      echo "scenario smoke FAILED"
      FAILURES=$((FAILURES + 1))
    fi
  else
    FAILURES=$((FAILURES + 1))
  fi
fi

# --- Stage 7: trace validation ---------------------------------------------
# Generates every dataset of a short library scenario cold at stride 64
# and jobs=2 with --trace armed and checks the exported Chrome trace_event
# file: parseable JSON, spans nest monotonically within each thread lane,
# and every phase the contract registry's required_span_prefixes names
# (drive replay, app phones, per-city baselines, cache) actually shows up.
# Catches exporter regressions that the unit tests' synthetic clocks
# cannot.
if [[ "${WHEELS_CI_TRACE:-1}" == 1 ]]; then
  banner "trace validation (stride-64 generate with --trace)"
  cmake --preset default >/dev/null
  if cmake --build --preset default -j "$JOBS" --target wheels_campaign; then
    TRACE_DIR=build/ci-trace
    rm -rf "$TRACE_DIR" && mkdir -p "$TRACE_DIR"
    TRACE_OK=1
    build/tools/wheels_campaign generate --scenario eu-band-plan \
      --stride 64 --apps-stride 64 --jobs 2 --dir "$TRACE_DIR/cache" \
      --trace "$TRACE_DIR/trace.json" >/dev/null \
      || TRACE_OK=0
    if [[ "$TRACE_OK" == 1 ]]; then
      python3 tools/validate_trace.py "$TRACE_DIR/trace.json" \
        --contracts tools/contracts.json \
        || TRACE_OK=0
    fi
    rm -rf "$TRACE_DIR"
    if [[ "$TRACE_OK" == 1 ]]; then
      echo "trace validation: OK"
    else
      echo "trace validation FAILED"
      FAILURES=$((FAILURES + 1))
    fi
  else
    FAILURES=$((FAILURES + 1))
  fi
fi

# --- Stage 8: header self-sufficiency --------------------------------------
# cmake/HeaderSelfCheck.cmake generates one `#include "<header>"` TU per
# public header; compiling the target proves every header stands alone
# under -Werror -Wconversion -Wshadow -Wdouble-promotion -Wold-style-cast.
if [[ "${WHEELS_CI_HEADERS:-1}" == 1 ]]; then
  banner "header self-sufficiency (header_selfcheck)"
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS" --target header_selfcheck \
    || FAILURES=$((FAILURES + 1))
fi

# --- Stage 9: warnings-as-errors build -------------------------------------
if [[ "${WHEELS_CI_WERROR:-1}" == 1 ]]; then
  banner "werror build (-Werror -Wconversion -Wshadow -Wdouble-promotion -Wold-style-cast)"
  cmake --preset werror >/dev/null
  cmake --build --preset werror -j "$JOBS" || FAILURES=$((FAILURES + 1))
fi

# --- Stage 10: sanitizer-clean test suite -----------------------------------
if [[ "$QUICK" == 0 && "${WHEELS_CI_SANITIZE:-1}" == 1 ]]; then
  banner "asan-ubsan build + ctest"
  cmake --preset asan-ubsan >/dev/null
  cmake --build --preset asan-ubsan -j "$JOBS" || FAILURES=$((FAILURES + 1))
  # halt_on_error + exitcode make any report fail the suite; UBSan is
  # additionally built no-recover so it traps at the first finding.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:exitcode=99" \
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --preset asan-ubsan || FAILURES=$((FAILURES + 1))
fi

# --- Stage 11: tsan over the parallel campaign path -------------------------
# The deterministic parallel engine's data-race gate: thread-pool unit
# tests plus the jobs=1 == jobs=4 determinism proofs, all with
# WHEELS_JOBS=4 (set by the tsan-parallel test preset) so every pool and
# replay worker actually spawns.
if [[ "$QUICK" == 0 && "${WHEELS_CI_TSAN:-1}" == 1 ]]; then
  banner "tsan-parallel build + ctest (WHEELS_JOBS=4)"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$JOBS" || FAILURES=$((FAILURES + 1))
  TSAN_OPTIONS="halt_on_error=1:exitcode=99" \
    ctest --preset tsan-parallel || FAILURES=$((FAILURES + 1))
fi

# --- Stage 12: clang-tidy (best effort: optional in the container) ----------
# Every preset exports CMAKE_EXPORT_COMPILE_COMMANDS, so clang-tidy reads
# the exact flags the build used; the file list comes from the database
# itself rather than an ad-hoc find.
if [[ "${WHEELS_CI_TIDY:-1}" == 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    banner "clang-tidy (compile_commands.json)"
    cmake --preset default >/dev/null
    if [[ -f build/compile_commands.json ]]; then
      mapfile -t TIDY_SRCS < <(python3 -c '
import json
entries = json.load(open("build/compile_commands.json"))
files = sorted({e["file"] for e in entries if "/src/" in e["file"]})
print("\n".join(files))
')
      clang-tidy -p build --quiet "${TIDY_SRCS[@]}" \
        || FAILURES=$((FAILURES + 1))
    else
      echo "build/compile_commands.json missing despite preset export" >&2
      FAILURES=$((FAILURES + 1))
    fi
  else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
  fi
fi

# --- Stage 13: gcc -fanalyzer (best effort: support varies by toolchain) ----
# GCC's path-sensitive analyzer (-fanalyzer) is experimental for C++, so
# this stage first probes whether the installed g++ accepts it on a C++
# TU and skips with a notice when it does not. It runs over src/core/
# only: the deterministic substrate (rng, thread pool, statistics) is
# where a leak or null-deref found by symbolic execution would poison
# everything above it.
if [[ "${WHEELS_CI_FANALYZER:-1}" == 1 ]]; then
  if command -v g++ >/dev/null 2>&1 \
      && echo 'int main(){}' | g++ -x c++ -fanalyzer -c -o /dev/null - \
           >/dev/null 2>&1; then
    banner "gcc -fanalyzer (src/core)"
    FANALYZER_OK=1
    for f in src/core/*.cpp; do
      g++ -std=c++20 -fanalyzer -Isrc -c -o /dev/null "$f" \
        || FANALYZER_OK=0
    done
    if [[ "$FANALYZER_OK" == 1 ]]; then
      echo "gcc -fanalyzer: OK"
    else
      echo "gcc -fanalyzer FAILED"
      FAILURES=$((FAILURES + 1))
    fi
  else
    echo "g++ -fanalyzer unsupported on this toolchain; skipping"
  fi
fi

# --- Stage 14: serve smoke ---------------------------------------------------
# End-to-end exercise of the campaign query daemon: wheels_served on a
# scratch socket, driven by the load generator's scripted schedule
# (malformed-frame probes, a cold miss, an 8-client herd on one cold
# fingerprint, a warm-cache hot phase). The loadgen exits non-zero unless
# the typed error responses arrive, single-flight simulated exactly once
# with every waiter joining, and all herd responses were byte-identical;
# the daemon must then shut down cleanly on request.
if [[ "${WHEELS_CI_SERVE:-1}" == 1 ]]; then
  banner "serve smoke (daemon + scripted loadgen)"
  cmake --preset default >/dev/null
  if cmake --build --preset default -j "$JOBS" --target wheels_served wheels_loadgen; then
    SERVE_DIR="build/ci-serve"
    rm -rf "$SERVE_DIR" && mkdir -p "$SERVE_DIR"
    SERVE_OK=1
    ./build/tools/wheels_served --socket "$SERVE_DIR/served.sock" \
      --dir "$SERVE_DIR/cache" &
    SERVED_PID=$!
    for _ in $(seq 1 100); do
      [[ -S "$SERVE_DIR/served.sock" ]] && break
      sleep 0.1
    done
    if [[ -S "$SERVE_DIR/served.sock" ]]; then
      ./build/tools/wheels_loadgen --socket "$SERVE_DIR/served.sock" \
        --scenario urban-loop --stride 64 --clients 8 --requests 10 \
        --probe --shutdown --out "$SERVE_DIR/bench.json" || SERVE_OK=0
      cat "$SERVE_DIR/bench.json" 2>/dev/null || true
    else
      echo "serve smoke: daemon socket never appeared" >&2
      SERVE_OK=0
      kill "$SERVED_PID" 2>/dev/null || true
    fi
    if ! wait "$SERVED_PID"; then
      echo "serve smoke: daemon did not shut down cleanly" >&2
      SERVE_OK=0
    fi
    rm -rf "$SERVE_DIR"
    [[ "$SERVE_OK" == 1 ]] || FAILURES=$((FAILURES + 1))
  else
    FAILURES=$((FAILURES + 1))
  fi
fi

banner "summary"
if [[ "$FAILURES" -gt 0 ]]; then
  echo "static analysis FAILED: $FAILURES stage(s) reported problems"
  exit 1
fi
echo "static analysis OK"
