#!/usr/bin/env bash
# CI entry point for the static-analysis & dynamic-checking gates.
#
# The stage roster -- ids, names, order and --quick membership -- is
# tools/contracts.json `ci_stages` (rendered as the README gates table).
# This script runs it: for each selected stage it calls stage_<id>, with
# dashes written as underscores, in a subshell under `set -e`, so a stage
# stops at its first failing command and the later stages still run. The
# ci-stage contract rule keeps the stage_* functions and the registry ids
# one to one.
#
# Usage: tools/run_static_analysis.sh [--quick]
#   --quick     run only the stages the registry marks quick: true
#
# Env: WHEELS_CI_SKIP=<id,...>  stages not to run (an unknown id exits 2)
#      WHEELS_CI_STUB=<cmd>     test hook: run `<cmd> <id>` in place of
#                               each selected stage's body
#      WHEELS_CI_JOBS=<n>       build parallelism (default: nproc)
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

banner() { printf '\n=== %s ===\n' "$1"; }

# build <preset> [targets...]: configure, then build the targets (or all).
build() {
  local preset=$1
  shift
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS" ${1:+--target} "$@"
}

# fails <command...>: succeeds only when the command is rejected.
fails() { ! "$@" 2>/dev/null; }

# --- stage bodies: one stage_<id> per registry stage -----------------------

stage_selftests() {
  python3 tests/test_lint_rules.py
  python3 tests/test_arch_rules.py
  python3 tests/test_contract_rules.py
  python3 tests/test_rng_rules.py
  python3 tests/test_reach_rules.py
}

stage_lint() { python3 tools/wheels_lint.py --root "$ROOT"; }

# Layer-DAG conformance against tools/layers.json, include-cycle freedom
# and orphan-header detection.
stage_arch() { python3 tools/wheels_arch.py --root "$ROOT"; }

# The determinism-pin registry (tools/contracts.json) against every
# artifact that spells a pin, this driver's stage functions included.
stage_contract() { python3 tools/wheels_contract.py --root "$ROOT"; }

# Whole-program fork-graph rules against the pinned tools/rng_graph.json.
stage_rng() { python3 tools/wheels_rng.py --root "$ROOT"; }

# Generates the seed-42 stride-64 datasets (campaign, static baselines,
# app campaign and app baselines) twice, at jobs=1 and jobs=4 into cold
# caches, with the runtime audit armed, and cross-checks both JSONL fork
# trees: every runtime edge must exist in the static graph, zero
# provenance conflicts, and identical per-stream draw counts.
stage_rng_audit() {
  build default wheels_campaign
  local dir=build/ci-rng-audit
  rm -rf "$dir" && mkdir -p "$dir"
  for j in 1 4; do
    WHEELS_DATASET_DIR="$dir/cache-$j" \
    WHEELS_RNG_AUDIT_OUT="$dir/trace-$j.jsonl" \
      build/tools/wheels_campaign generate --stride 64 --apps-stride 64 \
      --jobs "$j" --dir "$dir/cache-$j" >/dev/null
  done
  python3 tools/wheels_rng.py --root "$ROOT" \
    --check-trace "$dir/trace-1.jsonl" "$dir/trace-4.jsonl"
  rm -rf "$dir"
}

# The argument/exit-code contract of wheels_campaign, without a
# simulation: `info` on an empty cache succeeds, malformed or
# out-of-range input and unknown subcommands are rejected.
stage_cli() {
  build default wheels_campaign
  local cli=build/tools/wheels_campaign dir=build/cli-smoke-cache
  rm -rf "$dir" && mkdir -p "$dir"
  "$cli" --help >/dev/null
  "$cli" info --dir "$dir" >/dev/null
  fails "$cli" generate --stride abc --dir "$dir"
  fails "$cli" info --stride 4294967297 --dir "$dir"
  fails "$cli" bogus-subcommand
  rm -rf "$dir"
}

# The scenario library lists, one non-default scenario generates into a
# scratch cache at a sparse stride (a real simulation, seconds-scale),
# and unknown scenario names are rejected.
stage_scenario() {
  build default wheels_campaign
  local cli=build/tools/wheels_campaign dir=build/ci-scenario-cache
  rm -rf "$dir" && mkdir -p "$dir"
  "$cli" list-scenarios >/dev/null
  "$cli" generate --scenario urban-loop --stride 64 \
    --skip-apps --skip-static --dir "$dir" >/dev/null
  fails "$cli" generate --scenario no-such-scenario --dir "$dir"
  rm -rf "$dir"
}

# Every dataset of a short library scenario, generated cold at stride 64
# and jobs=2 with --trace armed. The Chrome trace must parse, nest
# monotonically within each thread lane, and show every phase the
# registry's required_span_prefixes names -- exporter regressions the
# unit tests' synthetic clocks cannot catch.
stage_trace() {
  build default wheels_campaign
  local dir=build/ci-trace
  rm -rf "$dir" && mkdir -p "$dir"
  build/tools/wheels_campaign generate --scenario eu-band-plan \
    --stride 64 --apps-stride 64 --jobs 2 --dir "$dir/cache" \
    --trace "$dir/trace.json" >/dev/null
  python3 tools/validate_trace.py "$dir/trace.json" \
    --contracts tools/contracts.json
  rm -rf "$dir"
}

# cmake/HeaderSelfCheck.cmake generates one `#include "<header>"` TU per
# public header; compiling the target proves every header stands alone
# under -Werror -Wconversion -Wshadow -Wdouble-promotion -Wold-style-cast.
stage_headers() { build default header_selfcheck; }

stage_werror() { build werror; }

# Code only tests reach. The shipped programs -- the tools, bench/, the
# examples and perfbench's own, unmodified project -- are built at -O0
# with -ffunction-sections and linked with --gc-sections, so nothing is
# inlined away and a function no program can call is dropped from every
# binary. tools/wheels_reach.py then fails on any non-inline src/ function
# none of them holds, unless the registry's reach_allow lists it as a
# test seam.
stage_reach() {
  local dir=build/ci-reach f
  local flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
    -DCMAKE_CXX_FLAGS=-ffunction-sections
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
  local targets=(wheels_campaign wheels_served wheels_loadgen)
  for f in bench/bench_*.cpp examples/*.cpp; do
    targets+=("$(basename "$f" .cpp)")
  done
  cmake -S . -B "$dir/main" "${flags[@]}" >/dev/null
  cmake --build "$dir/main" -j "$JOBS" --target "${targets[@]}" >/dev/null
  cmake -S perfbench -B "$dir/perfbench" "${flags[@]}" >/dev/null
  cmake --build "$dir/perfbench" -j "$JOBS" >/dev/null
  python3 tools/wheels_reach.py --libs "$dir/main/src" \
    --bins "$dir/main/tools" "$dir/main/bench" "$dir/main/examples" \
    "$dir/perfbench" "$dir/perfbench/printers"
}

stage_asan() {
  build asan-ubsan
  # halt_on_error + exitcode make any report fail the suite; UBSan is
  # additionally built no-recover so it traps at the first finding.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:exitcode=99" \
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --preset asan-ubsan
}

# The parallel engine's data-race gate: thread-pool unit tests plus the
# jobs=1 == jobs=4 determinism proofs, with WHEELS_JOBS=4 (set by the
# tsan-parallel test preset) so every pool and replay worker spawns.
stage_tsan() {
  build tsan
  TSAN_OPTIONS="halt_on_error=1:exitcode=99" ctest --preset tsan-parallel
}

# Optional: runs when clang-tidy is installed. Every preset exports
# compile_commands.json, so clang-tidy reads the exact flags the build
# used, and the file list comes from that database.
stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
    return 0
  fi
  cmake --preset default >/dev/null
  local srcs
  mapfile -t srcs < <(python3 -c '
import json
entries = json.load(open("build/compile_commands.json"))
print("\n".join(sorted({e["file"] for e in entries if "/src/" in e["file"]})))
')
  clang-tidy -p build --quiet "${srcs[@]}"
}

# Optional: GCC's path-sensitive analyzer is experimental for C++, so the
# stage first probes whether g++ accepts -fanalyzer on a C++ TU. It runs
# over src/core/ only, one g++ per file and $JOBS at a time: the
# deterministic substrate (rng, thread pool, statistics), where a leak or
# null-deref would poison everything above. Every analyzer warning is an
# error, so a finding fails the stage; a false positive is silenced at its
# source (Rng's zeroed state words), never by a flag.
stage_fanalyzer() {
  if ! echo 'int main(){}' | g++ -x c++ -fanalyzer -c -o /dev/null - \
      >/dev/null 2>&1; then
    echo "g++ -fanalyzer unsupported on this toolchain; skipping"
    return 0
  fi
  printf '%s\0' src/core/*.cpp | xargs -0 -n 1 -P "$JOBS" \
    g++ -std=c++20 -fanalyzer -Werror -Isrc -c -o /dev/null
}

# wheels_served on a scratch socket, driven by the load generator's
# scripted schedule (malformed-frame probes, a cold miss, an 8-client
# herd on one cold fingerprint, a warm-cache hot phase). The loadgen
# exits non-zero unless the typed error responses arrive, single-flight
# simulated exactly once with every waiter joining, and all herd
# responses were byte-identical; the daemon must then shut down cleanly.
stage_serve() {
  build default wheels_served wheels_loadgen
  local dir=build/ci-serve
  rm -rf "$dir" && mkdir -p "$dir"
  build/tools/wheels_served --socket "$dir/served.sock" \
    --dir "$dir/cache" &
  SERVED_PID=$!
  trap 'kill "$SERVED_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    [[ -S "$dir/served.sock" ]] && break
    sleep 0.1
  done
  build/tools/wheels_loadgen --socket "$dir/served.sock" \
    --scenario urban-loop --stride 64 --clients 8 --requests 10 \
    --probe --shutdown --out "$dir/bench.json"
  cat "$dir/bench.json"
  wait "$SERVED_PID"
  rm -rf "$dir"
}

# --- the roster loop -------------------------------------------------------

ROSTER_TSV="$(python3 -c '
import json
for s in json.load(open("tools/contracts.json"))["ci_stages"]:
    print(s["id"], int(s["quick"]), s["name"], sep="\t")
')"
mapfile -t ROSTER <<<"$ROSTER_TSV"
IDS=" ${ROSTER[*]%%$'\t'*} "

IFS=, read -ra SKIP <<<"${WHEELS_CI_SKIP:-}"
for id in "${SKIP[@]}"; do
  if [[ "$IDS" != *" $id "* ]]; then
    echo "unknown stage id in WHEELS_CI_SKIP: '$id' (stages:$IDS)" >&2
    exit 2
  fi
done

FAILURES=0
for entry in "${ROSTER[@]}"; do
  IFS=$'\t' read -r id quick name <<<"$entry"
  if [[ ",${WHEELS_CI_SKIP:-}," == *",$id,"* ]] \
      || [[ "$QUICK" == 1 && "$quick" == 0 ]]; then
    continue
  fi
  banner "$name"
  set +e
  if [[ -n "${WHEELS_CI_STUB:-}" ]]; then
    "$WHEELS_CI_STUB" "$id"
  else
    (set -e; "stage_${id//-/_}")
  fi
  status=$?
  set -e
  if [[ "$status" == 0 ]]; then
    echo "--- $id: OK"
  else
    echo "--- $id: FAILED (exit $status)"
    FAILURES=$((FAILURES + 1))
  fi
done

banner "summary"
if [[ "$FAILURES" -gt 0 ]]; then
  echo "static analysis FAILED: $FAILURES stage(s) reported problems"
  exit 1
fi
echo "static analysis OK"
