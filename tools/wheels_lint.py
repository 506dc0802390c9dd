#!/usr/bin/env python3
"""wheels-lint: repo-specific determinism and hygiene linter.

The reproduction's whole value is bit-for-bit regenerable figures: every
stochastic process forks from the campaign Rng, and every timestamp derives
from SimClock. No off-the-shelf checker knows that contract, so this tool
enforces it mechanically:

  banned-random     std::rand / time(nullptr) / std::random_device /
                    std::mt19937 / std::chrono::system_clock anywhere except
                    src/core/rng.* and src/core/sim_time.* (the two blessed
                    wrappers). Ambient entropy or wall clocks anywhere else
                    silently break regeneration.
  float-eq          direct ==/!= against floating-point literals in
                    src/analysis/ and src/radio/. Derived doubles must be
                    compared through approx_equal()/approx_zero() from
                    core/stats.h; bit-exact matches are latent porting bugs.
  unordered-iter    range-for iteration over a std::unordered_* container.
                    Iteration order is hash-seed and libstdc++-version
                    dependent, so anything it feeds (output tables, summed
                    floats) is nondeterministic. Iterate a sorted view or use
                    std::map.
  duplicate-fork    the same string-literal fork label used twice on the
                    same parent Rng in one scope. fork(label) is a pure
                    function of (parent state, label), so duplicated labels
                    yield bit-identical streams and silently correlate
                    processes that were meant to be independent.
  static-local      function-local `static` variables in src/ that are not
                    const/constexpr/constinit. Mutable magic statics are
                    lazily initialised on first use, which races when the
                    parallel campaign engine touches a module from several
                    workers at once; hoist to a namespace-scope constinit
                    object or pass explicit state instead.
  steady-clock      std::chrono::steady_clock::now() (or any
                    high_resolution_clock use) in src/ outside src/obs/.
                    Wall-clock measurement must flow through obs::now_ns()
                    (src/obs/clock.h) so tests can swap the source and so
                    timing never leaks into simulation output.
  pragma-once       every header must start its include guard with
                    #pragma once.
  include-hygiene   quoted includes in src/ must be module-qualified
                    ("core/rng.h", not "rng.h") so a file never silently
                    picks up a same-named header from its own directory.
  relative-include  parent-relative quoted includes (`#include "../..."`)
                    in src/. They bypass the module-qualified form the
                    layer manifest (tools/layers.json) keys on, so
                    wheels_arch.py could no longer attribute the edge to
                    a module; always spell the module name.
  fp-reassoc        floating-point reassociation hazards in src/:
                    std::reduce / std::transform_reduce (unspecified
                    summation order), fast-math / float_control /
                    FP_CONTRACT pragmas and attributes (contraction and
                    reassociation licenses), and std::accumulate over an
                    unordered container (hash-order summation). Addition
                    of doubles is not associative; any of these moves the
                    golden checksum between compilers, so the SIMD replay
                    rework must keep reductions ordered.
  format            clang-format --dry-run check (skipped with a notice when
                    clang-format is not installed).

Suppress a finding by putting `// wheels-lint: allow(<rule>)` on the same
line or the line directly above it.

Usage:
  tools/wheels_lint.py [--root DIR] [--no-format]
                       [--format text|json|sarif] [--list-rules]

The CLI, output formats and exit codes are the shared front end's
(tools/wheels_check.py); with --format=json or sarif the clang-format
notice goes to stderr.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

from wheels_check import (Finding, Report, RANGE_FOR_RE, collect_allows,
                          collect_unordered_names, drop_allowed,
                          gather_files, iterates_unordered,
                          strip_comments_and_strings)
import wheels_check

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")

# Files allowed to touch raw entropy / wall-clock primitives.
BANNED_RANDOM_ALLOWLIST = (
    "src/core/rng.h",
    "src/core/rng.cpp",
    "src/core/sim_time.h",
    "src/core/sim_time.cpp",
)

BANNED_RANDOM_TOKENS = (
    (re.compile(r"\bstd\s*::\s*rand\b"), "std::rand"),
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*mt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bstd\s*::\s*minstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bstd\s*::\s*default_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)"), "time(nullptr)"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*system_clock\b"),
     "std::chrono::system_clock"),
    (re.compile(r"\bstd\s*::\s*chrono\s*::\s*high_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
)

FLOAT_EQ_DIRS = ("src/analysis/", "src/radio/")
FLOAT_LITERAL = r"[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?[fF]?|\.[0-9]+(?:[eE][+-]?[0-9]+)?[fF]?|[0-9]+[eE][+-]?[0-9]+[fF]?"
FLOAT_EQ_RE = re.compile(
    r"(?<![<>=!&|+\-*/%^])(?:==|!=)\s*[+-]?(?:{lit})(?![\w.])"
    r"|(?:{lit})\s*(?:==|!=)(?![=])".format(lit=FLOAT_LITERAL))

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$", re.MULTILINE)

# `recv.fork("label")` / `recv->fork(7)` with a string-literal label or
# an integer-literal salt. Chained calls (`rng.fork(a).fork("b")`) and
# computed arguments (`rng.fork(city.name)`) deliberately do not match:
# only textually provable (receiver, literal) pairs are duplicates here;
# cross-scope and cross-TU collisions (including alias chains) are
# wheels_rng.py's fork-collision rule.
FORK_RE = re.compile(
    r"(?P<recv>\b\w+(?:(?:\.|->)\w+)*)\s*(?:\.|->)\s*fork\s*\(\s*"
    r'(?:"(?P<label>[^"]*)"'
    r"|(?P<salt>(?:0[xX][0-9a-fA-F']+|\d[\d']*)[uUlL]*))\s*\)")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

RULES = {
    "banned-random":
        "ambient entropy / wall-clock source outside core/rng, core/sim_time",
    "float-eq":
        "direct floating-point ==/!= in analysis or radio layers",
    "unordered-iter":
        "iteration over unordered container (nondeterministic order)",
    "duplicate-fork":
        "same literal rng fork label or integer salt twice on one parent "
        "in a scope (lexical check; whole-program collisions are "
        "wheels_rng.py fork-collision)",
    "static-local":
        "mutable function-local static in src/ (init races under the "
        "parallel campaign engine)",
    "steady-clock":
        "host monotonic clock read in src/ outside src/obs/ (use "
        "obs::now_ns())",
    "pragma-once":
        "header missing #pragma once",
    "include-hygiene":
        "quoted include is not module-qualified repo-relative",
    "relative-include":
        "parent-relative #include \"../...\" in src/ (defeats the layer "
        "manifest)",
    "fp-reassoc":
        "floating-point reassociation hazard in src/ (std::reduce, "
        "fast-math/FP_CONTRACT pragmas, accumulation over unordered "
        "containers)",
    "format":
        "clang-format --dry-run reported a diff",
}


def check_banned_random(relpath: str, lines: list[str]) -> list[Finding]:
    if relpath in BANNED_RANDOM_ALLOWLIST:
        return []
    findings = []
    for idx, line in enumerate(lines, start=1):
        for pattern, name in BANNED_RANDOM_TOKENS:
            if pattern.search(line):
                findings.append(
                    Finding(
                        relpath, idx, "banned-random",
                        f"{name} is banned: draw from the campaign Rng "
                        "(core/rng.h) or SimClock (core/sim_time.h) so runs "
                        "stay bit-for-bit reproducible"))
    return findings


def check_float_eq(relpath: str, lines: list[str]) -> list[Finding]:
    if not relpath.startswith(FLOAT_EQ_DIRS):
        return []
    findings = []
    for idx, line in enumerate(lines, start=1):
        if FLOAT_EQ_RE.search(line):
            findings.append(
                Finding(
                    relpath, idx, "float-eq",
                    "direct floating-point ==/!= comparison: use "
                    "approx_equal()/approx_zero() from core/stats.h"))
    return findings


def check_unordered_iter(relpath: str, lines: list[str]) -> list[Finding]:
    unordered_names = collect_unordered_names(lines)
    findings = []
    for idx, line in enumerate(lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        target = m.group(1).strip()
        if iterates_unordered(target, unordered_names):
            findings.append(
                Finding(
                    relpath, idx, "unordered-iter",
                    f"range-for over unordered container '{target}': "
                    "iteration order is hash-dependent; copy to a sorted "
                    "vector or use std::map before feeding output"))
    return findings


def check_duplicate_fork(relpath: str, text: str) -> list[Finding]:
    """`text` has comments blanked but string literals preserved. Walks the
    file once, tracking brace scopes and skipping literals, and reports any
    (scope, receiver, label) triple seen more than once."""
    matches = {m.start(): m for m in FORK_RE.finditer(text)}
    if not matches:
        return []
    findings = []
    seen: dict[tuple[int, str, str], int] = {}
    stack = [0]
    next_scope = 1
    line = 1
    i, n = 0, len(text)
    while i < n:
        if i in matches:
            m = matches[i]
            if m.group("label") is not None:
                arg = ("s", m.group("label"))
                shown = f'label "{m.group("label")}"'
            else:
                # Key on the numeric value so 0x7 and 7 (and digit-
                # separated spellings) collide like the salts they are.
                value = int(
                    m.group("salt").replace("'", "").rstrip("uUlL"), 0)
                arg = ("i", value)
                shown = f"salt {m.group('salt')}"
            key = (stack[-1], m.group("recv"), arg)
            if key in seen:
                findings.append(
                    Finding(
                        relpath, line, "duplicate-fork",
                        f"fork {shown} already used on "
                        f"'{m.group('recv')}' in this scope (line "
                        f"{seen[key]}): identical salts fork bit-identical "
                        "streams, correlating randomness that was meant to "
                        "be independent"))
            else:
                seen[key] = line
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c == '"':
            # Skip the literal so its contents neither open scopes nor
            # start new matches.
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    line += 1
                i += 1
            i += 1
        elif c == "{":
            stack.append(next_scope)
            next_scope += 1
            i += 1
        elif c == "}":
            if len(stack) > 1:
                stack.pop()
            i += 1
        else:
            i += 1
    return findings


STEADY_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*(?:steady_clock\s*::\s*now\s*\(|"
    r"high_resolution_clock\b)")


def check_steady_clock(relpath: str, lines: list[str]) -> list[Finding]:
    """src/obs/clock.cpp is the one blessed reader of the host monotonic
    clock; every other src/ file must measure through obs::now_ns() so the
    timestamp source stays swappable in tests (set_clock_for_testing) and
    wall-clock time cannot leak into simulation output."""
    if not relpath.startswith("src/") or relpath.startswith("src/obs/"):
        return []
    findings = []
    for idx, line in enumerate(lines, start=1):
        if STEADY_CLOCK_RE.search(line):
            findings.append(
                Finding(
                    relpath, idx, "steady-clock",
                    "direct host monotonic clock read: call obs::now_ns() "
                    "(src/obs/clock.h) instead so tests can swap the "
                    "timestamp source and timing stays out of simulation "
                    "output"))
    return findings


FP_REDUCE_RE = re.compile(r"\bstd\s*::\s*(transform_reduce|reduce)\b")
# fast-math licenses live in pragmas, attributes and _Pragma strings, so
# this scans the keep_strings variant of the text.
FP_FASTMATH_RE = re.compile(
    r"-ffast-math|\bfast-math\b|\bfast_math\b|"
    r"#\s*pragma\s+float_control\b|\bfloat_control\s*\(|"
    r"#\s*pragma\s+STDC\s+FP_CONTRACT\b|\bFP_CONTRACT\b")
FP_ACCUM_RE = re.compile(
    r"\bstd\s*::\s*accumulate\s*\(\s*([A-Za-z_]\w*)")


def check_fp_reassoc(relpath: str, lines: list[str],
                     lines_with_strings: list[str]) -> list[Finding]:
    """Floating-point addition is not associative: any construct that lets
    the compiler or library reassociate a reduction moves the golden
    checksum between toolchains. src/ must keep every accumulation in a
    specified order -- the guard rail the SIMD replay rework needs."""
    if not relpath.startswith("src/"):
        return []
    findings = []
    unordered_names = collect_unordered_names(lines)
    for idx, line in enumerate(lines, start=1):
        m = FP_REDUCE_RE.search(line)
        if m:
            findings.append(
                Finding(
                    relpath, idx, "fp-reassoc",
                    f"std::{m.group(1)} reduces in unspecified order, so "
                    "floating-point sums reassociate; use std::accumulate "
                    "(or an explicit loop) over an ordered range"))
        m = FP_ACCUM_RE.search(line)
        if m and m.group(1) in unordered_names:
            findings.append(
                Finding(
                    relpath, idx, "fp-reassoc",
                    f"std::accumulate over unordered container "
                    f"'{m.group(1)}': hash-order summation reassociates "
                    "floating-point addition; accumulate over a sorted "
                    "view instead"))
    for idx, line in enumerate(lines_with_strings, start=1):
        if FP_FASTMATH_RE.search(line):
            findings.append(
                Finding(
                    relpath, idx, "fp-reassoc",
                    "fast-math / FP contraction license: this permits the "
                    "compiler to reassociate and contract floating-point "
                    "math, breaking the bit-reproducibility the golden "
                    "checksum pins"))
    return findings


STATIC_RE = re.compile(r"\bstatic\b")
SCOPE_TYPE_RE = re.compile(r"\b(class|struct|union|enum|namespace)\b")
STATIC_EXEMPT_RE = re.compile(r"\b(const|constexpr|constinit)\b")


def check_static_local(relpath: str, text: str) -> list[Finding]:
    """`text` has comments and strings blanked. Walks brace scopes and
    classifies each opener as type/namespace scope, function scope, or a
    brace-init list (which inherits its parent); a `static` at function
    scope without const/constexpr/constinit is a mutable magic static."""
    if not relpath.startswith("src/"):
        return []
    matches = {m.start(): m for m in STATIC_RE.finditer(text)}
    if not matches:
        return []
    findings = []
    stack: list[str] = []  # resolved scope kinds: "type" | "func" | "other"
    chunk_start = 0  # start of the text chunk heading the next `{`
    line = 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if i in matches and (stack and stack[-1] == "func"):
            m = matches[i]
            # The declaration runs from the keyword to the first token that
            # ends the declarator head; qualifiers always precede it.
            stop = len(text)
            for term in (";", "=", "{", "("):
                pos = text.find(term, m.end())
                if pos != -1:
                    stop = min(stop, pos)
            if not STATIC_EXEMPT_RE.search(text[m.end():stop]):
                findings.append(
                    Finding(
                        relpath, line, "static-local",
                        "mutable function-local static: first-use "
                        "initialisation races once the parallel campaign "
                        "engine calls this from worker threads; hoist to a "
                        "namespace-scope constinit/constexpr object or pass "
                        "the state explicitly"))
        if c == "\n":
            line += 1
        elif c == ";":
            chunk_start = i + 1
        elif c == "{":
            header = text[chunk_start:i]
            if SCOPE_TYPE_RE.search(header):
                kind = "type"
            elif re.search(r"[=,(\[{]\s*$", header.rstrip()) or not header.strip():
                # Brace-init list (or a bare block): inherit the parent.
                kind = stack[-1] if stack else "other"
            elif ")" in header:
                # Function body, lambda, or a control statement -- all of
                # which are (inside) function scope.
                kind = "func"
            else:
                kind = stack[-1] if stack else "other"
            stack.append(kind)
            chunk_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            chunk_start = i + 1
        i += 1
    return findings


def check_pragma_once(relpath: str, text: str) -> list[Finding]:
    if not relpath.endswith((".h", ".hpp")):
        return []
    if PRAGMA_ONCE_RE.search(text):
        return []
    return [
        Finding(relpath, 1, "pragma-once",
                "header is missing #pragma once")
    ]


def check_include_hygiene(relpath: str, text: str,
                          module_dirs: set[str]) -> list[Finding]:
    if not relpath.startswith("src/"):
        return []
    findings = []
    for m in INCLUDE_RE.finditer(text):
        inc = m.group(1)
        line = text.count("\n", 0, m.start()) + 1
        if ".." in inc.split("/"):
            continue  # relative-include owns parent-relative paths
        if "/" not in inc:
            findings.append(
                Finding(
                    relpath, line, "include-hygiene",
                    f'include "{inc}" is not module-qualified; write '
                    f'"{relpath.split("/")[1]}/{inc}" so the header resolves '
                    "identically from every translation unit"))
        elif module_dirs and inc.split("/")[0] not in module_dirs:
            findings.append(
                Finding(
                    relpath, line, "include-hygiene",
                    f'include "{inc}" does not name a known src module '
                    f"({', '.join(sorted(module_dirs))})"))
    return findings


def check_relative_include(relpath: str, text: str) -> list[Finding]:
    """Parent-relative includes resolve correctly today but erase the
    module name the layer manifest keys on — `"../core/rng.h"` from
    src/trip/ is an untracked trip->core edge as far as wheels_arch.py
    can tell. Ban them outright in src/."""
    if not relpath.startswith("src/"):
        return []
    findings = []
    for m in INCLUDE_RE.finditer(text):
        inc = m.group(1)
        if ".." not in inc.split("/"):
            continue
        line = text.count("\n", 0, m.start()) + 1
        findings.append(
            Finding(
                relpath, line, "relative-include",
                f'include "{inc}" is parent-relative; spell the '
                'module-qualified form ("<module>/<header>.h") so '
                "wheels_arch.py can attribute the edge to a module"))
    return findings


def check_format(root: str, files: list[str]) -> tuple[list[Finding], bool]:
    """Returns (findings, ran). Skips gracefully when clang-format or the
    .clang-format config is unavailable."""
    clang_format = shutil.which("clang-format")
    if clang_format is None:
        return [], False
    if not os.path.exists(os.path.join(root, ".clang-format")):
        return [], False
    findings = []
    for path in files:
        proc = subprocess.run(
            [clang_format, "--dry-run", "-Werror", "--style=file", path],
            capture_output=True,
            text=True,
            cwd=root,
            check=False)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["formatting diff"])[0]
            lm = re.search(r":(\d+):", first)
            findings.append(
                Finding(
                    path, int(lm.group(1)) if lm else 1, "format",
                    "clang-format --dry-run reports a diff (run clang-format "
                    "-i to fix)"))
    return findings, True


def lint_file(root: str, relpath: str,
              module_dirs: set[str]) -> list[Finding]:
    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as f:
        raw = f.read()
    stripped = strip_comments_and_strings(raw)
    with_strings = strip_comments_and_strings(raw, keep_strings=True)
    lines = stripped.splitlines()

    findings: list[Finding] = []
    findings += check_banned_random(relpath, lines)
    findings += check_float_eq(relpath, lines)
    findings += check_unordered_iter(relpath, lines)
    findings += check_duplicate_fork(relpath, with_strings)
    findings += check_static_local(relpath, stripped)
    findings += check_steady_clock(relpath, lines)
    findings += check_fp_reassoc(relpath, lines, with_strings.splitlines())
    findings += check_pragma_once(relpath, stripped)
    findings += check_include_hygiene(relpath, stripped, module_dirs)
    findings += check_relative_include(relpath, stripped)
    return drop_allowed(findings,
                        {relpath: collect_allows(raw, "wheels-lint")})


def add_arguments(parser) -> None:
    parser.add_argument("--no-format", action="store_true",
                        help="skip the clang-format check")


def run(args) -> Report | int:
    root = args.root
    src = os.path.join(root, "src")
    module_dirs = {
        d for d in (os.listdir(src) if os.path.isdir(src) else [])
        if os.path.isdir(os.path.join(src, d))
    }

    files = gather_files(root, SCAN_DIRS)
    if not files:
        print(f"wheels-lint: no C++ sources found under {root}",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in files:
        findings += lint_file(root, path, module_dirs)

    notes = []
    if not args.no_format:
        fmt_findings, ran = check_format(root, files)
        findings += fmt_findings
        if not ran:
            notes.append("wheels-lint: note: clang-format not available; "
                         "format check skipped")
    return Report(findings, len(files), f"{len(files)} files clean",
                  notes=notes)


def main(argv: list[str]) -> int:
    return wheels_check.main(argv, tool="wheels-lint", doc=__doc__,
                             rules=RULES, run=run,
                             add_arguments=add_arguments, rule_width=16)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
