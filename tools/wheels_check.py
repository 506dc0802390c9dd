"""wheels-check: the shared front end of the compile-free analyzers.

wheels_lint.py, wheels_arch.py, wheels_contract.py and wheels_rng.py are
rule sets on top of this module. It owns what they have in common:

  Finding           one (path, line, rule, message) record
  gather_files      the sorted repo-relative C++ sources under a list of
                    scan directories, skipping fixture trees (fixtures/,
                    lint_fixtures/) and build* directories
  strip_comments_and_strings
                    the C++ lexer: comments, string and char literals
                    blanked with the line structure kept
  collect_unordered_names, iterates_unordered
                    which names hold a std::unordered_* container, and
                    whether a range-for walks one
  collect_allows    `// wheels-<tool>: allow(<rules>)` annotations, which
  drop_allowed      cover their own line and the next
  main              the CLI and output path: --root, --format
                    text|json|sarif and --list-rules; findings sorted by
                    (path, line, rule, message), the text summary line,
                    the JSON object and SARIF 2.1.0; exit 0 when clean,
                    1 on findings, 2 on usage errors

An analyzer hands `main` its tool name, rule table, own flags and a `run`
function that turns the parsed arguments into a Report (or an exit code,
for its own modes such as --dot or --fix-docs).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPP_EXTENSIONS = (".cpp", ".h", ".hpp", ".cc")
# Fixture miniature repos are independent trees checked by their own
# tests; never mix them into the real scan.
FIXTURE_DIRS = ("fixtures", "lint_fixtures")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def gather_files(root: str, scan_dirs: tuple[str, ...]) -> list[str]:
    """Repo-relative paths of every C++ source under the scan dirs,
    sorted for deterministic reports."""
    files = []
    for scan in scan_dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, scan)):
            dirnames[:] = [
                d for d in dirnames
                if d not in FIXTURE_DIRS and not d.startswith("build")
            ]
            files += [
                os.path.relpath(os.path.join(dirpath, name),
                                root).replace(os.sep, "/")
                for name in filenames if name.endswith(CPP_EXTENSIONS)
            ]
    return sorted(files)


# --- the C++ lexer ------------------------------------------------------------


DIGIT_SEP_RE = re.compile(r"(\d)'([\da-fA-F])")
RAW_STRING_RE = re.compile(r'R"([^(\s]*)\(')
INCLUDE_HEAD_RE = re.compile(r"\s*#\s*include\s*$")


def strip_comments_and_strings(
        text: str, keep_strings: bool = False,
        literals: list[tuple[int, int]] | None = None) -> str:
    """Blank out comments, string and char literals, preserving line
    structure so reported line numbers stay meaningful. The quoted path
    of an #include survives. With `keep_strings`, ordinary string
    literals survive too (raw strings and char literals are still
    blanked) for rules that inspect literal contents; `literals` then
    receives the [start, end) offset in the result of every literal kept.
    C++14 digit separators (1'000) are removed first: the apostrophe would
    otherwise read as a char-literal open and swallow source up to the
    next apostrophe (separators never span lines, so line numbers hold)."""
    prev = None
    while prev != text:
        prev = text
        text = DIGIT_SEP_RE.sub(r"\1\2", text)
    out = []
    size = 0  # length of "".join(out)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                    size += 1
                i += 1
            i = min(i + 2, n)
        elif c == "R" and nxt == '"':
            # Raw string literal: R"delim( ... )delim"
            m = RAW_STRING_RE.match(text, i)
            if m:
                end = text.find(f"){m.group(1)}\"", m.end())
                if end == -1:
                    end = n
                lines = "\n" * text.count("\n", i, end)
                out.append(lines)
                size += len(lines)
                i = end + len(m.group(1)) + 2
            else:
                out.append(c)
                size += 1
                i += 1
        elif c == '"':
            # Preserve the quoted path of an #include directive; blank out
            # every other string literal unless asked to keep it.
            line_start = text.rfind("\n", 0, i) + 1
            is_include = INCLUDE_HEAD_RE.match(text, line_start, i)
            start = i
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            if is_include or keep_strings:
                literal = text[start:i]
                if literals is not None:
                    literals.append((size, size + len(literal)))
                out.append(literal)
                size += len(literal)
        elif c == "'":
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(c)
            size += 1
            i += 1
    return "".join(out)


# Unordered-container helpers: iteration order of a std::unordered_* is
# hash-seed and standard-library dependent.
UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_NAME_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r"[^;{}]*?>\s*&?\s*(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*([^)]+)\)")


def collect_unordered_names(lines: list[str]) -> set[str]:
    """Names declared (anywhere in this file) with an unordered container
    type. Textual, not type-aware -- good enough for this codebase, and
    false positives can be suppressed inline."""
    unordered_names: set[str] = set()
    for line in lines:
        if UNORDERED_DECL_RE.search(line):
            for m in UNORDERED_NAME_RE.finditer(line):
                unordered_names.add(m.group(1))
    return unordered_names


def iterates_unordered(target: str, unordered_names: set[str]) -> bool:
    """Whether a range-for over `target` (RANGE_FOR_RE group 1, stripped)
    walks one of `unordered_names`, directly or through a member access."""
    base = re.split(r"[.\->\[(]", target)[-1] or target
    candidates = {target, target.split(".")[-1].strip(),
                  target.split("->")[-1].strip(), base.strip()}
    return bool(candidates & unordered_names)


# --- allow annotations ----------------------------------------------------------


def collect_allows(raw: str, tool: str) -> dict[int, set[str]]:
    """Line number (1-based) -> rules allowed there by a
    `// <tool>: allow(<rule>, ...)` comment. An allow comment covers its
    own line and the next line (so it can sit above the finding)."""
    allow_re = re.compile(rf"//\s*{re.escape(tool)}:\s*allow\(([a-z\-, ]+)\)")
    allows: dict[int, set[str]] = {}
    for idx, line in enumerate(raw.splitlines(), start=1):
        m = allow_re.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allows.setdefault(idx, set()).update(rules)
        allows.setdefault(idx + 1, set()).update(rules)
    return allows


def drop_allowed(findings: list[Finding],
                 allows: dict[str, dict[int, set[str]]]) -> list[Finding]:
    """`allows` maps a path to its collect_allows table."""
    return [f for f in findings
            if f.rule not in allows.get(f.path, {}).get(f.line, ())]


# --- output -------------------------------------------------------------------


SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def render_sarif(tool: str, rules: dict[str, str],
                 findings: list[Finding]) -> str:
    """One run per invocation, one reporting descriptor per rule that
    fired (keeping the document small and deterministic), one result per
    finding: a lossless mapping of the JSON findings (ruleId,
    message.text, uri, startLine)."""
    fired = sorted({f.rule for f in findings})
    return json.dumps({
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool,
                    "rules": [{
                        "id": rule,
                        "shortDescription": {"text": rules.get(rule, rule)},
                    } for rule in fired],
                },
            },
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line},
                    },
                }],
            } for f in findings],
        }],
    }, indent=2, sort_keys=True)


@dataclass
class Report:
    """One analyzer run, ready for output."""
    findings: list[Finding]
    files_scanned: int
    ok: str  # what the clean summary line says in its parentheses
    notes: list[str] = field(default_factory=list)  # stdout in text mode
    extra: dict = field(default_factory=dict)  # more keys for the JSON


def emit(tool: str, rules: dict[str, str], report: Report,
         output_format: str) -> int:
    findings = sorted(report.findings,
                      key=lambda f: (f.path, f.line, f.rule, f.message))
    for note in report.notes:
        print(note, file=sys.stdout if output_format == "text"
              else sys.stderr)
    if output_format == "sarif":
        print(render_sarif(tool, rules, findings))
    elif output_format == "json":
        print(json.dumps(
            {
                "tool": tool,
                "files_scanned": report.files_scanned,
                "findings": [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "message": f.message,
                    } for f in findings
                ],
                **report.extra,
            },
            indent=2,
            sort_keys=True))
    else:
        for f in findings:
            print(f.render())
        if findings:
            print(f"{tool}: {len(findings)} finding(s) in "
                  f"{len({f.path for f in findings})} file(s)")
        else:
            print(f"{tool}: OK ({report.ok})")
    return 1 if findings else 0


def main(argv: list[str], *, tool: str, doc: str, rules: dict[str, str],
         add_arguments: Callable[[argparse.ArgumentParser], None],
         run: Callable[[argparse.Namespace], Report | int],
         rule_width: int = 20) -> int:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root to analyze (default: the repo "
                        "containing this script)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="findings output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description and "
                        "exit")
    add_arguments(parser)
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in rules.items():
            print(f"{rule:{rule_width}s} {desc}")
        return 0

    args.root = os.path.abspath(args.root or REPO_ROOT)
    report = run(args)
    if isinstance(report, int):
        return report
    return emit(tool, rules, report, args.output_format)
