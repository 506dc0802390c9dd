#!/usr/bin/env python3
"""wheels-reach: every non-inline src/ function reaches a shipped binary.

Reads symbol tables, not sources. The `reach` CI stage builds the shipped
programs (the tools, bench/, the examples and perfbench's own project) at
-O0 with -ffunction-sections and links them with --gc-sections, so a
function stays in a binary only if something that binary runs can call
it, and nothing is inlined away. The functions src/ defines are the
global text symbols (nm type T) of the wheels_* static libraries; weak
symbols (inline functions, template instances) are not counted.

A defined function that no binary holds is code only tests reach. It
fails the check unless its qualified name (no parameter list, no ABI
tag) is in the registry's reach_allow list, the test seams. An allow
entry that a binary does hold, or that src/ no longer defines, also
fails, so the list stays exactly the seams.

Usage: tools/wheels_reach.py --libs DIR --bins DIR [DIR ...]
                             [--contracts FILE]
  --libs       build directory searched (recursively) for libwheels_*.a
  --bins       directories whose ELF files (not recursive) are the
               shipped binaries
  --contracts  registry holding reach_allow (default tools/contracts.json)
Exit 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ABI_TAG_RE = re.compile(r"\[abi:[^\]]*\]")


def nm(path: str, extern_only: bool) -> list[tuple[str, str]]:
    """(type, demangled name) of every defined symbol of `path`."""
    args = ["nm", "--defined-only", "-C"]
    if extern_only:
        args.append("--extern-only")
    out = subprocess.run(args + [path], check=True, capture_output=True,
                         text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            symbols.append((parts[1], parts[2]))
    return symbols


def qualified_name(symbol: str) -> str:
    """`ns::f[abi:cxx11](int) const` -> `ns::f`."""
    return ABI_TAG_RE.sub("", symbol.split("(", 1)[0])


def is_elf(path: str) -> bool:
    try:
        with open(path, "rb") as f:
            return f.read(4) == b"\x7fELF"
    except OSError:
        return False


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="wheels_reach.py")
    parser.add_argument("--libs", required=True)
    parser.add_argument("--bins", required=True, nargs="+")
    parser.add_argument("--contracts",
                        default=os.path.join(REPO_ROOT, "tools",
                                             "contracts.json"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        with open(args.contracts, encoding="utf-8") as f:
            allow = set(json.load(f)["reach_allow"]["functions"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"wheels_reach: unreadable reach_allow in {args.contracts}: "
              f"{e}", file=sys.stderr)
        return 2

    libs = sorted(
        os.path.join(d, name) for d, _, names in os.walk(args.libs)
        for name in names
        if name.startswith("libwheels_") and name.endswith(".a"))
    bins = sorted(
        os.path.join(d, name) for d in args.bins
        for name in (os.listdir(d) if os.path.isdir(d) else [])
        if os.path.isfile(os.path.join(d, name)) and
        is_elf(os.path.join(d, name)))
    if not libs or not bins:
        print(f"wheels_reach: found {len(libs)} libraries and {len(bins)} "
              "binaries; need both", file=sys.stderr)
        return 2

    defined = {name for lib in libs for kind, name in nm(lib, True)
               if kind == "T"}
    reached = {name for b in bins for kind, name in nm(b, False)
               if kind in "Tt"}
    unreached = sorted(defined - reached)
    findings = [f"unreached: {s}" for s in unreached
                if qualified_name(s) not in allow]
    defined_names = {qualified_name(s) for s in defined}
    unreached_names = {qualified_name(s) for s in unreached}
    for name in sorted(allow):
        if name not in defined_names:
            findings.append(f"stale allow entry: {name} is not defined "
                            "in src/")
        elif name not in unreached_names:
            findings.append(f"stale allow entry: {name} reaches a shipped "
                            "binary")
    for line in findings:
        print(line)
    allowed = sum(1 for s in unreached if qualified_name(s) in allow)
    print(f"wheels-reach: {len(defined)} src/ functions, {len(bins)} "
          f"binaries, {len(unreached)} unreached ({allowed} allowed), "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
