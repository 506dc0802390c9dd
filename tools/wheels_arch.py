#!/usr/bin/env python3
"""wheels-arch: compile-free include-graph architecture analyzer.

PR 2 split simulate from analyze and PR 3 sharded the campaign engine;
both stay safe only while the module boundaries they rely on hold. This
tool parses every `#include "..."` edge under src/, tools/, bench/,
tests/ and examples/ (no compiler needed) and enforces the architecture
mechanically:

  layer-violation   an edge between two src/ modules that the layer
                    manifest (tools/layers.json) does not allow. The
                    manifest maps each module to the modules it may
                    include from; `core` must stay leaf-free, `analysis`
                    sits on top. Reported per offending #include line.
  include-cycle     any cycle in the file-level include graph (reported
                    with the full cycle path). Cycles make header
                    self-sufficiency ill-defined and break incremental
                    builds in confusing ways.
  orphan-header     a src/**/*.h that no non-test translation unit
                    (a .cpp under src/, tools/, bench/ or examples/)
                    transitively includes. Dead public headers rot
                    silently; either delete them or allowlist them in
                    the manifest with a reason.
  layer-manifest    the manifest itself is broken: a src/ module missing
                    from it, an unknown module named in it, or declared
                    edges that are not a DAG.

Usage:
  tools/wheels_arch.py [--root DIR] [--manifest FILE]
                       [--format text|json|sarif] [--list-rules]
  tools/wheels_arch.py --dot          # DOT module graph on stdout

`--dot` writes a Graphviz digraph of the module-level include graph
(annotated with per-edge include counts) and exits 0 without checking
rules; pipe it through `dot -Tsvg` for docs.

Exits 0 when clean, 1 when any finding fires, 2 on usage/manifest-read
errors.
"""

from __future__ import annotations

import json
import os
import re
import sys

from wheels_check import (Finding, Report, gather_files,
                          strip_comments_and_strings)
import wheels_check

RULES = {
    "layer-violation":
        "include edge between src/ modules that the layer manifest forbids",
    "include-cycle":
        "cycle in the file-level include graph",
    "orphan-header":
        "src/ header no non-test translation unit reaches",
    "layer-manifest":
        "tools/layers.json is broken or out of date",
}

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
TEST_DIR = "tests/"


def parse_includes(root: str, relpath: str) -> list[tuple[int, str]]:
    """(line, include-text) pairs for every quoted include outside
    comments."""
    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as f:
        text = strip_comments_and_strings(f.read())
    return [(lineno, m.group(1))
            for lineno, line in enumerate(text.splitlines(), start=1)
            if (m := INCLUDE_RE.match(line))]


def resolve_include(root: str, includer: str, inc: str,
                    known: set[str]) -> str | None:
    """Mimic the build's quoted-include lookup: first relative to the
    including file's directory, then relative to src/ (the one public
    include root). Returns the repo-relative target, or None for
    system/external headers."""
    base = os.path.dirname(includer)
    local = os.path.normpath(os.path.join(base, inc)).replace(os.sep, "/")
    if local in known:
        return local
    qualified = os.path.normpath(os.path.join("src", inc)).replace(os.sep, "/")
    if qualified in known:
        return qualified
    return None


def module_of(relpath: str) -> str | None:
    """src/<module>/... -> <module>; None outside src/."""
    parts = relpath.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


# --- manifest ---------------------------------------------------------------


def load_manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_manifest(manifest: dict, src_modules: set[str],
                   manifest_rel: str) -> list[Finding]:
    """The manifest must name exactly the src/ modules and its declared
    edges must form a DAG; everything downstream trusts it."""
    findings = []
    layers = manifest.get("layers", {})
    declared = set(layers)
    for missing in sorted(src_modules - declared):
        findings.append(
            Finding(
                manifest_rel, 1, "layer-manifest",
                f"src module '{missing}' is missing from the layer "
                "manifest; every directory under src/ must declare its "
                "allowed dependencies"))
    for unknown in sorted(declared - src_modules):
        findings.append(
            Finding(
                manifest_rel, 1, "layer-manifest",
                f"manifest names module '{unknown}' but src/{unknown}/ "
                "does not exist"))
    for mod, deps in sorted(layers.items()):
        for dep in deps:
            if dep not in declared:
                findings.append(
                    Finding(
                        manifest_rel, 1, "layer-manifest",
                        f"module '{mod}' lists unknown dependency "
                        f"'{dep}'"))
    # Declared-edge DAG check (colour DFS over the manifest graph).
    colour: dict[str, int] = {}  # 0 in-progress, 1 done

    def visit(mod: str, trail: list[str]) -> list[str] | None:
        colour[mod] = 0
        for dep in layers.get(mod, []):
            if dep not in layers:
                continue
            if colour.get(dep) == 0:
                return trail + [mod, dep]
            if dep not in colour:
                cyc = visit(dep, trail + [mod])
                if cyc:
                    return cyc
        colour[mod] = 1
        return None

    for mod in sorted(layers):
        if mod not in colour:
            cyc = visit(mod, [])
            if cyc:
                tail = cyc[-1]
                loop = cyc[cyc.index(tail):]
                findings.append(
                    Finding(
                        manifest_rel, 1, "layer-manifest",
                        "declared layer dependencies are cyclic: "
                        + " -> ".join(loop)))
                break
    return findings


# --- rules ------------------------------------------------------------------


def check_layering(edges: list[tuple[str, int, str]],
                   layers: dict[str, list[str]]) -> list[Finding]:
    findings = []
    for src_file, line, dst_file in edges:
        src_mod = module_of(src_file)
        dst_mod = module_of(dst_file)
        if src_mod is None or dst_mod is None or src_mod == dst_mod:
            continue
        if src_mod in layers and dst_mod not in layers.get(src_mod, []):
            allowed = ", ".join(layers[src_mod]) or "(nothing: leaf layer)"
            findings.append(
                Finding(
                    src_file, line, "layer-violation",
                    f"module '{src_mod}' may not include from '{dst_mod}' "
                    f"(allowed: {allowed}); fix the dependency or amend "
                    "tools/layers.json with a justification"))
    return findings


def check_cycles(adj: dict[str, list[tuple[int, str]]]) -> list[Finding]:
    """Colour DFS over the file graph; each back edge yields one finding
    carrying the full cycle path. Deterministic: nodes and neighbours are
    visited in sorted order, and each distinct cycle is reported once at
    its lexicographically-first member."""
    colour: dict[str, int] = {}  # 0 in-progress, 1 done
    findings = []
    reported: set[frozenset[str]] = set()

    def visit(node: str, trail: list[tuple[str, int]]) -> None:
        colour[node] = 0
        for line, dst in sorted(adj.get(node, []), key=lambda e: (e[1], e[0])):
            if colour.get(dst) == 0:
                loop = [p for p, _ in trail] + [node]
                loop = loop[loop.index(dst):] + [dst]
                key = frozenset(loop)
                if key not in reported:
                    reported.add(key)
                    findings.append(
                        Finding(
                            node, line, "include-cycle",
                            "include cycle: " + " -> ".join(loop)))
            elif dst not in colour:
                visit(dst, trail + [(node, line)])
        colour[node] = 1

    for node in sorted(adj):
        if node not in colour:
            visit(node, [])
    return findings


def check_orphans(files: list[str], adj: dict[str, list[tuple[int, str]]],
                  allowlist: set[str]) -> list[Finding]:
    """A public header earns its keep by being reachable from a non-test
    translation unit. BFS from every .cpp outside tests/, then flag the
    unreached src/ headers."""
    reached: set[str] = set()
    queue = [
        f for f in files
        if f.endswith((".cpp", ".cc")) and not f.startswith(TEST_DIR)
    ]
    reached.update(queue)
    while queue:
        node = queue.pop()
        for _, dst in adj.get(node, []):
            if dst not in reached:
                reached.add(dst)
                queue.append(dst)
    findings = []
    for f in files:
        if not f.startswith("src/") or not f.endswith((".h", ".hpp")):
            continue
        if f in reached or f in allowlist:
            continue
        findings.append(
            Finding(
                f, 1, "orphan-header",
                "no non-test translation unit (src/tools/bench/examples "
                ".cpp) transitively includes this header; delete it or "
                "add it to orphan_allowlist in tools/layers.json with a "
                "reason"))
    return findings


# --- DOT export -------------------------------------------------------------


def render_dot(edges: list[tuple[str, int, str]],
               layers: dict[str, list[str]]) -> str:
    """Module-level digraph: one node per src/ module (plus the non-src
    scan roots as consumers), one edge per dependency annotated with its
    include count."""
    counts: dict[tuple[str, str], int] = {}
    for src_file, _, dst_file in edges:
        src_mod = module_of(src_file) or src_file.split("/")[0]
        dst_mod = module_of(dst_file) or dst_file.split("/")[0]
        if src_mod == dst_mod:
            continue
        counts[(src_mod, dst_mod)] = counts.get((src_mod, dst_mod), 0) + 1
    lines = [
        "digraph wheels_modules {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    modules = sorted(set(layers) | {m for e in counts for m in e})
    for mod in modules:
        style = "" if mod in layers else ", style=dashed"
        lines.append(f'  "{mod}" [label="{mod}"{style}];')
    for (src_mod, dst_mod), n in sorted(counts.items()):
        style = "" if src_mod in layers and dst_mod in layers \
            else " style=dashed,"
        lines.append(
            f'  "{src_mod}" -> "{dst_mod}" [{style.strip()} label="{n}"];')
    lines.append("}")
    return "\n".join(lines)


# --- driver -----------------------------------------------------------------


def add_arguments(parser) -> None:
    parser.add_argument("--manifest", default=None,
                        help="layer manifest path (default: "
                        "<root>/tools/layers.json)")
    parser.add_argument("--dot", action="store_true",
                        help="emit the DOT module graph and exit")


def run(args) -> Report | int:
    root = args.root
    manifest_path = args.manifest or os.path.join(root, "tools", "layers.json")
    try:
        manifest = load_manifest(manifest_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"wheels-arch: cannot read manifest {manifest_path}: {exc}",
              file=sys.stderr)
        return 2
    layers: dict[str, list[str]] = manifest.get("layers", {})
    allowlist = set(manifest.get("orphan_allowlist", []))

    files = gather_files(root, SCAN_DIRS)
    if not files:
        print(f"wheels-arch: no C++ sources found under {root}",
              file=sys.stderr)
        return 2
    known = set(files)

    # Resolved include edges: (includer, line, target), plus adjacency.
    edges: list[tuple[str, int, str]] = []
    adj: dict[str, list[tuple[int, str]]] = {}
    for relpath in files:
        for line, inc in parse_includes(root, relpath):
            target = resolve_include(root, relpath, inc, known)
            if target is None:
                continue
            edges.append((relpath, line, target))
            adj.setdefault(relpath, []).append((line, target))

    if args.dot:
        print(render_dot(edges, layers))
        return 0

    src_modules = {
        d for d in (os.listdir(os.path.join(root, "src"))
                    if os.path.isdir(os.path.join(root, "src")) else [])
        if os.path.isdir(os.path.join(root, "src", d))
    }
    manifest_rel = os.path.relpath(manifest_path, root).replace(os.sep, "/")

    findings = check_manifest(manifest, src_modules, manifest_rel)
    manifest_broken = bool(findings)
    if not manifest_broken:
        findings += check_layering(edges, layers)
    findings += check_cycles(adj)
    if not manifest_broken:
        findings += check_orphans(files, adj, allowlist)
    return Report(findings, len(files),
                  f"{len(files)} files, {len(edges)} include edges")


def main(argv: list[str]) -> int:
    return wheels_check.main(argv, tool="wheels-arch", doc=__doc__,
                             rules=RULES, run=run,
                             add_arguments=add_arguments)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
