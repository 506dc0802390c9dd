#!/usr/bin/env python3
"""wheels-rng: whole-program RNG provenance analyzer.

Every figure regenerates bit-for-bit only because all stochastic processes
draw from `Rng::fork` sub-streams of the campaign seed. The lexical
duplicate-fork lint rule only sees one scope at a time; this tool parses
all Rng usage under src/ into a whole-program fork graph (parent scope ->
child label/salt) and enforces stream-level rules across translation
units:

  fork-collision    the same effective salt (string label via FNV-1a, or
                    integer literal) forked from one parent node at two
                    distinct sites, anywhere in the program. Identical
                    (parent, salt) pairs yield bit-identical streams and
                    silently correlate processes meant to be independent.
  rng-by-value      a live named Rng stream is duplicated: plain
                    copy-initialization from a named stream, a non-const
                    stream passed by value to a function and then used
                    again afterwards, or a const stream handed by value to
                    two sinks. Copies replay the same bytes; fork()
                    instead. (Passing a fresh fork by value -- the repo's
                    sink idiom -- is fine and not flagged.)
  rng-member-copy   one named stream copied into two or more Rng members
                    in a mem-init list, or an Rng member assigned from
                    another Rng name. Both members then replay identical
                    draws.
  draw-in-unordered draw/fork calls on an Rng inside a range-for over a
                    std::unordered_* container: the draw order follows the
                    hash order, so streams diverge between libstdc++
                    versions even though each draw is deterministic.
  unlabeled-fork    a computed (non-literal) fork argument without a
                    `// wheels-rng: dynamic(<reason>)` annotation on the
                    same or previous line. Dynamic salts are legitimate
                    (per-city, per-cycle streams) but must be declared so
                    the fork graph records an explicit wildcard edge.
  fork-graph-drift  the edge set of the rebuilt graph differs from the
                    pinned manifest tools/rng_graph.json. Regenerate with
                    --fix-graph after an intentional stream change; the
                    pin turns silent stream-topology drift into a CI diff.

A runtime trace (WHEELS_RNG_AUDIT=1 + WHEELS_RNG_AUDIT_OUT=<path>, see
src/obs/rng_audit.h) can be cross-checked with --check-trace:

  trace-unknown-edge  a runtime fork edge (label or salt) that no static
                      graph edge under the mapped parent allows
  trace-conflict      one runtime stream id produced by two distinct
                      (parent, salt) pairs, or both seeded and forked
  trace-draw-mismatch with two traces (jobs=1 vs jobs=4), a stream whose
                      draw count differs between them

Division of labor: this analyzer owns everything that needs the program
view (cross-TU collisions, alias chains, the pinned graph, the runtime
audit), and fork-collision flags every case of wheels_lint's
duplicate-fork fixture. But it scans src/ only, while forks also live in
tests/, bench/, tools/ and examples/, so duplicate-fork stays the
lexical same-scope check there. A `.fork(` inside a string literal is
not a call.

Suppress a finding with `// wheels-rng: allow(<rule>)` on the same line or
the line directly above it. `// wheels-rng: dynamic(<reason>)` both
documents and suppresses unlabeled-fork for computed arguments.

Usage:
  tools/wheels_rng.py [--root DIR] [--graph FILE] [--format text|json|sarif]
                      [--fix-graph] [--dot] [--check-trace T1 [T2 ...]]
                      [--list-rules]

The CLI, output formats and exit codes are the shared front end's
(tools/wheels_check.py); --format=json adds the fork-graph edge count.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import sys
from dataclasses import dataclass, field

from wheels_check import (Finding, Report, RANGE_FOR_RE, collect_allows,
                          collect_unordered_names, drop_allowed,
                          gather_files, iterates_unordered,
                          strip_comments_and_strings)
import wheels_check

RULES = {
    "fork-collision":
        "same effective fork salt reachable twice under one parent node "
        "(whole program, across translation units)",
    "rng-by-value":
        "live Rng stream duplicated by value (copy-init, or passed by "
        "value and used again)",
    "rng-member-copy":
        "one Rng name copied into multiple members (identical replayed "
        "streams)",
    "draw-in-unordered":
        "Rng draw/fork inside iteration over an unordered container "
        "(hash-order draw sequence)",
    "unlabeled-fork":
        "computed fork argument without a wheels-rng: dynamic(<reason>) "
        "annotation",
    "fork-graph-drift":
        "rebuilt fork graph differs from the pinned tools/rng_graph.json "
        "(regenerate with --fix-graph)",
    "trace-unknown-edge":
        "runtime fork edge absent from the static fork graph",
    "trace-conflict":
        "one runtime stream id produced by distinct (parent, salt) pairs",
    "trace-draw-mismatch":
        "per-stream draw counts differ between two audit traces",
}

DYNAMIC_RE = re.compile(r"//\s*wheels-rng:\s*dynamic\(([^)]*)\)")

FNV_OFFSET = 1469598103934665603
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1


def fnv1a(s: str) -> int:
    h = FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


# ---------------------------------------------------------------------------
# Scope / span model
# ---------------------------------------------------------------------------

CONTROL_KEYWORDS = ("if", "for", "while", "switch", "do", "else", "try",
                    "catch", "return")
FUNC_NAME_RE = re.compile(r"([A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
TYPE_RE = re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_][\w:]*)")


@dataclass
class Span:
    kind: str          # "function" | "type" | "namespace" | "block"
    name: str          # as written ("Campaign::run", "PhoneSet", ...)
    header_start: int  # text offset where the header chunk begins
    open: int          # offset of '{'
    close: int = -1    # offset of matching '}'
    parent: "Span | None" = None


# A lambda introducer ending a header: captures, optional parameter list,
# specifiers and trailing return type, as in
# `parallel_for_each(jobs, n, [&](std::size_t i) {`.
LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\((?:[^()]|\([^()]*\))*\)\s*)?"
    r"(?:(?:mutable|constexpr|consteval|noexcept|static)\b\s*)*"
    r"(?:->\s*[^{};]+?\s*)?$")


def ends_with_lambda(h: str) -> bool:
    """True when the header ends in a lambda introducer. A '[' right after
    an identifier, ']' or ')' is a subscript or array declarator (this
    also rules out `operator[](...)`), not a capture list."""
    m = LAMBDA_TAIL_RE.search(h)
    if m is None:
        return False
    before = h[:m.start()].rstrip()
    return not before or not (before[-1].isalnum() or before[-1] in "_])")


def classify_header(header: str) -> tuple[str, str]:
    """Classify the text between the previous boundary and a '{'. A
    lambda body is a block of its enclosing function, so a stream it
    captures resolves to that function's locals, not to the callee the
    lambda is passed to."""
    h = header.strip()
    if not h or h.endswith("=") or h.endswith(",") or h.endswith("("):
        return "block", ""
    if ends_with_lambda(h):
        return "block", ""
    first = re.match(r"[A-Za-z_]\w*", h)
    if first and first.group(0) in CONTROL_KEYWORDS:
        return "block", ""
    if re.search(r"\bnamespace\b", h):
        return "namespace", ""
    if "(" in h:
        for m in FUNC_NAME_RE.finditer(h):
            name = re.sub(r"\s+", "", m.group(1))
            base = name.split("::")[-1]
            if base not in CONTROL_KEYWORDS and base != "operator":
                return "function", name
        return "block", ""
    tm = TYPE_RE.search(h)
    if tm:
        return "type", tm.group(1).replace(" ", "")
    return "block", ""


def build_spans(text: str) -> list[Span]:
    """One literal-aware pass over comment-stripped text collecting every
    brace scope classified as function/type/namespace/block. The header
    chunk of a function span includes its mem-init list."""
    spans: list[Span] = []
    stack: list[Span] = []
    boundary = 0  # position after the last ';', '{' or '}'
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            continue
        if c == "{":
            kind, name = classify_header(text[boundary:i])
            span = Span(kind, name, boundary, i,
                        parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            boundary = i + 1
        elif c == "}":
            if stack:
                stack.pop().close = i
            boundary = i + 1
        elif c == ";":
            # A ';' only resets the header boundary outside parentheses;
            # for(;;) headers must stay one chunk. Cheap approximation:
            # scan back for an unclosed '(' in the current chunk.
            chunk = text[boundary:i]
            if chunk.count("(") <= chunk.count(")"):
                boundary = i + 1
        i += 1
    for s in stack:  # unterminated (truncated file): close at EOF
        s.close = n
    return spans


def enclosing(spans: list[Span], pos: int, kinds: tuple[str, ...]):
    best = None
    for s in spans:
        if s.kind in kinds and s.header_start <= pos < s.close:
            if best is None or s.header_start >= best.header_start:
                best = s
    return best


def span_class(span: Span | None) -> str:
    """Innermost enclosing class name for a span (from type-span nesting or
    from the qualified function name)."""
    s = span
    while s is not None:
        if s.kind == "type":
            return s.name.split("::")[-1]
        if s.kind == "function" and "::" in s.name:
            return s.name.split("::")[-2]
        s = s.parent
    return ""


# ---------------------------------------------------------------------------
# Per-file extraction
# ---------------------------------------------------------------------------

FORK_TOKEN_RE = re.compile(r"(?:\.|->)\s*fork\s*\(")
RECV_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*[A-Za-z_]\w*)\s*$")
DECL_BIND_RE = re.compile(
    r"(?:const\s+)?(?:wheels\s*::\s*)?(?:Rng|auto)\s+&?\s*(\w+)\s*"
    r"(?:=|\{|\()\s*$")
MEMBER_BIND_RE = re.compile(r"(\w+)\s*[({]\s*$")
RNG_DECL_RE = re.compile(
    r"\b(?P<const>const\s+)?Rng\s*(?P<ref>&)?\s+(?P<name>\w+)\s*"
    r"(?P<init>;|=|\(|\{)")
RNG_PARAM_RE = re.compile(r"(?P<const>const\s+)?\bRng\s*(?P<ref>&)?\s+"
                          r"(?P<name>\w+)\s*[,)=]")
INT_LIT_RE = re.compile(r"^(?:0[xX][0-9a-fA-F]+|\d+)(?:[uUlL]*)$")
STRING_LIT_RE = re.compile(r'^"([^"]*)"$')
DRAW_CALL_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(?:next_u64|uniform|uniform_index|normal|"
    r"lognormal|exponential|chance|fork)\s*\(")


@dataclass
class Link:
    kind: str   # "label" | "salt" | "dynamic"
    arg: str    # label text, int literal text, or normalized expression
    pos: int
    line: int


@dataclass
class Chain:
    file: str
    func: str            # enclosing function name as written ('' if none)
    cls: str             # enclosing class ('' if none)
    recv: str            # receiver base identifier
    recv_full: str       # full dotted receiver
    links: list[Link]
    decl_target: str = ""      # local/member name bound to the result
    decl_is_member: bool = False
    pos: int = 0
    line: int = 0


@dataclass
class FileModel:
    relpath: str
    text: str
    lines_index: list[int]
    spans: list[Span]
    chains: list[Chain] = field(default_factory=list)
    # (func_key, name) -> {"kind": local/param, "const": bool, "pos": int}
    rng_names: dict = field(default_factory=dict)
    seed_decls: list = field(default_factory=list)   # (func_key, name, pos)
    copy_inits: list = field(default_factory=list)   # (func_key, name, src, line)
    member_decls: set = field(default_factory=set)   # (cls, name)
    member_seed_binds: list = field(default_factory=list)  # (cls, name, line)
    allows: dict = field(default_factory=dict)
    dynamics: dict = field(default_factory=dict)     # line -> reason


def line_of(index: list[int], pos: int) -> int:
    return bisect.bisect_right(index, pos) + 1


def in_literal(literals: list[tuple[int, int]], pos: int) -> bool:
    """Whether `pos` falls inside one of the sorted [start, end) spans."""
    i = bisect.bisect_right(literals, (pos, float("inf"))) - 1
    return i >= 0 and pos < literals[i][1]


def collect_dynamics(raw: str) -> dict[int, str]:
    """Line -> reason of a `// wheels-rng: dynamic(<reason>)` comment,
    which covers its own line and the next."""
    dynamics: dict[int, str] = {}
    for idx, line in enumerate(raw.splitlines(), start=1):
        d = DYNAMIC_RE.search(line)
        if d:
            reason = d.group(1).strip()
            dynamics[idx] = reason
            dynamics.setdefault(idx + 1, reason)
    return dynamics


def parse_balanced(text: str, open_pos: int) -> tuple[str, int]:
    """text[open_pos] == '('; returns (inner, pos_after_close)."""
    depth, i, n = 0, open_pos, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                i += 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i], i + 1
        i += 1
    return text[open_pos + 1:], n


def normalize_expr(expr: str) -> str:
    return re.sub(r"\s+", " ", expr.strip())


def classify_arg(arg: str) -> tuple[str, str]:
    a = arg.strip()
    sm = STRING_LIT_RE.match(a)
    if sm:
        return "label", sm.group(1)
    if INT_LIT_RE.match(a):
        return "salt", a.rstrip("uUlL")
    return "dynamic", normalize_expr(a)


def func_key(relpath: str, span: Span | None) -> str:
    return f"{relpath}:{span.name}" if span is not None else f"{relpath}:"


def meminit_start(header: str) -> int | None:
    """Offset in `header` just past the parameter-list ')' when the header
    has a mem-init list (': member(...)' ...) after it, else None."""
    pm = FUNC_NAME_RE.search(header)
    if pm is None:
        return None
    _inner, after = parse_balanced(header, header.find("(", pm.start()))
    rest = header[after:]
    cm = re.match(r"\s*(?:noexcept(?:\([^()]*\))?\s*)?:", rest)
    if cm is None:
        return None
    return after


def extract_file(root: str, relpath: str) -> FileModel:
    with open(os.path.join(root, relpath), encoding="utf-8",
              errors="replace") as f:
        raw = f.read()
    literals: list[tuple[int, int]] = []
    text = strip_comments_and_strings(raw, keep_strings=True,
                                      literals=literals)
    index = [i for i, ch in enumerate(text) if ch == "\n"]
    spans = build_spans(text)
    fm = FileModel(relpath, text, index, spans,
                   allows=collect_allows(raw, "wheels-rng"),
                   dynamics=collect_dynamics(raw))

    # Rng-typed declarations: locals, members and copy-inits.
    for m in RNG_DECL_RE.finditer(text):
        name, init = m.group("name"), m.group("init")
        fn = enclosing(spans, m.start(), ("function",))
        if fn is None:
            ty = enclosing(spans, m.start(), ("type",))
            if ty is not None and init == ";":
                fm.member_decls.add((ty.name.split("::")[-1], name))
            continue
        key = func_key(relpath, fn)
        fm.rng_names[(key, name)] = {
            "kind": "local", "const": bool(m.group("const")),
            "ref": bool(m.group("ref")), "pos": m.start(),
        }
        if m.group("ref"):
            continue  # reference locals alias, they do not copy
        init_start = m.end() - 1
        if init == ";":
            fm.seed_decls.append((key, name, m.start()))
        elif init in "({":
            closer = ")" if init == "(" else "}"
            if init == "(":
                inner, _ = parse_balanced(text, init_start)
            else:
                end = text.find(closer, init_start)
                inner = text[init_start + 1:end] if end != -1 else ""
            inner = inner.strip()
            if ".fork" in inner or "->fork" in inner:
                continue  # bound via the chain scan
            if re.fullmatch(r"\w+", inner):
                fm.copy_inits.append(
                    (key, name, inner, line_of(index, m.start())))
            else:
                fm.seed_decls.append((key, name, m.start()))
        else:  # '='
            rest = text[m.end():]
            rm = re.match(r"\s*([^;\n]*)", rest)
            rhs = (rm.group(1) if rm else "").strip()
            if ".fork" in rhs or "->fork" in rhs:
                continue
            if re.fullmatch(r"\w+", rhs):
                fm.copy_inits.append(
                    (key, name, rhs, line_of(index, m.start())))
            else:
                fm.seed_decls.append((key, name, m.start()))

    # Params of function spans.
    for s in spans:
        if s.kind != "function":
            continue
        header = text[s.header_start:s.open]
        pidx = header.find("(")
        if pidx == -1:
            continue
        params, _ = parse_balanced(header, pidx)
        for m in RNG_PARAM_RE.finditer(params + ")"):
            fm.rng_names[(func_key(relpath, s), m.group("name"))] = {
                "kind": "param", "const": bool(m.group("const")),
                "ref": bool(m.group("ref")), "pos": s.header_start,
            }

    # Fork chains. A `.fork(` inside a string literal is prose, not a call.
    consumed: set[int] = set()
    for m in FORK_TOKEN_RE.finditer(text):
        if m.start() in consumed or in_literal(literals, m.start()):
            continue
        before = text[:m.start()]
        rm = RECV_RE.search(before)
        if rm is None:
            continue  # chained on a temporary: `make()` etc.
        recv_full = re.sub(r"\s+", "", rm.group(1))
        for prefix in ("this->", "this."):
            if recv_full.startswith(prefix):
                recv_full = recv_full[len(prefix):]
        recv = re.split(r"\.|->", recv_full)[-1]
        fn = enclosing(spans, m.start(), ("function",))
        links: list[Link] = []
        pos = m.end() - 1
        while True:
            inner, after = parse_balanced(text, pos)
            kind, arg = classify_arg(inner)
            links.append(Link(kind, arg, pos, line_of(index, pos)))
            nm = FORK_TOKEN_RE.match(text, after)
            # allow whitespace before the next .fork(
            if nm is None:
                wm = re.match(r"\s*", text[after:])
                nm = FORK_TOKEN_RE.match(text, after + wm.end())
            if nm is None:
                break
            consumed.add(nm.start())
            pos = nm.end() - 1
        chain = Chain(
            file=relpath,
            func=fn.name if fn else "",
            cls=span_class(fn if fn else enclosing(spans, m.start(),
                                                   ("type",))),
            recv=recv, recv_full=recv_full, links=links,
            pos=rm.start(1), line=line_of(index, rm.start(1)))
        dm = DECL_BIND_RE.search(before[:rm.start(1)])
        if dm:
            chain.decl_target = dm.group(1)
        else:
            mm = MEMBER_BIND_RE.search(before[:rm.start(1)])
            if mm:
                cls = chain.cls
                if cls and (cls, mm.group(1)) in fm.member_decls:
                    chain.decl_target = mm.group(1)
                    chain.decl_is_member = True
        fm.chains.append(chain)

    # Member seed bindings in mem-init lists: `rng_(cfg_.seed)` where rng_
    # is a declared Rng member and the initializer is not a fork chain.
    for s in spans:
        if s.kind != "function":
            continue
        header = text[s.header_start:s.open]
        colon = meminit_start(header)
        if colon is None:
            continue
        cls = span_class(s)
        if not cls:
            continue
        for mi in re.finditer(r"(\w+)\s*[({]", header[colon:]):
            name = mi.group(1)
            if (cls, name) in fm.member_decls:
                abs_pos = s.header_start + colon + mi.start()
                inner, _ = parse_balanced(
                    text, s.header_start + colon + mi.end() - 1) \
                    if header[colon:][mi.end() - 1] == "(" else ("", 0)
                if ".fork" in inner or "->fork" in inner:
                    continue
                fm.member_seed_binds.append(
                    (cls, name, line_of(index, abs_pos), inner.strip(),
                     func_key(relpath, s)))
    return fm


# ---------------------------------------------------------------------------
# Whole-program graph
# ---------------------------------------------------------------------------

@dataclass
class Edge:
    parent: str
    kind: str   # label | salt | dynamic
    arg: str
    file: str
    line: int
    annotated: bool = False

    @property
    def name(self) -> str:
        if self.kind == "label":
            return self.arg
        if self.kind == "salt":
            return f"#{self.arg}"
        return f"?{self.arg}"

    @property
    def child(self) -> str:
        return f"{self.parent}/{self.name}"

    def effective_salt(self):
        if self.kind == "label":
            return fnv1a(self.arg)
        if self.kind == "salt":
            return int(self.arg, 0)
        return None


@dataclass
class Graph:
    edges: list[Edge] = field(default_factory=list)
    roots: dict[str, str] = field(default_factory=dict)  # node -> kind
    unresolved: list = field(default_factory=list)


def build_graph(models: list[FileModel]) -> Graph:
    graph = Graph()
    seed_locals = set()
    local_binds: dict[tuple[str, str], Chain] = {}
    member_binds: dict[tuple[str, str], Chain] = {}
    member_seeds: dict[tuple[str, str], str] = {}
    members: set[tuple[str, str]] = set()
    copy_alias: dict[tuple[str, str], str] = {}
    rng_names: dict[tuple[str, str], dict] = {}

    for fm in models:
        members |= fm.member_decls
        rng_names.update(fm.rng_names)
        for key, name, _pos in fm.seed_decls:
            seed_locals.add((key, name))
        for key, name, src, _line in fm.copy_inits:
            copy_alias[(key, name)] = src
        for cls, name, _line, _init, fkey in fm.member_seed_binds:
            member_seeds[(cls, name)] = fkey
        for ch in fm.chains:
            if ch.decl_target and ch.decl_is_member:
                member_binds[(ch.cls, ch.decl_target)] = ch
            elif ch.decl_target:
                key = func_key(ch.file, None).rstrip(":") + f":{ch.func}"
                local_binds[(f"{ch.file}:{ch.func}", ch.decl_target)] = ch

    def resolve(name: str, fkey: str, cls: str, stack: frozenset) -> str:
        token = ("n", fkey, cls, name)
        if token in stack:
            return f"extern:{fkey}:{name}"
        stack = stack | {token}
        seen_alias = set()
        while (fkey, name) in copy_alias and name not in seen_alias:
            seen_alias.add(name)
            name = copy_alias[(fkey, name)]
        if (fkey, name) in seed_locals:
            node = f"seed:{fkey}:{name}"
            graph.roots[node] = "seed"
            return node
        if (fkey, name) in local_binds:
            return chain_node(local_binds[(fkey, name)], stack)
        if cls and (cls, name) in member_binds:
            return chain_node(member_binds[(cls, name)], stack)
        if cls and (cls, name) in member_seeds:
            node = f"seed:member:{cls}::{name}"
            graph.roots[node] = "seed"
            return node
        info = rng_names.get((fkey, name))
        if info is not None and info["kind"] == "param":
            node = f"param:{fkey}:{name}"
            graph.roots[node] = "opaque"
            return node
        if cls and (cls, name) in members:
            node = f"member:{cls}::{name}"
            graph.roots[node] = "opaque"
            return node
        node = f"extern:{fkey}:{name}"
        graph.roots[node] = "opaque"
        return node

    def chain_node(ch: Chain, stack: frozenset) -> str:
        token = ("c", ch.file, ch.pos)
        if token in stack:
            return f"extern:{ch.file}:{ch.func}:{ch.recv}"
        stack = stack | {token}
        node = resolve(ch.recv, f"{ch.file}:{ch.func}", ch.cls, stack)
        for link in ch.links:
            edge = Edge(node, link.kind, link.arg, ch.file, link.line)
            node = edge.child
        return node

    for fm in models:
        for ch in fm.chains:
            parent = resolve(ch.recv, f"{ch.file}:{ch.func}", ch.cls,
                             frozenset())
            for link in ch.links:
                annotated = link.line in fm.dynamics
                edge = Edge(parent, link.kind, link.arg, ch.file,
                            link.line, annotated)
                graph.edges.append(edge)
                parent = edge.child
    return graph


# ---------------------------------------------------------------------------
# Static rules
# ---------------------------------------------------------------------------

def check_unlabeled_fork(graph: Graph) -> list[Finding]:
    findings = []
    for e in graph.edges:
        if e.kind == "dynamic" and not e.annotated:
            findings.append(Finding(
                e.file, e.line, "unlabeled-fork",
                f"computed fork argument '{e.arg}' needs a "
                "// wheels-rng: dynamic(<reason>) annotation so the fork "
                "graph records a declared wildcard edge"))
    return findings


def check_fork_collision(graph: Graph) -> list[Finding]:
    findings = []
    groups: dict[tuple[str, int], list[Edge]] = {}
    for e in graph.edges:
        salt = e.effective_salt()
        if salt is None:
            continue
        groups.setdefault((e.parent, salt), []).append(e)
    for (parent, _salt), edges in sorted(groups.items()):
        sites = sorted({(e.file, e.line) for e in edges})
        if len(sites) < 2:
            continue
        first = sites[0]
        for f, line in sites[1:]:
            findings.append(Finding(
                f, line, "fork-collision",
                f"fork '{edges[0].name}' on parent '{parent}' collides "
                f"with {first[0]}:{first[1]}: identical (parent, salt) "
                "pairs fork bit-identical streams across translation "
                "units"))
    return findings


def check_rng_by_value(models: list[FileModel]) -> list[Finding]:
    findings = []
    # Functions/ctors taking Rng by value anywhere in the program.
    byval: set[str] = set()
    for fm in models:
        for m in re.finditer(r"\bRng\s+\w+\s*[,)]", fm.text):
            before = fm.text[:m.start()]
            call = re.search(r"([A-Za-z_]\w*)\s*\([^()]*$", before)
            if call:
                byval.add(call.group(1).split("::")[-1])
    byval -= {"Rng"}  # the copy ctor itself is handled separately

    for fm in models:
        for key, name, src, line in fm.copy_inits:
            if (key, src) in fm.rng_names or any(
                    (c, src) in fm.member_decls for c, _ in fm.member_decls):
                findings.append(Finding(
                    fm.relpath, line, "rng-by-value",
                    f"'{name}' copy-initialized from live stream '{src}': "
                    "a copy replays the same bytes; fork() a labelled "
                    "child instead"))
        for s in fm.spans:
            if s.kind != "function":
                continue
            key = func_key(fm.relpath, s)
            names = {n: info for (k, n), info in fm.rng_names.items()
                     if k == key}
            if not names:
                continue
            body = fm.text[s.open:s.close]
            passes: dict[str, list[int]] = {}
            for cm in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", body):
                if cm.group(1).split("::")[-1] not in byval:
                    continue
                inner, after = parse_balanced(body, cm.end() - 1)
                for arg in split_args(inner):
                    arg = arg.strip()
                    if arg in names:
                        passes.setdefault(arg, []).append(
                            (s.open + cm.start(), s.open + after))
            for nm, sites in sorted(passes.items()):
                info = names[nm]
                if info.get("ref"):
                    continue
                for start, after in sites:
                    tail = fm.text[after:s.close]
                    used_again = re.search(rf"\b{re.escape(nm)}\b", tail)
                    hazard = (not info["const"] and used_again) or (
                        info["const"] and len(sites) > 1)
                    if hazard:
                        line = line_of(fm.lines_index, start)
                        findings.append(Finding(
                            fm.relpath, line, "rng-by-value",
                            f"live stream '{nm}' passed by value and used "
                            "again afterwards: callee and caller replay "
                            "the same bytes; pass a fork() child or hand "
                            "the stream off permanently"))
                        break
    return findings


def split_args(inner: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in inner:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        args.append("".join(cur))
    return args


def check_member_copy(models: list[FileModel]) -> list[Finding]:
    findings = []
    for fm in models:
        for s in fm.spans:
            if s.kind != "function":
                continue
            cls = span_class(s)
            if not cls:
                continue
            header = fm.text[s.header_start:s.open]
            colon = meminit_start(header)
            if colon is None:
                continue
            copies: dict[str, list[tuple[str, int]]] = {}
            for mi in re.finditer(r"(\w+)\s*\(\s*(\w+)\s*\)", header[colon:]):
                member, src = mi.group(1), mi.group(2)
                if (cls, member) not in fm.member_decls:
                    continue
                key = func_key(fm.relpath, s)
                if (key, src) not in fm.rng_names:
                    continue
                abs_pos = s.header_start + colon + mi.start()
                copies.setdefault(src, []).append(
                    (member, line_of(fm.lines_index, abs_pos)))
            for src, sites in sorted(copies.items()):
                for member, line in sites[1:]:
                    findings.append(Finding(
                        fm.relpath, line, "rng-member-copy",
                        f"member '{member}' is the second Rng member "
                        f"copied from '{src}' in this mem-init list "
                        f"(first: '{sites[0][0]}'): both members replay "
                        "identical draws; fork() distinct children"))
    return findings


def check_draw_in_unordered(models: list[FileModel]) -> list[Finding]:
    findings = []
    for fm in models:
        lines = fm.text.splitlines()
        unordered = collect_unordered_names(lines)
        if not unordered:
            continue
        known = {n for (_k, n) in fm.rng_names} | \
                {n for (_c, n) in fm.member_decls}
        for m in RANGE_FOR_RE.finditer(fm.text):
            target = m.group(1).strip()
            if not iterates_unordered(target, unordered):
                continue
            open_brace = fm.text.find("{", m.end())
            if open_brace == -1:
                continue
            depth, i, n = 0, open_brace, len(fm.text)
            while i < n:
                if fm.text[i] == "{":
                    depth += 1
                elif fm.text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            body = fm.text[open_brace:i]
            for dm in DRAW_CALL_RE.finditer(body):
                if dm.group(1) in known:
                    line = line_of(fm.lines_index, open_brace + dm.start())
                    findings.append(Finding(
                        fm.relpath, line, "draw-in-unordered",
                        f"draw on Rng '{dm.group(1)}' inside iteration "
                        f"over unordered container '{target}': the draw "
                        "order follows the hash order, so the stream "
                        "diverges across standard-library versions"))
    return findings


# ---------------------------------------------------------------------------
# Manifest / DOT / trace
# ---------------------------------------------------------------------------

def canonical_edges(graph: Graph) -> list[dict]:
    seen = set()
    out = []
    for e in graph.edges:
        key = (e.parent, e.kind, e.arg, e.file)
        if key in seen:
            continue
        seen.add(key)
        out.append({"parent": e.parent, "kind": e.kind, "arg": e.arg,
                    "file": e.file})
    out.sort(key=lambda d: (d["parent"], d["kind"], d["arg"], d["file"]))
    return out


def check_graph_drift(graph: Graph, graph_path: str,
                      rel_graph: str) -> list[Finding]:
    if not os.path.exists(graph_path):
        print(f"wheels-rng: note: no pinned graph at {rel_graph}; "
              "drift check skipped (generate with --fix-graph)",
              file=sys.stderr)
        return []
    with open(graph_path, encoding="utf-8") as f:
        pinned = json.load(f)
    pin_set = {(d["parent"], d["kind"], d["arg"], d["file"])
               for d in pinned.get("edges", [])}
    now_set = {(d["parent"], d["kind"], d["arg"], d["file"])
               for d in canonical_edges(graph)}
    findings = []
    for parent, kind, arg, file in sorted(now_set - pin_set):
        findings.append(Finding(
            rel_graph, 1, "fork-graph-drift",
            f"new fork edge not in the pinned graph: {parent} --[{kind} "
            f"{arg}]--> ({file}); rerun --fix-graph if intentional"))
    for parent, kind, arg, file in sorted(pin_set - now_set):
        findings.append(Finding(
            rel_graph, 1, "fork-graph-drift",
            f"pinned fork edge no longer in the program: {parent} "
            f"--[{kind} {arg}]--> ({file}); rerun --fix-graph if "
            "intentional"))
    return findings


def write_graph(graph: Graph, graph_path: str) -> None:
    payload = {
        "comment": [
            "Pinned whole-program RNG fork graph; regenerate with",
            "  tools/wheels_rng.py --fix-graph",
            "Checked by the fork-graph-drift rule and the wheels-rng CI "
            "stage.",
        ],
        "roots": [
            {"node": node, "kind": kind}
            for node, kind in sorted(graph.roots.items())
        ],
        "edges": canonical_edges(graph),
    }
    with open(graph_path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=False)
        f.write("\n")


def dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(graph: Graph) -> str:
    lines = ["digraph rng_forks {", "  rankdir=LR;",
             '  node [shape=box, fontsize=10, fontname="monospace"];']
    nodes = set()
    for e in canonical_edges(graph):
        nodes.add(e["parent"])
        child = e["parent"] + "/" + (
            e["arg"] if e["kind"] == "label" else
            ("#" + e["arg"] if e["kind"] == "salt" else "?" + e["arg"]))
        nodes.add(child)
    for node in sorted(nodes):
        label = node.split("/")[-1] if "/" in node else node
        shape = ' shape=ellipse' if "/" not in node else ""
        lines.append(f'  "{dot_escape(node)}" '
                     f'[label="{dot_escape(label)}"{shape}];')
    for e in canonical_edges(graph):
        child = e["parent"] + "/" + (
            e["arg"] if e["kind"] == "label" else
            ("#" + e["arg"] if e["kind"] == "salt" else "?" + e["arg"]))
        style = ' [style=dashed]' if e["kind"] == "dynamic" else ""
        lines.append(f'  "{dot_escape(e["parent"])}" -> '
                     f'"{dot_escape(child)}"{style};')
    lines.append("}")
    return "\n".join(lines)


def load_trace(path: str) -> tuple[dict, list[Finding]]:
    streams: dict[str, dict] = {}
    findings = []
    rel = path
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                findings.append(Finding(
                    rel, idx, "trace-conflict",
                    "unparseable JSONL line in audit trace"))
                continue
            streams[obj["id"]] = dict(obj, _line=idx)
            if obj.get("conflicts", 0):
                findings.append(Finding(
                    rel, idx, "trace-conflict",
                    f"stream {obj['id']} recorded {obj['conflicts']} "
                    "provenance conflict(s): one id arose from distinct "
                    "(parent, salt) pairs or was both seeded and forked"))
    return streams, findings


def check_trace_against_graph(graph: Graph, streams: dict,
                              trace_path: str) -> list[Finding]:
    """Verify the runtime fork tree embeds into the static graph. Roots
    map to the set of all static seed roots; a child must match an edge of
    one of its parent's candidate nodes (labels by text, salts by value,
    dynamic edges match anything). Edges owned by opaque roots float: Rng
    values flow into functions as parameters the static analysis cannot
    link, so their subtrees may attach anywhere."""
    by_parent: dict[str, list[Edge]] = {}
    floating: list[Edge] = []
    opaque = {n for n, k in graph.roots.items() if k == "opaque"}
    for e in graph.edges:
        by_parent.setdefault(e.parent, []).append(e)
        if e.parent in opaque:
            floating.append(e)
    seed_nodes = [n for n, k in graph.roots.items() if k == "seed"]

    def match_edges(cands: set, label, salt) -> set:
        matched = set()
        pools = [(c, by_parent.get(c, [])) for c in cands]
        pools.append(("<float>", floating))
        for cand, edges in pools:
            for e in edges:
                ok = (e.kind == "dynamic"
                      or (label is not None and e.kind == "label"
                          and e.arg == label)
                      or (label is None and salt is not None
                          and e.effective_salt() == salt))
                if ok:
                    base = e.parent if cand == "<float>" else cand
                    matched.add(f"{base}/{e.name}" if cand != "<float>"
                                else e.child)
        return matched

    findings = []
    mapping: dict[str, set] = {}
    children: dict[str, list[str]] = {}
    roots = []
    for sid, obj in streams.items():
        if obj.get("parent"):
            children.setdefault(obj["parent"], []).append(sid)
        else:
            roots.append(sid)
    for sid in sorted(roots):
        mapping[sid] = set(seed_nodes)
    queue = sorted(roots)
    visited = set()
    while queue:
        cur = queue.pop(0)
        if cur in visited:
            continue
        visited.add(cur)
        for child in sorted(children.get(cur, [])):
            obj = streams[child]
            label = obj.get("label")
            salt = int(obj["salt"], 16) if obj.get("salt") else None
            cands = match_edges(mapping.get(cur, set()), label, salt)
            if not cands:
                what = (f'label "{label}"' if label is not None
                        else f"salt {obj.get('salt')}")
                findings.append(Finding(
                    trace_path, obj["_line"], "trace-unknown-edge",
                    f"runtime fork edge ({what}) of stream {child} has "
                    "no matching edge in the static fork graph: an "
                    "unregistered fork site is live"))
            mapping[child] = cands
            queue.append(child)
    return findings


def check_trace_pair(a_path: str, a: dict, b_path: str,
                     b: dict) -> list[Finding]:
    findings = []
    for sid in sorted(set(a) | set(b)):
        ra, rb = a.get(sid), b.get(sid)
        if ra is None or rb is None:
            present, absent = (a_path, b_path) if rb is None \
                else (b_path, a_path)
            rec = ra or rb
            findings.append(Finding(
                absent, 1, "trace-draw-mismatch",
                f"stream {sid} (label {rec.get('label')}) exists in "
                f"{present} but not here: the set of live streams "
                "depends on the jobs value"))
        elif ra["draws"] != rb["draws"]:
            findings.append(Finding(
                b_path, rb["_line"], "trace-draw-mismatch",
                f"stream {sid} (label {rb.get('label')}) drew "
                f"{ra['draws']} times in {a_path} but {rb['draws']} "
                "here: per-stream draw counts must not depend on the "
                "jobs value"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def add_arguments(parser) -> None:
    parser.add_argument("--graph", default=None,
                        help="pinned fork-graph manifest (default: "
                        "<root>/tools/rng_graph.json)")
    parser.add_argument("--fix-graph", action="store_true",
                        help="rewrite the pinned manifest from the "
                        "current sources")
    parser.add_argument("--dot", action="store_true",
                        help="print the fork graph as Graphviz DOT and "
                        "exit")
    parser.add_argument("--check-trace", nargs="+", metavar="TRACE",
                        help="validate runtime audit JSONL trace(s) "
                        "against the static graph; with two traces also "
                        "compare per-stream draw counts")


def run(args) -> Report | int:
    root = args.root
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"wheels-rng: no src/ under {root}", file=sys.stderr)
        return 2
    graph_path = os.path.abspath(
        args.graph or os.path.join(root, "tools", "rng_graph.json"))
    rel_graph = os.path.relpath(graph_path, root).replace(os.sep, "/")

    files = gather_files(root, ("src",))
    models = [extract_file(root, p) for p in files]
    graph = build_graph(models)

    if args.dot:
        print(render_dot(graph))
        return 0
    if args.fix_graph:
        write_graph(graph, graph_path)
        print(f"wheels-rng: wrote {rel_graph} "
              f"({len(canonical_edges(graph))} edges, "
              f"{len(graph.roots)} roots)")
        return 0

    findings: list[Finding] = []
    if args.check_trace:
        for tp in args.check_trace:
            if not os.path.exists(tp):
                print(f"wheels-rng: trace not found: {tp}",
                      file=sys.stderr)
                return 2
        traces = []
        for tp in args.check_trace:
            streams, tf = load_trace(tp)
            findings += tf
            findings += check_trace_against_graph(graph, streams, tp)
            traces.append((tp, streams))
        for (ap, a), (bp, b) in zip(traces, traces[1:]):
            findings += check_trace_pair(ap, a, bp, b)
    else:
        findings += check_unlabeled_fork(graph)
        findings += check_fork_collision(graph)
        findings += check_rng_by_value(models)
        findings += check_member_copy(models)
        findings += check_draw_in_unordered(models)
        findings = drop_allowed(findings,
                                {fm.relpath: fm.allows for fm in models})
        findings += check_graph_drift(graph, graph_path, rel_graph)

    mode = "trace check" if args.check_trace else "static check"
    edges = len(canonical_edges(graph))
    return Report(findings, len(files),
                  f"{mode}: {len(files)} files, {edges} fork edges",
                  extra={"edges": edges})


def main(argv: list[str]) -> int:
    return wheels_check.main(argv, tool="wheels-rng", doc=__doc__,
                             rules=RULES, run=run,
                             add_arguments=add_arguments)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
