#!/usr/bin/env python3
"""levnet-lint: machine-checkable determinism invariants for this repo.

The emulation's headline guarantee is bit-identical reports across thread
counts, refactors, and spec-vs-hand-built machines. Most of what protects
that guarantee is convention — conventions rot. This checker turns the
prose invariants into CI-enforced rules:

  unordered-iteration    no iteration over std::unordered_map/set (point
                         lookups are fine; iteration order is unspecified
                         and must never feed a report, fingerprint, dump,
                         or JSON). Includes range-fors over the raw
                         SharedMemory::cells() accessor — deterministic
                         consumers use sorted_cells().
  nondeterministic-source no rand()/srand()/std::random_device/time()/
                         std::chrono::*_clock::now() inside src/ — every
                         random draw must derive from the run seed.
  pointer-key-order      no std::map/std::set keyed by a raw pointer:
                         pointer values vary run to run, so their order is
                         nondeterministic.
  raw-new-delete         no raw new/delete in the src/sim + src/support
                         hot paths (pools, arenas, and containers only —
                         the steady-state step loop is allocation-free and
                         perf_alloc_test proves it).
  threadpool-shard-ordered
                         ThreadPool / parallel_for inside src/sim/ only on
                         lines covered by a
                         // levnet-lint: shard-ordered(<how results stay
                         ordered>) marker — the engine promises bit-
                         identical results across thread counts, so any
                         parallelism in the step path must document its
                         deterministic (shard-ordered) aggregation.
  endpoint-liveness      calls that turn a processor/module index into a
                         network node (.proc_node(...) / .module_node(...))
                         inside src/ only on lines covered by a
                         // levnet-lint: endpoint-liveness(<why the index
                         is live>) marker — processor endpoints can be
                         dead under faults:procs=, so every such indexing
                         must document why it cannot name a dead endpoint
                         (e.g. the index came through adopt_proc or the
                         module survivor remap).
  wall-clock-confined    std::chrono::*_clock::now() anywhere outside
                         src/analysis/ — wall-clock is timing metadata and
                         lives in the analysis layer only; observability
                         timestamps are virtual (simulation steps), so a
                         clock read in src/obs, tools, tests or bench is a
                         determinism leak.
  blocking-io-confined   blocking I/O primitives (std::cin, std::getline,
                         fgets/fread/scanf, POSIX ::read, socket calls)
                         inside src/ outside src/serve/ — the serving
                         layer and the tools/ front ends own all blocking
                         reads; src/sim, src/emulation and src/machine
                         stay pure string/stream transformations so every
                         library call is replayable.
  packet-layout-assert   src/sim/packet.hpp must keep its
                         static_assert(sizeof(Packet) == 56) layout pin.
  registry-sorted        tables bracketed by
                         // levnet-lint: sorted-table(<name>) ...
                         // levnet-lint: end-table
                         must list their entries in ascending key order.
  pragma-once            every .hpp must open with #pragma once.

Any rule is suppressible per line with an audited escape hatch:

    // levnet-lint: allow(<rule>): <reason>

on the offending line or the comment line(s) immediately above it. The
reason is mandatory; an allow() without one is itself a finding.

Usage:
    levnet_lint.py [--root DIR]     scan the tree (exit 1 on findings)
    levnet_lint.py --self-test      prove every rule fires on a synthetic
                                    violation and is silenced by allow()

Run as a ctest entry (`levnet_lint`, `levnet_lint_selftest`) and a CI job.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

RULES = (
    "unordered-iteration",
    "nondeterministic-source",
    "pointer-key-order",
    "raw-new-delete",
    "threadpool-shard-ordered",
    "endpoint-liveness",
    "wall-clock-confined",
    "blocking-io-confined",
    "packet-layout-assert",
    "registry-sorted",
    "pragma-once",
)

# Directories scanned relative to the root; build trees never qualify.
SCAN_DIRS = ("src", "tools", "tests", "bench", "examples", "perfbench")

# File-level allowlist: rule -> set of root-relative paths exempt from it.
# PR 6 shrank the unordered-iteration list to empty by migrating the golden
# final-memory fingerprint from raw cells() iteration onto the
# address-ordered SharedMemory::sorted_cells(); keep it empty — prefer the
# line-level `// levnet-lint: allow(...)` with a written reason.
ALLOWLIST: dict[str, set[str]] = {rule: set() for rule in RULES}


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------- lexing

_ALLOW_RE = re.compile(r"levnet-lint:\s*allow\(([a-z-]+)\)(\s*:\s*(\S.*))?")
_DIRECTIVE_RE = re.compile(r"levnet-lint:\s*([a-z-]+(?:\([^)]*\))?)")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Comment text is replaced with spaces so column/line numbers survive;
    string contents become empty literals so patterns never match inside
    quoted text.
    """
    out: list[str] = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            elif c == "\n":  # unterminated; bail to code to stay line-true
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            elif c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class Suppressions:
    """Line-level allow() directives, including multi-line comment blocks.

    An allow on line K suppresses its rule on K itself and on the next
    non-comment line after the comment block it sits in.
    """

    def __init__(self, raw_lines: list[str], path: str,
                 findings: list[Finding]):
        self.own: list[set[str]] = [set() for _ in raw_lines]
        self.carried: list[set[str]] = [set() for _ in raw_lines]
        pending: set[str] = set()
        for idx, line in enumerate(raw_lines):
            stripped = line.strip()
            is_comment = stripped.startswith("//")
            for match in _ALLOW_RE.finditer(line):
                rule, reason = match.group(1), match.group(3)
                if rule not in RULES:
                    findings.append(Finding(
                        path, idx + 1, "bad-suppression",
                        f"allow() names unknown rule '{rule}' "
                        f"(valid: {', '.join(RULES)})"))
                    continue
                if not reason:
                    findings.append(Finding(
                        path, idx + 1, "bad-suppression",
                        f"allow({rule}) needs a reason: "
                        f"`// levnet-lint: allow({rule}): <why>`"))
                    continue
                self.own[idx].add(rule)
                if is_comment:
                    pending.add(rule)
            if is_comment or not stripped:
                self.carried[idx] |= pending
            else:
                self.carried[idx] |= pending
                pending = set()

    def active(self, line_1based: int) -> set[str]:
        idx = line_1based - 1
        if 0 <= idx < len(self.own):
            return self.own[idx] | self.carried[idx]
        return set()


_SHARD_MARKER_RE = re.compile(r"levnet-lint:\s*shard-ordered\(([^)]+)\)")
_ENDPOINT_MARKER_RE = re.compile(
    r"levnet-lint:\s*endpoint-liveness\(([^)]+)\)")


class MarkerCoverage:
    """<marker>(<desc>) coverage, with the same carry semantics as allow():
    a marker on line K covers K itself and the first non-comment line after
    the comment block it sits in. Shared by the shard-ordered and
    endpoint-liveness rules."""

    def __init__(self, raw_lines: list[str], marker_re: re.Pattern):
        self.covered = [False] * len(raw_lines)
        pending = False
        for idx, line in enumerate(raw_lines):
            stripped = line.strip()
            is_comment = stripped.startswith("//")
            if marker_re.search(line):
                self.covered[idx] = True
                if is_comment:
                    pending = True
            if is_comment or not stripped:
                self.covered[idx] = self.covered[idx] or pending
            else:
                self.covered[idx] = self.covered[idx] or pending
                pending = False


# --------------------------------------------------------------- rules

_UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*?>[&\s]*\b(\w+)\s*[;,=({)]")
_RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*?):([^;]*)\)")
_NONDET_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|\btime\s*\(|"
    r"(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(")
_PTR_KEY_RE = re.compile(r"std::(?:map|set)\s*<\s*[^,>]*\*")
_WALLCLOCK_RE = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(")
_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` is still new: see below
_RAW_NEW_RE = re.compile(r"\bnew\b")
_RAW_DELETE_RE = re.compile(r"\bdelete\b(?!\s*;)")  # skips `= delete;`


def rel(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def check_unordered_iteration(path: str, code_lines: list[str],
                              emit: Callable[[int, str, str], None]) -> None:
    code = "\n".join(code_lines)
    unordered_names = set(_UNORDERED_DECL_RE.findall(code))
    for idx, line in enumerate(code_lines):
        for match in _RANGE_FOR_RE.finditer(line):
            range_expr = match.group(2)
            for name in unordered_names:
                if re.search(rf"\b{re.escape(name)}\b", range_expr):
                    emit(idx + 1, "unordered-iteration",
                         f"range-for over unordered container '{name}' — "
                         "iteration order is unspecified; use an "
                         "insertion-ordered FlatMap or sort first")
            if re.search(r"\.\s*cells\s*\(\s*\)", range_expr):
                emit(idx + 1, "unordered-iteration",
                     "range-for over SharedMemory::cells() — use "
                     "sorted_cells() for deterministic order")
        for name in unordered_names:
            # `.end()` alone is a find()-sentinel comparison, not a walk;
            # every genuine iteration needs a begin().
            if re.search(rf"\b{re.escape(name)}\s*\.\s*c?begin\s*\(", line):
                emit(idx + 1, "unordered-iteration",
                     f"iterator walk of unordered container '{name}' — "
                     "iteration order is unspecified")
        if re.search(r"\.\s*cells\s*\(\s*\)\s*\.\s*(?:begin|cbegin)\s*\(",
                     line):
            emit(idx + 1, "unordered-iteration",
                 "iterator walk of SharedMemory::cells() — use "
                 "sorted_cells() for deterministic order")


def check_nondeterministic_source(path: str, code_lines: list[str],
                                  emit: Callable[[int, str, str],
                                                 None]) -> None:
    for idx, line in enumerate(code_lines):
        if _NONDET_RE.search(line):
            emit(idx + 1, "nondeterministic-source",
                 "nondeterministic source in src/ — derive every draw and "
                 "timestamp from the run seed (support::Rng / SplitMix64)")


def check_pointer_key_order(path: str, code_lines: list[str],
                            emit: Callable[[int, str, str], None]) -> None:
    for idx, line in enumerate(code_lines):
        if _PTR_KEY_RE.search(line):
            emit(idx + 1, "pointer-key-order",
                 "ordered container keyed by raw pointer — pointer values "
                 "(and thus iteration order) vary run to run; key by a "
                 "stable id instead")


def check_raw_new_delete(path: str, code_lines: list[str],
                         emit: Callable[[int, str, str], None]) -> None:
    for idx, line in enumerate(code_lines):
        if _RAW_NEW_RE.search(line):
            emit(idx + 1, "raw-new-delete",
                 "raw `new` in a hot-path directory — allocate through "
                 "ObjectPool/Arena or a container")
        if _RAW_DELETE_RE.search(line):
            emit(idx + 1, "raw-new-delete",
                 "raw `delete` in a hot-path directory — pooled storage is "
                 "recycled, never freed mid-run")


_THREADPOOL_USE_RE = re.compile(r"\bThreadPool\b|\bparallel_for\s*\(")


def check_threadpool_shard_ordered(path: str, raw_lines: list[str],
                                   code_lines: list[str],
                                   emit: Callable[[int, str, str],
                                                  None]) -> None:
    """ThreadPool inside the engine only under a shard-ordered marker.

    src/sim promises bit-identical results across step_threads values, so
    every pooled fan-out (and every member holding a pool) must carry a
    // levnet-lint: shard-ordered(<how the results stay deterministic>)
    marker naming its ordered-aggregation strategy. The include line does
    not trigger (thread_pool.hpp never matches \\bThreadPool\\b); comments
    are stripped before matching, so prose mentions are free too.
    """
    markers = MarkerCoverage(raw_lines, _SHARD_MARKER_RE)
    for idx, line in enumerate(code_lines):
        if _THREADPOOL_USE_RE.search(line) and not markers.covered[idx]:
            emit(idx + 1, "threadpool-shard-ordered",
                 "ThreadPool/parallel_for in src/sim without a "
                 "shard-ordered marker — document the deterministic "
                 "aggregation with `// levnet-lint: shard-ordered(<how>)` "
                 "on or above this line")


# Member calls that turn a processor/module index into a network node. The
# [.>] prefix keeps declarations/definitions (`NodeId proc_node(...)`)
# out of scope — only call sites index endpoints.
_ENDPOINT_INDEX_RE = re.compile(r"[.>]\s*(?:proc_node|module_node)\s*\(")


def check_endpoint_liveness(path: str, raw_lines: list[str],
                            code_lines: list[str],
                            emit: Callable[[int, str, str], None]) -> None:
    """Endpoint indexing in src/ only under an endpoint-liveness marker.

    faults:procs= can kill processor endpoints, so a bare proc_node(p) /
    module_node(m) call may aim packets at a dead node. Every call site
    must state why its index is live (adopt_proc output, survivor remap
    output, fault-free context, ...) in a
    // levnet-lint: endpoint-liveness(<why>) marker.
    """
    markers = MarkerCoverage(raw_lines, _ENDPOINT_MARKER_RE)
    for idx, line in enumerate(code_lines):
        if _ENDPOINT_INDEX_RE.search(line) and not markers.covered[idx]:
            emit(idx + 1, "endpoint-liveness",
                 "endpoint indexed without a liveness argument — processor "
                 "endpoints can be dead under faults:procs=; document why "
                 "this index cannot name a dead endpoint with "
                 "`// levnet-lint: endpoint-liveness(<why>)` on or above "
                 "this line")


def check_wall_clock_confined(path: str, code_lines: list[str],
                              emit: Callable[[int, str, str], None]) -> None:
    """Wall-clock reads only in the analysis layer.

    The observability subsystem timestamps everything in virtual steps;
    src/analysis owns the one sanctioned wall-clock use (the informational
    wall_ms column). A clock read anywhere else — recorder, trace export,
    tools, tests, benches — would smuggle host time into artifacts that
    are pinned byte-identical across machines and thread counts.
    """
    for idx, line in enumerate(code_lines):
        if _WALLCLOCK_RE.search(line):
            emit(idx + 1, "wall-clock-confined",
                 "wall-clock read outside src/analysis — observability "
                 "timestamps are virtual (simulation steps); keep host "
                 "time in the analysis layer's wall_ms column")


# Blocking read primitives: C++ stdin handles, C stdio reads, and the
# POSIX file/socket calls. `(?<![\w)])::read` keeps member/static calls
# like MemOp::read() out of scope — only the global-namespace POSIX read
# qualifies. std::getline is blocking on any istream whose source is a
# pipe/socket, so it is confined wholesale; pure string splitting in the
# library uses find()/substr (see machine/run_io.cpp).
_BLOCKING_IO_RE = re.compile(
    r"std::cin\b|std::getline\s*\(|"
    r"\b(?:fgets|fread|fscanf|scanf|getchar|getc|fgetc)\s*\(|"
    r"(?<![\w)])::read\s*\(|"
    r"\b(?:recv|recvfrom|recvmsg|accept|socket|connect|listen|poll|select)"
    r"\s*\(")


def check_blocking_io_confined(path: str, code_lines: list[str],
                               emit: Callable[[int, str, str], None]) -> None:
    """Blocking I/O stays in src/serve/ (and tools/, which is not scanned).

    The library below the serving layer is a pure function of its inputs:
    src/machine parses strings it is handed, src/sim and src/emulation
    never touch the outside world. A blocking read in those layers would
    make library behavior depend on process context (tty vs pipe, socket
    state), which is both untestable and a determinism leak.
    """
    for idx, line in enumerate(code_lines):
        if _BLOCKING_IO_RE.search(line):
            emit(idx + 1, "blocking-io-confined",
                 "blocking I/O primitive in the library outside src/serve — "
                 "keep stdin/socket reads in the serving layer or tools/; "
                 "the library transforms strings it is handed")


def check_registry_sorted(path: str, raw_text: str, code_text: str,
                          emit: Callable[[int, str, str], None]) -> None:
    """Entries between sorted-table markers must be in ascending key order.

    The key of an entry is the first string literal after the entry's
    opening brace at nesting depth 1 relative to the table initializer.
    """
    raw_lines = raw_text.split("\n")
    table_name = None
    table_start = None
    for idx, line in enumerate(raw_lines):
        open_match = re.search(r"levnet-lint:\s*sorted-table\(([\w-]+)\)",
                               line)
        if open_match:
            if table_name is not None:
                emit(idx + 1, "registry-sorted",
                     f"sorted-table({open_match.group(1)}) opened inside "
                     f"unclosed table '{table_name}'")
            table_name = open_match.group(1)
            table_start = idx + 1
            continue
        if re.search(r"levnet-lint:\s*end-table", line):
            if table_name is None:
                emit(idx + 1, "registry-sorted",
                     "end-table with no open sorted-table marker")
                continue
            _check_table_block(path, raw_lines, table_start, idx, table_name,
                               emit)
            table_name = None
            table_start = None
    if table_name is not None:
        emit(len(raw_lines), "registry-sorted",
             f"sorted-table({table_name}) never closed with "
             "`// levnet-lint: end-table`")


def _check_table_block(path: str, raw_lines: list[str], start: int, end: int,
                       name: str,
                       emit: Callable[[int, str, str], None]) -> None:
    block = "\n".join(raw_lines[start:end])
    clean = strip_comments_and_strings(block)
    # Re-scan the *raw* block for string literals, but walk depth on the
    # cleaned text so braces in comments/strings don't confuse nesting.
    depth = 0
    awaiting_key = False
    keys: list[tuple[str, int]] = []  # (key, 1-based line in file)
    line_no = start + 1
    i = 0
    raw_block = "\n".join(raw_lines[start:end])
    while i < len(clean):
        c = clean[i]
        if c == "\n":
            line_no += 1
        elif c == "{":
            depth += 1
            if depth == 2:
                awaiting_key = True
        elif c == "}":
            depth -= 1
        elif c == '"' and awaiting_key:
            # The cleaned text keeps only the quotes; read the literal's
            # contents from the raw block at the same offset.
            j = raw_block.index('"', i)
            k = raw_block.index('"', j + 1)
            keys.append((raw_block[j + 1:k], line_no))
            awaiting_key = False
            i = k + 1
            continue
        i += 1
    if not keys:
        emit(start, "registry-sorted",
             f"sorted-table({name}) contains no keyed entries")
        return
    for (prev, _), (cur, cur_line) in zip(keys, keys[1:]):
        if cur < prev:
            emit(cur_line, "registry-sorted",
                 f"table '{name}' not name-sorted: '{cur}' after '{prev}'")


def check_pragma_once(path: str, raw_text: str,
                      emit: Callable[[int, str, str], None]) -> None:
    head = raw_text.split("\n")[:10]
    if not any(re.match(r"\s*#\s*pragma\s+once\b", line) for line in head):
        emit(1, "pragma-once",
             "header missing #pragma once in its first 10 lines")


# --------------------------------------------------------------- driver

def in_dir(rel_path: str, *dirs: str) -> bool:
    return any(rel_path == d or rel_path.startswith(d + "/") for d in dirs)


def scan_file(path: str, root: str, findings: list[Finding]) -> None:
    rel_path = rel(path, root)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_text = f.read()
    except OSError as error:
        findings.append(Finding(rel_path, 1, "io-error", str(error)))
        return
    raw_lines = raw_text.split("\n")
    code_text = strip_comments_and_strings(raw_text)
    code_lines = code_text.split("\n")

    pre_existing = len(findings)
    suppressions = Suppressions(raw_lines, rel_path, findings)
    del pre_existing

    staged: list[Finding] = []

    def emit(line: int, rule: str, message: str) -> None:
        if rel_path in ALLOWLIST.get(rule, set()):
            return
        if rule in suppressions.active(line):
            return
        staged.append(Finding(rel_path, line, rule, message))

    if in_dir(rel_path, "src", "tools", "tests", "bench", "examples"):
        check_unordered_iteration(rel_path, code_lines, emit)
        check_pointer_key_order(rel_path, code_lines, emit)
    if in_dir(rel_path, "src"):
        check_nondeterministic_source(rel_path, code_lines, emit)
    if in_dir(rel_path, "src/sim", "src/support"):
        check_raw_new_delete(rel_path, code_lines, emit)
    if in_dir(rel_path, "src/sim"):
        check_threadpool_shard_ordered(rel_path, raw_lines, code_lines, emit)
    if in_dir(rel_path, "src"):
        check_endpoint_liveness(rel_path, raw_lines, code_lines, emit)
    if not in_dir(rel_path, "src/analysis"):
        check_wall_clock_confined(rel_path, code_lines, emit)
    if in_dir(rel_path, "src") and not in_dir(rel_path, "src/serve"):
        check_blocking_io_confined(rel_path, code_lines, emit)
    check_registry_sorted(rel_path, raw_text, code_text, emit)
    if rel_path.endswith(".hpp"):
        check_pragma_once(rel_path, raw_text, emit)
    if rel_path == "src/sim/packet.hpp":
        if not re.search(r"static_assert\s*\(\s*sizeof\s*\(\s*Packet\s*\)"
                         r"\s*==\s*56", raw_text):
            emit(1, "packet-layout-assert",
                 "packet.hpp lost its static_assert(sizeof(Packet) == 56) "
                 "layout pin")

    findings.extend(staged)


def scan_tree(root: str) -> list[Finding]:
    findings: list[Finding] = []
    paths: list[str] = []
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith("build")
                                 and d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith((".hpp", ".cpp", ".h", ".cc")):
                    paths.append(os.path.join(dirpath, filename))
    for path in sorted(paths):
        scan_file(path, root, findings)
    return findings


# ------------------------------------------------------------ self-test

_SELFTEST_CASES: list[tuple[str, str, str, bool]] = [
    # (relative path, source text, expected rule, suppressed?)
    ("src/pram/viol_iter.cpp",
     "#include <unordered_map>\n"
     "void f() {\n"
     "  std::unordered_map<int, int> table;\n"
     "  for (const auto& [k, v] : table) { (void)k; (void)v; }\n"
     "}\n",
     "unordered-iteration", False),
    ("src/pram/ok_iter.cpp",
     "#include <unordered_map>\n"
     "void f() {\n"
     "  std::unordered_map<int, int> table;\n"
     "  // levnet-lint: allow(unordered-iteration): self-test reason\n"
     "  for (const auto& [k, v] : table) { (void)k; (void)v; }\n"
     "}\n",
     "unordered-iteration", True),
    ("src/pram/viol_cells.cpp",
     "void f(const levnet::pram::SharedMemory& m) {\n"
     "  for (const auto& kv : m.cells()) { (void)kv; }\n"
     "}\n",
     "unordered-iteration", False),
    ("src/sim/viol_rand.cpp",
     "#include <cstdlib>\n"
     "int f() { return rand(); }\n",
     "nondeterministic-source", False),
    ("src/sim/viol_clock.cpp",
     "#include <chrono>\n"
     "auto f() { return std::chrono::steady_clock::now(); }\n",
     "nondeterministic-source", False),
    ("src/sim/ok_clock.cpp",
     "#include <chrono>\n"
     "// levnet-lint: allow(nondeterministic-source): self-test reason\n"
     "auto f() { return std::chrono::steady_clock::now(); }\n",
     "nondeterministic-source", True),
    ("src/routing/viol_ptrkey.cpp",
     "#include <map>\n"
     "struct Router;\n"
     "std::map<Router*, int> g_ranks;\n",
     "pointer-key-order", False),
    ("src/support/viol_new.cpp",
     "int* f() { return new int(7); }\n",
     "raw-new-delete", False),
    ("src/support/ok_deleted_fn.cpp",
     "struct NoCopy { NoCopy(const NoCopy&) = delete; };\n",
     "raw-new-delete", True),  # `= delete;` is not a deallocation
    ("src/sim/viol_pool.cpp",
     "#include \"support/thread_pool.hpp\"\n"
     "void f(levnet::support::ThreadPool& pool) {\n"
     "  pool.parallel_for(4, [](std::size_t) {});\n"
     "}\n",
     "threadpool-shard-ordered", False),
    ("src/sim/ok_pool_marker.cpp",
     "#include \"support/thread_pool.hpp\"\n"
     "// levnet-lint: shard-ordered(self-test: results merged in shard order)\n"
     "void f(levnet::support::ThreadPool& pool) {\n"
     "  // levnet-lint: shard-ordered(self-test: worker writes are disjoint)\n"
     "  pool.parallel_for(4, [](std::size_t) {});\n"
     "}\n",
     "threadpool-shard-ordered", True),
    ("src/sim/ok_pool_allow.cpp",
     "#include \"support/thread_pool.hpp\"\n"
     "// levnet-lint: allow(threadpool-shard-ordered): self-test reason\n"
     "void f(levnet::support::ThreadPool&) {}\n",
     "threadpool-shard-ordered", True),
    ("src/emulation/viol_endpoint.cpp",
     "void f(const Fabric& fabric, unsigned p, Engine& engine) {\n"
     "  engine.inject(fabric.proc_node(p));\n"
     "}\n",
     "endpoint-liveness", False),
    ("src/emulation/ok_endpoint_marker.cpp",
     "void f(const Fabric& fabric, unsigned p, Engine& engine) {\n"
     "  // levnet-lint: endpoint-liveness(self-test: p is adopt_proc output)\n"
     "  engine.inject(fabric.proc_node(p));\n"
     "}\n",
     "endpoint-liveness", True),
    ("src/emulation/ok_endpoint_decl.hpp",
     "#pragma once\n"
     "struct Fabric {\n"
     "  unsigned proc_node(unsigned p) const noexcept;\n"
     "  unsigned module_node(unsigned m) const noexcept;\n"
     "};\n",
     "endpoint-liveness", True),  # declarations are not call sites
    ("tools/viol_wallclock.cpp",
     "#include <chrono>\n"
     "auto f() { return std::chrono::steady_clock::now(); }\n",
     "wall-clock-confined", False),
    ("bench/ok_wallclock_allow.cpp",
     "#include <chrono>\n"
     "// levnet-lint: allow(wall-clock-confined): self-test reason\n"
     "auto f() { return std::chrono::high_resolution_clock::now(); }\n",
     "wall-clock-confined", True),
    ("src/analysis/ok_wallclock_dir.cpp",
     "#include <chrono>\n"
     "// levnet-lint: allow(nondeterministic-source): self-test reason\n"
     "auto f() { return std::chrono::steady_clock::now(); }\n",
     "wall-clock-confined", True),  # the analysis layer owns wall_ms
    ("src/machine/viol_stdin.cpp",
     "#include <iostream>\n"
     "#include <string>\n"
     "void f(std::string& line) { std::getline(std::cin, line); }\n",
     "blocking-io-confined", False),
    ("src/emulation/viol_socket.cpp",
     "#include <sys/socket.h>\n"
     "int f() { return socket(1, 1, 0); }\n",
     "blocking-io-confined", False),
    ("src/machine/ok_blocking_allow.cpp",
     "#include <unistd.h>\n"
     "// levnet-lint: allow(blocking-io-confined): self-test reason\n"
     "long f(int fd, char* buf) { return ::read(fd, buf, 1); }\n",
     "blocking-io-confined", True),
    ("src/serve/ok_serve_dir.cpp",
     "#include <iostream>\n"
     "#include <string>\n"
     "void f(std::string& line) { std::getline(std::cin, line); }\n",
     "blocking-io-confined", True),  # the serving layer owns blocking reads
    ("src/pram/ok_memop_read.cpp",
     "struct MemOp { static MemOp read(unsigned); };\n"
     "MemOp f(unsigned c) { return MemOp::read(c); }\n",
     "blocking-io-confined", True),  # member/static read() is not POSIX read
    ("src/machine/viol_table.cpp",
     "// levnet-lint: sorted-table(selftest)\n"
     "static const char* kTable[][2] = {\n"
     "    {\"zebra\", \"last\"},\n"
     "    {\"aardvark\", \"first\"},\n"
     "};\n"
     "// levnet-lint: end-table\n",
     "registry-sorted", False),
    ("src/machine/ok_table.cpp",
     "// levnet-lint: sorted-table(selftest-ok)\n"
     "static const char* kTable[][2] = {\n"
     "    {\"aardvark\", \"first\"},\n"
     "    {\"zebra\", \"last\"},\n"
     "};\n"
     "// levnet-lint: end-table\n",
     "registry-sorted", True),
    ("src/support/viol_header.hpp",
     "// a header without the pragma\n"
     "namespace levnet {}\n",
     "pragma-once", False),
    ("src/sim/packet.hpp",
     "#pragma once\n"
     "struct Packet { int x; };\n"
     "// static_assert intentionally absent\n",
     "packet-layout-assert", False),
]


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="levnet_lint_selftest_") as tmp:
        for rel_path, source, rule, _ in _SELFTEST_CASES:
            full = os.path.join(tmp, rel_path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(source)
        findings = scan_tree(tmp)
        by_file: dict[str, list[Finding]] = {}
        for finding in findings:
            by_file.setdefault(finding.path, []).append(finding)
        for rel_path, _, rule, suppressed in _SELFTEST_CASES:
            fired = [f for f in by_file.get(rel_path, [])
                     if f.rule == rule]
            if suppressed and fired:
                print(f"SELF-TEST FAIL: {rel_path}: allow() did not "
                      f"silence [{rule}]: {fired[0].render()}")
                failures += 1
            elif not suppressed and not fired:
                print(f"SELF-TEST FAIL: {rel_path}: expected [{rule}] "
                      "to fire, got "
                      f"{[f.rule for f in by_file.get(rel_path, [])]}")
                failures += 1
        # A reasonless allow() must itself be reported.
        reasonless = os.path.join(tmp, "src", "support", "reasonless.cpp")
        with open(reasonless, "w", encoding="utf-8") as f:
            f.write("// levnet-lint: allow(raw-new-delete)\n"
                    "int* f() { return new int; }\n")
        bad = [f for f in scan_tree(tmp) if f.path.endswith("reasonless.cpp")]
        if not any(f.rule == "bad-suppression" for f in bad):
            print("SELF-TEST FAIL: reasonless allow() was not reported")
            failures += 1
        if not any(f.rule == "raw-new-delete" for f in bad):
            print("SELF-TEST FAIL: reasonless allow() suppressed the rule")
            failures += 1
    rules_covered = {rule for _, _, rule, _ in _SELFTEST_CASES}
    missing = set(RULES) - rules_covered
    if missing:
        print(f"SELF-TEST FAIL: no case covers: {', '.join(sorted(missing))}")
        failures += 1
    if failures:
        print(f"levnet-lint self-test: {failures} failure(s)")
        return 1
    print(f"levnet-lint self-test: all {len(RULES)} rules fire and "
          "suppress correctly")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="levnet_lint",
        description="determinism invariant checker for the levnet tree")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the checkout containing "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on synthetic "
                             "violations")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"levnet-lint: no such root: {root}", file=sys.stderr)
        return 2
    findings = scan_tree(root)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"levnet-lint: {len(findings)} finding(s)")
        return 1
    print("levnet-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
