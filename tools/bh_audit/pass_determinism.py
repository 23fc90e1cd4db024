"""Pass 3 — determinism lint.

Every headline property of the repo (byte-identical warm runs, kill/
resume equality, job-count and tick-mode invariance) assumes the
simulation and its serialized outputs are pure functions of the config.
This pass bans the constructs that silently break that:

- ``rand()`` / ``srand()`` / ``random()``: hidden global RNG state
  (the codebase threads explicit ``SplitMix64`` streams instead);
- ``time()`` / ``std::chrono::*_clock::now()``: wall-clock input;
- ``getenv()`` outside ``src/common/log.h``: settings enter at the
  program's edge (bh_bench's option table) and reach the library as
  values (``ConfigDefaults``, ``RunContext``), so a stray getenv is an
  input no caller can see and no content address records. The BH_LOG
  gate in log.h is the one read, and it changes only what is printed;
- iteration over ``std::unordered_map`` / ``std::unordered_set`` inside
  any function that feeds an ordered output (a StateWriter or the JSON
  export): hash-table iteration order is
  implementation-defined, so bytes would differ across
  libraries/restarts. The snapshot codec's saveUnorderedMap() is the
  one sanctioned path — it records and reconstructs the order;
- ``std::map`` / ``std::set`` keyed by pointers: address-dependent
  ordering differs run to run;
- ``thread_local`` and mutable (non-``const``, non-``constexpr``)
  ``static`` objects: process-wide state that configures a run behind
  the caller's back. How a point runs travels as an explicit
  ``RunContext``; a cache of a pure function is the one legitimate
  global and carries a reasoned skip.

Wall-clock use that is deliberately outside the deterministic core (a
host-side timeout, say) is annotated in place::

    steadyNowMs(); // bh-audit: skip(clock) -- host timeout, not sim

Rule names for skip(): rand, time, clock, getenv, unordered-iter,
pointer-key, global-state.
"""

from __future__ import annotations

import re
from pathlib import Path

from cxx import SourceTree, SourceFile
from report import Report

CHECK = "determinism"

LOG_HEADER = Path("src/common/log.h")

_BANNED = (
    ("rand", re.compile(r"\b(?:s?rand|random)\s*\(")),
    ("time", re.compile(r"\btime\s*\(")),
    ("clock", re.compile(r"\b\w*_clock\s*::\s*now\s*\(")),
)
_GETENV = re.compile(r"\bgetenv\s*\(")

# The lookbehind keeps vector<unordered_map<...>> from counting: only a
# declaration whose *outermost* type is the hash container makes its
# range-for order-sensitive (element maps go through saveUnorderedMap).
_UNORDERED_DECL = re.compile(
    r"(?<![<,])\bstd\s*::\s*unordered_(?:map|set)\s*<[^;{]*?>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*[;={(,)]")
_RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*[^;:()]*?:\s*([A-Za-z_][\w.\->]*)\s*\)")
_POINTER_KEY = re.compile(
    r"std\s*::\s*(?:map|set)\s*<\s*[^,>]*\*")

_THREAD_LOCAL = re.compile(r"\bthread_local\b")
_STATIC = re.compile(r"\bstatic\b")
_MUTABLE_POINTER = re.compile(r"\*\s*(?!const\b)[A-Za-z_]")
_LAST_IDENT = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*$")


def _declaration(text: str, start: int) -> tuple[str, str]:
    """The declaration text from @p start up to its first top-level
    ``;``, ``=``, ``{`` or ``(`` (``<...>`` template arguments skipped),
    and that terminator. A ``(`` first means a function."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">" and depth:
            depth -= 1
        elif depth == 0 and c in ";={(":
            return text[start:i], c
    return text[start:], ""


def _global_state(sf: SourceFile):
    """(offset, symbol) of every thread_local or mutable static object
    declared in @p sf."""
    for m in _THREAD_LOCAL.finditer(sf.stripped):
        decl, _ = _declaration(sf.stripped, m.end())
        name = _LAST_IDENT.search(decl.strip())
        yield m.start(), "thread_local " + (name.group(1) if name else "?")
    for m in _STATIC.finditer(sf.stripped):
        decl, end = _declaration(sf.stripped, m.end())
        words = decl.split()
        if end in ("(", "") or not words:
            continue  # A function (or not a declaration at all).
        if words[0] in ("constexpr", "thread_local"):
            continue  # Immutable, or already flagged as thread_local.
        if words[0] == "const" and not _MUTABLE_POINTER.search(decl):
            continue  # const object (a `const T *p` is still mutable).
        name = _LAST_IDENT.search(decl.strip())
        yield m.start(), "static " + (name.group(1) if name else "?")


# A function participates in an ordered-output path when its body or
# signature touches one of these.
_ORDERED_MARKERS = ("StateWriter", "JsonValue")


def _flag(report: Report, tree: SourceTree, sf: SourceFile, rule: str,
          offset: int, symbol: str, message: str) -> None:
    line = sf.line_of(offset)
    skip = sf.skip_for(rule, line=line)
    rel = tree.rel(sf.path)
    if skip is not None:
        report.note_skip(CHECK, rel, skip.line, rule, skip.reason)
        return
    report.add(CHECK, rule, rel, line, symbol, message)


def _unordered_names(sf: SourceFile, paired: SourceFile | None) -> set:
    names = set()
    for source in (sf, paired):
        if source is None:
            continue
        for m in _UNORDERED_DECL.finditer(source.stripped):
            names.add(m.group(1))
    return names


def run(tree: SourceTree, report: Report) -> None:
    files_checked = 0
    for path in tree.paths():
        sf = tree.file(path)
        files_checked += 1
        rel_to_root = path.relative_to(tree.root)

        for rule, pattern in _BANNED:
            for m in pattern.finditer(sf.stripped):
                _flag(report, tree, sf, rule, m.start(),
                      m.group(0).rstrip("(").strip(),
                      "non-deterministic input in simulation code "
                      "(wall clock / global RNG); thread explicit "
                      "state instead")

        if rel_to_root != LOG_HEADER:
            for m in _GETENV.finditer(sf.stripped):
                _flag(report, tree, sf, "getenv", m.start(), "getenv",
                      "environment read in the library: parse the "
                      "setting at the program's edge and pass it as a "
                      "value (ConfigDefaults, RunContext)")

        for m in _POINTER_KEY.finditer(sf.stripped):
            _flag(report, tree, sf, "pointer-key", m.start(),
                  m.group(0).replace(" ", ""),
                  "ordered container keyed by pointer: iteration "
                  "order is the allocator's, not the program's")

        for offset, symbol in _global_state(sf):
            _flag(report, tree, sf, "global-state", offset, symbol,
                  "process-wide mutable state: pass it explicitly "
                  "(RunContext) instead")

        # Unordered-container iteration inside ordered-output functions.
        paired = (tree.paired_header(path) if path.suffix == ".cc"
                  else None)
        unordered = _unordered_names(sf, paired)
        if not unordered:
            continue
        for fn in sf.all_function_bodies():
            haystack = fn.decl_text + fn.body_text
            if not any(marker in haystack
                       for marker in _ORDERED_MARKERS):
                continue
            for m in _RANGE_FOR.finditer(fn.body_text):
                base = re.split(r"[.\-]", m.group(1))[0]
                if base not in unordered:
                    continue
                _flag(report, tree, sf, "unordered-iter",
                      fn.start + 1 + m.start(),
                      f"{fn.name}(): for(... : {m.group(1)})",
                      "iterating a hash container on an "
                      "ordered-output path; order is "
                      "implementation-defined — use "
                      "saveUnorderedMap() or sort first")
            for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*begin\s*\(",
                                 fn.body_text):
                if m.group(1) not in unordered:
                    continue
                _flag(report, tree, sf, "unordered-iter",
                      fn.start + 1 + m.start(),
                      f"{fn.name}(): {m.group(1)}.begin()",
                      "iterating a hash container on an "
                      "ordered-output path; order is "
                      "implementation-defined — use "
                      "saveUnorderedMap() or sort first")
    report.note_stats(CHECK, files=files_checked)
