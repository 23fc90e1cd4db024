"""Fixture-pinned self test.

Two miniature source trees under fixtures/ pin the scanner and every
pass:

- ``clean/``   exercises each pass on correct code (including a
  well-formed skip annotation) and must produce ZERO findings — this is
  what catches a scanner regression that silently stops parsing.
- ``violations/`` injects one instance of every violation class the
  tool exists to catch; each expected (check, rule, symbol) triple must
  appear, and nothing unexpected may.

Run via ``python3 tools/bh_audit --selftest`` (ctest: audit_selftest).
"""

from __future__ import annotations

import sys
from pathlib import Path

from audit import audit

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Every violation the fixtures inject, as (check, rule, symbol).
EXPECTED_VIOLATIONS = {
    ("snapshot-coverage", "member-not-serialized", "Widget::missed"),
    ("snapshot-coverage", "member-not-serialized", "Widget::tuned"),
    ("key-coverage", "field-not-in-key",
     "ExperimentConfig::stealthFactor"),
    ("determinism", "clock", "steady_clock::now"),
    ("determinism", "unordered-iter", "transfer(): for(... : table)"),
    ("determinism", "global-state", "thread_local tlDepth"),
    ("determinism", "global-state", "static mutex"),
    ("determinism", "global-state", "static name"),
    ("determinism", "getenv", "getenv"),
    ("probe-purity", "non-const-probe",
     "EagerMitigation::probeActReleaseCycle"),
    ("probe-purity", "member-mutation",
     "EagerMitigation::probeActReleaseCycle: probes_"),
    ("audit", "malformed-skip", "tuned"),
    ("audit", "unused-skip", "counter"),
}

# The clean tree must actually engage each pass; a zero here means the
# scanner stopped seeing the fixture, not that the fixture is clean.
CLEAN_MIN_STATS = {
    "snapshot-coverage": {"classes": 1, "members": 2},
    "key-coverage": {"fields": 2},
    "determinism": {"files": 5},
    "probe-purity": {"overrides": 1},
}


def _fail(verbose: bool, lines: list[str], message: str) -> None:
    lines.append(f"selftest: FAIL: {message}")
    if verbose:
        print(lines[-1], file=sys.stderr)


def run(verbose: bool = True) -> int:
    failures: list[str] = []

    clean = audit(str(FIXTURES / "clean"))
    for f in clean.findings:
        _fail(verbose, failures,
              f"clean fixture produced a finding: {f.format()}")
    for check, minimums in CLEAN_MIN_STATS.items():
        stats = clean.pass_stats.get(check, {})
        for key, minimum in minimums.items():
            if stats.get(key, 0) < minimum:
                _fail(verbose, failures,
                      f"clean fixture: {check} reports {key}="
                      f"{stats.get(key, 0)}, expected >= {minimum} — "
                      f"the scanner is no longer seeing the fixture")
    if not clean.skips_used:
        _fail(verbose, failures,
              "clean fixture: the well-formed skip annotation was not "
              "honored")

    bad = audit(str(FIXTURES / "violations"))
    got = {(f.check, f.rule, f.symbol) for f in bad.findings}
    for triple in sorted(EXPECTED_VIOLATIONS - got):
        _fail(verbose, failures,
              f"violations fixture: injected violation not caught: "
              f"{'/'.join(triple)}")
    for triple in sorted(got - EXPECTED_VIOLATIONS):
        _fail(verbose, failures,
              f"violations fixture: unexpected finding: "
              f"{'/'.join(triple)}")

    if failures:
        if verbose:
            print(f"selftest: {len(failures)} failure(s)",
                  file=sys.stderr)
        return 1
    if verbose:
        print(f"selftest: OK — clean fixture silent, all "
              f"{len(EXPECTED_VIOLATIONS)} injected violations caught")
    return 0
