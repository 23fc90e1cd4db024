"""bh_audit — static invariant audit over src/.

Four passes prove, at CI time, the structural halves of the repo's
dynamic guarantees:

  snapshot-coverage   every data member of a snapshottable class is
                      referenced in its one transfer() body
  key-coverage        every ExperimentConfig field reaches the content
                      address
  determinism         no wall clocks / global RNG / stray getenv /
                      hash-order-dependent output / pointer-keyed
                      ordering in simulation code
  probe-purity        probeActReleaseCycle overrides are const and
                      structurally side-effect free

Usage:
  python3 tools/bh_audit [--root DIR] [--json REPORT.json] [--quiet]
  python3 tools/bh_audit --selftest

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Suppressions: `// bh-audit: skip(<what>) -- <reason>` on or above the
flagged line (see each pass's module docstring for what `<what>` names).
An annotation without a reason is itself a finding, and so is one that
no pass honors (a full run only: `--check` leaves the other passes'
annotations unused).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from audit import PASSES, audit  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bh_audit",
        description="Static invariant audit over src/ "
                    "(see module docstring).")
    parser.add_argument(
        "--root",
        default=os.path.normpath(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..", "..")),
        help="repo root containing src/ (default: two levels above "
             "this tool)")
    parser.add_argument("--json", metavar="PATH",
                        help="write a machine-readable report")
    parser.add_argument("--check", action="append",
                        choices=sorted(PASSES),
                        help="run only the named pass (repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture-based self test: each "
                             "pass must catch its injected violation "
                             "and stay silent on the clean fixture")
    args = parser.parse_args(argv)

    if args.selftest:
        import selftest
        return selftest.run(verbose=not args.quiet)

    report = audit(args.root, args.check)
    report.print_findings(sys.stderr)
    if args.json:
        report.dump(args.json)
    if not args.quiet:
        stats = " ".join(
            f"{name}[{' '.join(f'{k}={v}' for k, v in sorted(s.items()))}]"
            for name, s in sorted(report.pass_stats.items()))
        print(f"bh_audit: {len(report.findings)} finding(s), "
              f"{len(report.skips_used)} skip(s) honored — {stats}")
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
