"""Pass registry and the audit driver, shared by the CLI and selftest."""

from __future__ import annotations

from cxx import SourceTree
from report import Report
import pass_snapshot
import pass_keycov
import pass_determinism
import pass_probe

PASSES = {
    "snapshot-coverage": pass_snapshot.run,
    "key-coverage": pass_keycov.run,
    "determinism": pass_determinism.run,
    "probe-purity": pass_probe.run,
}


def audit(root: str, checks: list[str] | None = None) -> Report:
    tree = SourceTree(root)
    report = Report()
    if not tree.src.is_dir():
        report.add("audit", "bad-root", str(tree.src), 1, "src",
                   "audit root has no src/ directory")
        return report
    for name in (checks or PASSES):
        PASSES[name](tree, report)
    check_annotations(tree, report, every_pass_ran=checks is None)
    return report


def check_annotations(tree: SourceTree, report: Report,
                      every_pass_ran: bool) -> None:
    """Malformed skip annotations are findings: the escape hatch
    requires a named target and a non-empty reason. So is a well-formed
    one that no pass honored (once every pass has run): it excuses
    nothing, and a later finding it happens to match would go unseen."""
    honored = {(s["file"], s["line"]) for s in report.skips_used}
    for sf in tree.files():
        rel = tree.rel(sf.path)
        for s in sf.skips:
            if s.malformed:
                report.add(
                    "audit", "malformed-skip", rel,
                    s.line, s.what or "<unnamed>",
                    "bh-audit skip annotation must be "
                    "'// bh-audit: skip(<what>) -- <reason>' with a "
                    "non-empty reason")
            elif every_pass_ran and (rel, s.line) not in honored:
                report.add(
                    "audit", "unused-skip", rel, s.line, s.what,
                    "no pass honors this skip annotation; delete it")
