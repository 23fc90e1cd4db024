"""Pass 1 — snapshot coverage.

For every class that declares `transfer(StateIo&)`, every instance data
member declared in its header must be referenced (by name) in the
transfer() body, the one body that both saves and loads it. This is
what turns "added a field, forgot the snapshot" from a silent
resume-corruption bug into a CI failure.

Members that are legitimately not part of the serialized state
(constructor-derived configuration, non-owning wiring pointers, state
saved through another component) carry an explicit annotation in the
header::

    Type member; // bh-audit: skip(member) -- constructor-derived config

The annotation must name the member and give a reason; it may sit on
the declaration line, the line above it, or anywhere inside the class
body (for members whose exemption is class-wide policy).
"""

from __future__ import annotations

from cxx import SourceTree, SourceFile, CxxClass, token_in
from report import Report

CHECK = "snapshot-coverage"


def _declares_transfer(sf: SourceFile, cls: CxxClass) -> bool:
    body = sf.stripped[cls.body_start:cls.body_end]
    return "transfer" in body and "StateIo" in body


def _function_text(tree: SourceTree, sf: SourceFile, cls: CxxClass,
                   name: str) -> str | None:
    """Concatenated body text of every definition of cls::name, looking
    in the class's own header first, then the paired .cc."""
    bodies = sf.find_functions(name, cls.name)
    cc = tree.paired_source(sf.path)
    if cc is not None:
        bodies.extend(cc.find_functions(name, cls.name))
    if not bodies:
        return None
    return "\n".join(b.body_text for b in bodies)


def run(tree: SourceTree, report: Report) -> None:
    classes_checked = 0
    members_checked = 0
    for path in tree.paths():
        if path.suffix != ".h":
            continue
        sf = tree.file(path)
        for cls in sf.classes():
            if not _declares_transfer(sf, cls):
                continue
            body = _function_text(tree, sf, cls, "transfer")
            if body is None:
                # Pure declaration with no body anywhere we can see:
                # nothing to check against.
                continue
            classes_checked += 1
            cls_range = (sf.line_of(cls.body_start),
                         sf.line_of(cls.body_end))
            rel = tree.rel(path)
            for member in cls.members:
                members_checked += 1
                if token_in(member.name, body):
                    continue
                skip = sf.skip_for(member.name, line=member.line,
                                   line_range=cls_range)
                if skip is not None:
                    report.note_skip(CHECK, rel, skip.line,
                                     member.name, skip.reason)
                    continue
                report.add(
                    CHECK, "member-not-serialized", rel, member.line,
                    f"{cls.name}::{member.name}",
                    f"data member is not referenced in transfer(); "
                    f"transfer it or annotate the declaration with "
                    f"'// bh-audit: skip({member.name}) -- <reason>'")
    report.note_stats(CHECK, classes=classes_checked,
                      members=members_checked)
