"""Pass 2 — experiment-key coverage.

ExperimentConfig is the identity of a simulation: every field that can
change a result must reach the content address — experimentKey() or
the default-folding in resolveExperimentConfig(). A field missing from
both aliases distinct simulations onto one store record, so a warm
store would serve one experiment's result for another.

The pass parses the ExperimentConfig struct out of src/sim/experiment.h
and checks `config.<field>` / `resolved.<field>` token references in
the two function bodies.

A field that deliberately stays out of the key carries::

    Type field; // bh-audit: skip(field) -- <why it cannot alias>
"""

from __future__ import annotations

import re
from pathlib import Path

from cxx import SourceTree
from report import Report

CHECK = "key-coverage"

CONFIG_HEADER = Path("src/sim/experiment.h")
KEY_SOURCE = Path("src/sim/experiment.cc")
CONFIG_STRUCT = "ExperimentConfig"


def _field_ref(owner: str, field: str, text: str) -> bool:
    return re.search(r"\b" + re.escape(owner) + r"\s*\.\s*" +
                     re.escape(field) + r"\b", text) is not None


def run(tree: SourceTree, report: Report) -> None:
    header_path = tree.root / CONFIG_HEADER
    key_path = tree.root / KEY_SOURCE
    for required in (header_path, key_path):
        if not required.exists():
            report.add(CHECK, "missing-source", tree.rel(required), 1,
                       required.name,
                       "file required by the key-coverage pass is "
                       "missing")
            return

    header = tree.file(header_path)
    config = header.get_class(CONFIG_STRUCT)
    if config is None:
        report.add(CHECK, "missing-struct", tree.rel(header_path), 1,
                   CONFIG_STRUCT, "struct not found in header")
        return

    def bodies(sf, name):
        found = sf.find_functions(name)
        return "\n".join(b.body_text for b in found) if found else None

    key_cc = tree.file(key_path)
    key_text = bodies(key_cc, "experimentKey")
    resolve_text = bodies(key_cc, "resolveExperimentConfig")
    for name, text in (("experimentKey", key_text),
                       ("resolveExperimentConfig", resolve_text)):
        if text is None:
            report.add(CHECK, "missing-function", str(KEY_SOURCE), 1,
                       name,
                       "function body required by the key-coverage "
                       "pass was not found")
            return

    rel = tree.rel(header_path)
    cls_range = (header.line_of(config.body_start),
                 header.line_of(config.body_end))

    fields_checked = 0
    for member in config.members:
        fields_checked += 1
        if (_field_ref("config", member.name, key_text) or
                _field_ref("resolved", member.name, resolve_text)):
            continue
        skip = header.skip_for(member.name, line=member.line,
                               line_range=cls_range)
        if skip is not None:
            report.note_skip(CHECK, rel, skip.line, member.name,
                             skip.reason)
            continue
        report.add(
            CHECK, "field-not-in-key", rel, member.line,
            f"{CONFIG_STRUCT}::{member.name}",
            "field reaches neither experimentKey() nor "
            "resolveExperimentConfig(); distinct configs would alias "
            "one store record")
    report.note_stats(CHECK, fields=fields_checked)
