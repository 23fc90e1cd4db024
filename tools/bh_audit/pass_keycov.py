"""Pass 2 — experiment-key and wire-protocol coverage.

ExperimentConfig is the identity of a simulation: every field that can
change a result must reach (a) the content address — experimentKey() or
the default-folding in resolveExperimentConfig() — and (b) both sides
of the sweep-service codec (experimentConfigToJson /
experimentConfigFromJson in src/svc/protocol.cc). A field missing from
(a) aliases distinct simulations onto one store record; a field missing
from (b) silently drops configuration on the wire, so a worker runs a
different experiment than the coordinator leased.

The pass parses the ExperimentConfig struct out of src/sim/experiment.h
and checks `config.<field>` / `resolved.<field>` token references in
the named function bodies. Struct-valued fields (mix, bh) are
recursed into for the protocol codec: their leaf fields must appear as
`.<leaf>` references in both codec directions.

A field that deliberately stays out of the key carries::

    Type field; // bh-audit: skip(field) -- <why it cannot alias>
"""

from __future__ import annotations

import re
from pathlib import Path

from cxx import SourceTree, token_in
from report import Report

CHECK = "key-coverage"

CONFIG_HEADER = Path("src/sim/experiment.h")
KEY_SOURCE = Path("src/sim/experiment.cc")
PROTOCOL_SOURCE = Path("src/svc/protocol.cc")
CONFIG_STRUCT = "ExperimentConfig"

# Struct definitions worth recursing into live in these headers.
_STRUCT_HEADERS = (
    Path("src/sim/experiment.h"),
    Path("src/sim/mixes.h"),
    Path("src/sim/system.h"),
    Path("src/breakhammer/breakhammer.h"),
    Path("src/trace/attacker.h"),
    Path("src/trace/adaptive.h"),
)


def _field_ref(owner: str, field: str, text: str) -> bool:
    return re.search(r"\b" + re.escape(owner) + r"\s*\.\s*" +
                     re.escape(field) + r"\b", text) is not None


def _leaf_ref(field: str, text: str) -> bool:
    return re.search(r"\.\s*" + re.escape(field) + r"\b",
                     text) is not None


def run(tree: SourceTree, report: Report) -> None:
    header_path = tree.root / CONFIG_HEADER
    key_path = tree.root / KEY_SOURCE
    proto_path = tree.root / PROTOCOL_SOURCE
    for required in (header_path, key_path, proto_path):
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
    proto_cc = tree.file(proto_path)
    key_text = bodies(key_cc, "experimentKey")
    resolve_text = bodies(key_cc, "resolveExperimentConfig")
    encode_text = bodies(proto_cc, "experimentConfigToJson")
    decode_text = bodies(proto_cc, "experimentConfigFromJson")
    for name, text, where in (
            ("experimentKey", key_text, KEY_SOURCE),
            ("resolveExperimentConfig", resolve_text, KEY_SOURCE),
            ("experimentConfigToJson", encode_text, PROTOCOL_SOURCE),
            ("experimentConfigFromJson", decode_text, PROTOCOL_SOURCE)):
        if text is None:
            report.add(CHECK, "missing-function", str(where), 1, name,
                       "function body required by the key-coverage "
                       "pass was not found")
            return

    rel = tree.rel(header_path)
    cls_range = (header.line_of(config.body_start),
                 header.line_of(config.body_end))
    struct_index = _index_structs(tree)

    fields_checked = 0
    for member in config.members:
        fields_checked += 1
        skip = header.skip_for(member.name, line=member.line,
                               line_range=cls_range)

        in_key = (_field_ref("config", member.name, key_text) or
                  _field_ref("resolved", member.name, resolve_text))
        if not in_key:
            if skip is not None:
                report.note_skip(CHECK, rel, skip.line, member.name,
                                 skip.reason)
            else:
                report.add(
                    CHECK, "field-not-in-key", rel, member.line,
                    f"{CONFIG_STRUCT}::{member.name}",
                    "field reaches neither experimentKey() nor "
                    "resolveExperimentConfig(); distinct configs "
                    "would alias one store record")

        for direction, text in (("encode", encode_text),
                                ("decode", decode_text)):
            if _field_ref("config", member.name, text):
                continue
            if skip is not None:
                report.note_skip(CHECK, rel, skip.line, member.name,
                                 skip.reason)
                continue
            report.add(
                CHECK, f"field-not-in-{direction}", rel, member.line,
                f"{CONFIG_STRUCT}::{member.name}",
                f"field is not referenced in the protocol "
                f"{direction} path "
                f"(experimentConfig{'To' if direction == 'encode' else 'From'}"
                f"Json); a leased config would drop it on the wire")

        # Recurse one structural level into struct-typed fields: their
        # leaves must cross the wire too.
        for leaf_owner, leaf in _leaves_of(member.type_text,
                                           struct_index):
            fields_checked += 1
            for direction, text in (("encode", encode_text),
                                    ("decode", decode_text)):
                if _leaf_ref(leaf.name, text):
                    continue
                leaf_sf = struct_index[leaf_owner][0]
                leaf_skip = leaf_sf.skip_for(leaf.name, line=leaf.line)
                if leaf_skip is not None:
                    report.note_skip(CHECK, tree.rel(leaf_sf.path),
                                     leaf_skip.line, leaf.name,
                                     leaf_skip.reason)
                    continue
                report.add(
                    CHECK, f"field-not-in-{direction}",
                    tree.rel(leaf_sf.path), leaf.line,
                    f"{leaf_owner}::{leaf.name}",
                    f"nested config field (via "
                    f"{CONFIG_STRUCT}::{member.name}) is not "
                    f"referenced in the protocol {direction} path")
    report.note_stats(CHECK, fields=fields_checked)


def _index_structs(tree: SourceTree) -> dict:
    """type name -> (SourceFile, CxxClass) for recursion candidates."""
    index = {}
    for rel in _STRUCT_HEADERS:
        path = tree.root / rel
        if not path.exists():
            continue
        sf = tree.file(path)
        for cls in sf.classes():
            index.setdefault(cls.name, (sf, cls))
    return index


def _leaves_of(type_text: str, struct_index: dict,
               seen: frozenset = frozenset()) -> list:
    """(owner struct name, Member) leaves of a struct-typed field,
    recursively."""
    m = re.search(r"\b([A-Z]\w*)\s*$", type_text or "")
    if m is None or m.group(1) not in struct_index or \
            m.group(1) in seen:
        return []
    name = m.group(1)
    _, cls = struct_index[name]
    leaves = []
    for member in cls.members:
        nested = _leaves_of(member.type_text, struct_index,
                            seen | {name})
        if nested:
            leaves.extend(nested)
        else:
            leaves.append((name, member))
    return leaves
