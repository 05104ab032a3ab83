"""KIND — closed-set exhaustiveness over the traffic-kind registry.

Every kind the fabric routes is declared once in ``net/kinds.py``; the
rules here enforce that the declaration set stays closed and fully
wired: each registered kind must be priced by the wire-size manifest
(``KIND_SIZE_SOURCES`` in ``net/message.py``), carried by the shard
codec (``KIND_PAYLOAD_TYPES`` plus encode/decode branches in
``net/wire.py``), and dispatched by the node sink table; stray
``family.name`` string literals that never registered are flagged; and
an aggregate registration outside the registry module is a hard error,
because ``network.py``/``node.py`` bind the aggregate dispatch shape at
import (the footgun :func:`repro.net.kinds.register_kind` also guards
at runtime).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Set

from repro.analysis.facts import ProjectFacts
from repro.analysis.model import Finding
from repro.analysis.walker import ProjectRule, Rule, SourceFile, register_rule


@register_rule
class KindLiteral(Rule):
    id = "KIND-literal"
    summary = (
        "every family.name string literal in a registered family must "
        "be a registered traffic kind (or aggregate marker) — typos "
        "and unregistered kinds fail here instead of falling off the "
        "fast path at runtime"
    )
    scope = "all"

    def check(self, sf: SourceFile, facts: ProjectFacts) -> Iterator[Finding]:
        if not facts.kinds:
            return
        families = sorted(facts.families)
        if not families:
            return
        pattern = re.compile(
            r"^(?:%s)\.[a-z0-9_]+(?:\[\])?$" % "|".join(map(re.escape, families))
        )
        known = facts.kinds | facts.aggregate_markers
        doc_lines = sf.docstring_lines()
        for node in ast.walk(sf.tree):
            if not (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            ):
                continue
            if node.lineno in doc_lines:
                continue
            if pattern.match(node.value) and node.value not in known:
                yield self.finding(
                    sf, node,
                    f"string literal {node.value!r} looks like a traffic "
                    f"kind in the registered family "
                    f"{node.value.split('.', 1)[0]!r} but is not "
                    f"registered in the kind registry",
                )


@register_rule
class KindPrice(ProjectRule):
    id = "KIND-price"
    summary = (
        "every registered kind must have a KIND_SIZE_SOURCES entry "
        "naming a real WireSizeModel attribute, so the accountant can "
        "price it"
    )

    def finalize(self, facts: ProjectFacts) -> Iterator[Finding]:
        if facts.size_entries is None:
            return
        priced = {e.kind for e in facts.size_entries if e.kind is not None}
        for reg in facts.registrations:
            if reg.kind is not None and reg.kind not in priced:
                yield Finding(
                    rule=self.id, path=reg.path, line=reg.line, col=reg.col,
                    message=(
                        f"kind {reg.kind!r} has no wire-size price: add a "
                        f"KIND_SIZE_SOURCES entry naming the WireSizeModel "
                        f"attribute that prices it"
                    ),
                )
        for entry in facts.size_entries:
            if entry.kind is None:
                yield Finding(
                    rule=self.id, path=entry.path, line=entry.line,
                    col=entry.col,
                    message=(
                        f"KIND_SIZE_SOURCES key {entry.key_repr} does not "
                        f"resolve to a registered kind constant"
                    ),
                )
                continue
            if entry.kind not in facts.kinds:
                yield Finding(
                    rule=self.id, path=entry.path, line=entry.line,
                    col=entry.col,
                    message=(
                        f"KIND_SIZE_SOURCES prices {entry.kind!r}, which "
                        f"is not a registered kind (stale entry?)"
                    ),
                )
            for attr in entry.value:
                if attr not in facts.wire_size_attrs:
                    yield Finding(
                        rule=self.id, path=entry.path, line=entry.line,
                        col=entry.col,
                        message=(
                            f"KIND_SIZE_SOURCES maps {entry.kind!r} to "
                            f"WireSizeModel.{attr}, which does not exist"
                        ),
                    )


@register_rule
class KindCodec(ProjectRule):
    id = "KIND-codec"
    summary = (
        "every registered kind must declare its payload classes in "
        "KIND_PAYLOAD_TYPES, and every payload class must have "
        "matching encode and decode branches in the wire codec"
    )

    def finalize(self, facts: ProjectFacts) -> Iterator[Finding]:
        codec = facts.codec
        if codec is None:
            return
        sets = codec.function_sets()
        union: Set[str] = set().union(*sets.values())
        # Leg 1: symmetric coverage — a class encoded or decoded
        # anywhere must be covered by both codec function sets.
        for name in sorted(union):
            missing = sorted(fn for fn, s in sets.items() if name not in s)
            if missing:
                present = sorted(fn for fn, s in sets.items() if name in s)
                line, col = codec.first_seen.get(name, (1, 0))
                yield Finding(
                    rule=self.id, path=codec.path, line=line, col=col,
                    message=(
                        f"codec coverage for {name} is asymmetric: handled "
                        f"by {', '.join(present)} but missing from "
                        f"{', '.join(missing)}"
                    ),
                )
        # Leg 2: the kind -> payload manifest.
        if facts.payload_entries is None:
            return
        declared = {
            e.kind for e in facts.payload_entries if e.kind is not None
        }
        for reg in facts.registrations:
            if reg.kind is not None and reg.kind not in declared:
                yield Finding(
                    rule=self.id, path=reg.path, line=reg.line, col=reg.col,
                    message=(
                        f"kind {reg.kind!r} declares no payload classes: "
                        f"add a KIND_PAYLOAD_TYPES entry so the codec "
                        f"contract is machine-checked"
                    ),
                )
        for entry in facts.payload_entries:
            if entry.kind is None:
                yield Finding(
                    rule=self.id, path=entry.path, line=entry.line,
                    col=entry.col,
                    message=(
                        f"KIND_PAYLOAD_TYPES key {entry.key_repr} does not "
                        f"resolve to a registered kind constant"
                    ),
                )
                continue
            if entry.kind not in facts.kinds:
                yield Finding(
                    rule=self.id, path=entry.path, line=entry.line,
                    col=entry.col,
                    message=(
                        f"KIND_PAYLOAD_TYPES declares {entry.kind!r}, "
                        f"which is not a registered kind (stale entry?)"
                    ),
                )
            for cls in entry.value:
                if cls not in union:
                    yield Finding(
                        rule=self.id, path=entry.path, line=entry.line,
                        col=entry.col,
                        message=(
                            f"payload class {cls} for kind {entry.kind!r} "
                            f"has no encode/decode branch in the wire "
                            f"codec"
                        ),
                    )


@register_rule
class KindSink(ProjectRule):
    id = "KIND-sink"
    summary = (
        "every registered kind must be dispatched by the node sink "
        "table — an unrouted kind dead-letters at the receiver"
    )

    def finalize(self, facts: ProjectFacts) -> Iterator[Finding]:
        sinks = facts.sinks
        if sinks is None:
            return
        for reg in facts.registrations:
            if reg.kind is None:
                continue
            if reg.const_name is not None and reg.const_name in sinks.names:
                continue
            if reg.kind in sinks.literals:
                continue
            yield Finding(
                rule=self.id, path=reg.path, line=reg.line, col=reg.col,
                message=(
                    f"kind {reg.kind!r} has no sink-dispatch entry in the "
                    f"node module "
                    f"({reg.const_name or reg.kind!r} is never referenced "
                    f"in {sinks.path})"
                ),
            )


@register_rule
class KindLateAggregate(ProjectRule):
    id = "KIND-late-aggregate"
    summary = (
        "aggregate kinds must register at the top level of the registry "
        "module: network/node bind the aggregate dispatch shape at "
        "import, so a later registration silently misses the fast path"
    )

    def finalize(self, facts: ProjectFacts) -> Iterator[Finding]:
        for reg in facts.registrations:
            if reg.aggregate is None:
                continue
            if reg.in_defining_file and reg.top_level:
                continue
            where = (
                "inside a function/class"
                if not reg.top_level
                else "outside the registry module"
            )
            yield Finding(
                rule=self.id, path=reg.path, line=reg.line, col=reg.col,
                message=(
                    f"aggregate kind {reg.kind or reg.const_name!r} "
                    f"registers {where}: the aggregate dispatch shape is "
                    f"bound when network/node import, so this "
                    f"registration can run too late (register it at the "
                    f"top level of the kind registry module)"
                ),
            )
