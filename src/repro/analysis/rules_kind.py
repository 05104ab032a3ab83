"""KIND — the traffic-kind vocabulary stays closed.

Every kind the fabric routes is declared once, in ``ALL_KINDS`` in
``net/kinds.py``.  KIND-literal flags a ``family.name`` string literal
in a declared family that is neither a declared kind nor an aggregate
marker, so a typo or a kind that was never declared fails here
instead of dead-lettering at run time.  That every declared kind is
priced, carried by the wire codec and dispatched by every node is
checked on the real objects by tier-1 tests (``tests/unit/
test_net_kinds.py``, ``tests/property/test_wire_codec.py``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.facts import ProjectFacts
from repro.analysis.model import Finding
from repro.analysis.walker import Rule, SourceFile, register_rule


@register_rule
class KindLiteral(Rule):
    id = "KIND-literal"
    summary = (
        "every family.name string literal in a declared family must "
        "be a kind listed in ALL_KINDS (or an aggregate marker) — typos "
        "and undeclared kinds fail here instead of dead-lettering at "
        "runtime"
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
                    f"kind in the declared family "
                    f"{node.value.split('.', 1)[0]!r} but is not "
                    f"listed in ALL_KINDS",
                )
