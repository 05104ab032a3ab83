"""Cross-file facts for the KIND-literal rule: the declared kind set.

The traffic kinds are declared once, as ``KIND_X = "family.name"``
constants listed in an ``ALL_KINDS`` tuple, beside an
``AGGREGATE_KINDS`` dict whose values are the fabric-internal aggregate
markers (``repro/net/kinds.py``).  Detection is content-based — a file
counts as the declaration because it assigns ``ALL_KINDS``, not because
of its path — so the same rule runs unchanged over the real tree and
over the fixture corpus.  Nothing here imports the analyzed code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


@dataclass
class ProjectFacts:
    kinds: Set[str] = field(default_factory=set)
    aggregate_markers: Set[str] = field(default_factory=set)

    @property
    def families(self) -> Set[str]:
        return {kind.split(".", 1)[0] for kind in self.kinds if "." in kind}


def build_facts(files) -> ProjectFacts:
    facts = ProjectFacts()
    for sf in files:
        assigns = _top_level_assigns(sf.tree)
        kinds = assigns.get("ALL_KINDS")
        if not isinstance(kinds, (ast.Tuple, ast.List)):
            continue
        constants = {
            name: value.value
            for name, value in assigns.items()
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        }
        for element in kinds.elts:
            kind = _string(element, constants)
            if kind is not None:
                facts.kinds.add(kind)
        markers = assigns.get("AGGREGATE_KINDS")
        if isinstance(markers, ast.Dict):
            for value in markers.values:
                marker = _string(value, constants)
                if marker is not None:
                    facts.aggregate_markers.add(marker)
    return facts


def _top_level_assigns(tree: ast.AST) -> Dict[str, ast.AST]:
    """Module-level ``NAME = value`` (or ``NAME: T = value``) bindings."""
    out: Dict[str, ast.AST] = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name):
            out[target.id] = node.value
    return out


def _string(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
