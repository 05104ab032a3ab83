"""DET-id-order — no ordering by object address in the deterministic core.

``id()`` values are addresses, and address order often repeats from run
to run, so a sort keyed on it passes most runs and fails some: the
sharded frame merge keyed on ``id`` fails the suite's repeat-run digest
check in about one run in three.  The other determinism rules went to
the golden outcomes and the equivalence suites, which catch their bugs
on every run (ANALYSIS.md).
"""

from __future__ import annotations

import ast

from repro.analysis.walker import Found, SourceFile, register_rule


@register_rule(
    "DET-id-order",
    "no id()-dependent ordering in the deterministic core: object "
    "addresses vary run to run",
    applies=lambda sf: sf.core,
)
def det_id_order(sf: SourceFile) -> Found:
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("sorted", "min", "max", "sort") and any(
                kw.arg == "key" and _is_id_key(kw.value) for kw in node.keywords
            ):
                yield node, (
                    f"{name}(..., key=id) orders by object address, which "
                    f"varies run to run: key on a stable field instead"
                )
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        ) and any(_is_id_call(side) for side in (node.left, *node.comparators)):
            yield node, (
                "comparing id() values orders by object address, which "
                "varies run to run"
            )


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _is_id_key(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    return isinstance(node, ast.Lambda) and any(
        _is_id_call(inner) for inner in ast.walk(node.body)
    )
