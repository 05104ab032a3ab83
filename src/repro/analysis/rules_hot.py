"""HOT — hot-path allocation discipline.

Modules tagged ``# repro: hot-path`` sit on the per-event path: every
class there must declare ``__slots__`` (a stray ``__dict__`` costs
memory and a dict probe per attribute on millions of instances), and
loops there must not allocate closures (a ``lambda`` inside a fire loop
is one heap allocation per event).  In the deterministic core a class
that inherits a slotted base but declares no ``__slots__`` silently
regrows the per-instance ``__dict__``.  In every file, an
``isinstance``/``issubclass`` against a ``typing`` alias is flagged:
the alias only delegates to its ``collections.abc`` class, through a
chain of Python frames on every check.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.walker import Found, SourceFile, register_rule

_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "Flag", "IntFlag",
    "NamedTuple", "Protocol", "ABC", "TypedDict",
}


@register_rule(
    "HOT-slots",
    "hot-path classes must declare __slots__: every class in a module "
    "tagged '# repro: hot-path', and any core class inheriting a "
    "slotted base",
    applies=lambda sf: sf.hot or sf.core,
)
def hot_slots(sf: SourceFile) -> Found:
    slotted: Dict[str, bool] = {}
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        slotted[node.name] = has_slots = _declares_slots(node)
        if has_slots or any(
            name in _EXEMPT_BASES
            or name.endswith(("Error", "Exception", "Warning"))
            for name in map(_base_name, node.bases) if name
        ):
            continue
        if sf.hot:
            yield node, (
                f"class {node.name} in a hot-path module does not declare "
                f"__slots__: per-instance __dict__ costs memory and a dict "
                f"probe per attribute on the per-event path"
            )
            continue
        base = next(
            (name for name in map(_base_name, node.bases) if slotted.get(name)),
            None,
        )
        if base is not None:
            yield node, (
                f"class {node.name} inherits slotted {base} but declares no "
                f"__slots__, silently reintroducing the per-instance "
                f"__dict__ (add __slots__ = () if it truly adds no fields)"
            )


@register_rule(
    "HOT-closure",
    "no closure allocation inside loops of hot-path modules: a "
    "lambda/def in a fire loop is one heap allocation per event — hoist "
    "it or use a bound method",
    applies=lambda sf: sf.hot,
)
def hot_closure(sf: SourceFile) -> Found:
    reported: Set[ast.AST] = set()
    for loop in ast.walk(sf.tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for stmt in loop.body:
            for inner in ast.walk(stmt):
                if inner in reported or not isinstance(
                    inner, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                reported.add(inner)
                label = (
                    "lambda" if isinstance(inner, ast.Lambda)
                    else f"def {inner.name}"
                )
                yield inner, (
                    f"{label} allocated inside a loop of a hot-path module: "
                    f"one function object per iteration — hoist it out of "
                    f"the loop or use a bound method"
                )


@register_rule(
    "HOT-typing-check",
    "no isinstance/issubclass against a typing alias (a name imported "
    "from typing, or typing.X): the alias delegates to its "
    "collections.abc class through several Python frames per check — "
    "test the collections.abc class or a concrete type",
)
def hot_typing_check(sf: SourceFile) -> Found:
    names: Dict[str, str] = {}  # local name -> typing name
    modules: Set[str] = set()  # names bound to the typing module
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                a.asname or "typing" for a in node.names if a.name == "typing"
            )
    if not names and not modules:
        return
    for node in ast.walk(sf.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            continue
        for operand in _class_operands(node.args[1]):
            if isinstance(operand, ast.Name):
                alias = names.get(operand.id)
            elif (
                isinstance(operand, ast.Attribute)
                and isinstance(operand.value, ast.Name)
                and operand.value.id in modules
            ):
                alias = operand.attr
            else:
                alias = None
            if alias is not None:
                yield node, (
                    f"{node.func.id}() against typing.{alias}: the alias "
                    f"delegates to collections.abc.{alias} through several "
                    f"Python frames on every call — test "
                    f"collections.abc.{alias} (or a concrete type) directly"
                )


def _class_operands(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.Tuple):
        return [leaf for item in node.elts for leaf in _class_operands(item)]
    return [node]


def _declares_slots(node: ast.ClassDef) -> bool:
    for item in node.body:
        targets = (
            item.targets if isinstance(item, ast.Assign)
            else [item.target] if isinstance(item, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    # @dataclass(slots=True) generates the slots.
    return any(
        kw.arg == "slots" and isinstance(kw.value, ast.Constant) and kw.value.value
        for decorator in node.decorator_list if isinstance(decorator, ast.Call)
        for kw in decorator.keywords
    )


def _base_name(base: ast.AST):
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None
