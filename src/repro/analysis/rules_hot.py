"""HOT — hot-path allocation discipline.

Modules tagged ``# repro: hot-path`` sit on the per-event fast path
(the columnar fire loop, the kernel heap, the wire codec): every class
there must declare ``__slots__`` (a stray ``__dict__`` costs ~200
bytes and a dict probe per attribute on millions of instances), and
loops there must not allocate closures (a ``lambda`` inside a fire
loop is one heap allocation per event).  Independently of the tag, a
class anywhere in the deterministic core that inherits a slotted base
but forgets its own ``__slots__`` silently reintroduces the per-
instance ``__dict__`` — that is flagged too.  In every scanned file, an
``isinstance``/``issubclass`` against a ``typing`` alias is flagged:
the alias only delegates to its ``collections.abc`` class, through a
chain of Python frames on every check.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.model import Finding
from repro.analysis.walker import Rule, SourceFile, register_rule

_EXEMPT_BASES = {
    "Exception", "BaseException", "Enum", "IntEnum", "Flag", "IntFlag",
    "NamedTuple", "Protocol", "ABC", "TypedDict",
}


@register_rule
class HotSlots(Rule):
    id = "HOT-slots"
    summary = (
        "hot-path classes must declare __slots__: every class in a "
        "module tagged '# repro: hot-path', and any core class "
        "inheriting a slotted base"
    )
    scope = "core"

    def applies(self, sf: SourceFile) -> bool:
        return self.force_scope or sf.hot_tagged or sf.in_core

    def check(self, sf: SourceFile, facts) -> Iterator[Finding]:
        slotted: Dict[str, bool] = {}
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            has_slots = _declares_slots(node)
            slotted[node.name] = has_slots
            if has_slots or _is_exempt(node):
                continue
            if sf.hot_tagged or self.force_scope:
                yield self.finding(
                    sf, node,
                    f"class {node.name} in a hot-path module does not "
                    f"declare __slots__: per-instance __dict__ costs "
                    f"memory and a dict probe per attribute on the "
                    f"per-event path",
                )
                continue
            slotted_base = _slotted_base(node, slotted)
            if slotted_base is not None:
                yield self.finding(
                    sf, node,
                    f"class {node.name} inherits slotted {slotted_base} "
                    f"but declares no __slots__, silently reintroducing "
                    f"the per-instance __dict__ (add __slots__ = () if "
                    f"it truly adds no fields)",
                )


@register_rule
class HotClosure(Rule):
    id = "HOT-closure"
    summary = (
        "no closure allocation inside loops of hot-path modules: a "
        "lambda/def in a fire loop is one heap allocation per event — "
        "hoist it or use a bound method"
    )
    scope = "hot"

    def check(self, sf: SourceFile, facts) -> Iterator[Finding]:
        reported: Set[tuple] = set()
        for node in ast.walk(sf.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for loop in ast.walk(node):
                if not isinstance(
                    loop, (ast.For, ast.AsyncFor, ast.While)
                ):
                    continue
                for stmt in loop.body:
                    for inner in ast.walk(stmt):
                        if isinstance(
                            inner,
                            (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef),
                        ):
                            key = (inner.lineno, inner.col_offset)
                            if key in reported:
                                continue
                            reported.add(key)
                            label = (
                                "lambda"
                                if isinstance(inner, ast.Lambda)
                                else f"def {inner.name}"
                            )
                            yield self.finding(
                                sf, inner,
                                f"{label} allocated inside a loop of a "
                                f"hot-path module: one function object "
                                f"per iteration — hoist it out of the "
                                f"loop or use a bound method",
                            )


@register_rule
class HotTypingCheck(Rule):
    id = "HOT-typing-check"
    summary = (
        "no isinstance/issubclass against a typing alias (a name "
        "imported from typing, or typing.X): the alias delegates to its "
        "collections.abc class through several Python frames per check "
        "— test the collections.abc class or a concrete type"
    )
    scope = "all"

    def check(self, sf: SourceFile, facts) -> Iterator[Finding]:
        names, modules = _typing_imports(sf.tree)
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
                alias = _typing_alias(operand, names, modules)
                if alias is not None:
                    yield self.finding(
                        sf, node,
                        f"{node.func.id}() against typing.{alias}: the "
                        f"alias delegates to collections.abc.{alias} "
                        f"through several Python frames on every call — "
                        f"test collections.abc.{alias} (or a concrete "
                        f"type) directly",
                    )


def _typing_imports(tree: ast.AST) -> Tuple[Dict[str, str], Set[str]]:
    """``({local name: typing name}, {names bound to the typing module})``."""
    names: Dict[str, str] = {}
    modules: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "typing":
                    modules.add(alias.asname or "typing")
    return names, modules


def _class_operands(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.Tuple):
        return [leaf for item in node.elts for leaf in _class_operands(item)]
    return [node]


def _typing_alias(node: ast.AST, names: Dict[str, str], modules: Set[str]):
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return node.attr
    return None


def _declares_slots(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(item, ast.AnnAssign):
            if (
                isinstance(item.target, ast.Name)
                and item.target.id == "__slots__"
            ):
                return True
    for decorator in node.decorator_list:
        # @dataclass(slots=True) generates the slots.
        if isinstance(decorator, ast.Call):
            for kw in decorator.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value
                ):
                    return True
    return False


def _base_name(base: ast.AST):
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _is_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = _base_name(base)
        if name is None:
            continue
        if name in _EXEMPT_BASES or name.endswith(
            ("Error", "Exception", "Warning")
        ):
            return True
    return False


def _slotted_base(node: ast.ClassDef, slotted: Dict[str, bool]):
    for base in node.bases:
        name = _base_name(base)
        if name is not None and slotted.get(name):
            return name
    return None
