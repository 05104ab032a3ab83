"""Cross-file facts for the KIND rule family.

The kind registry's invariants span four modules: kinds are *declared*
in one place (``register_kind`` calls), *priced* in the wire-size
manifest (``KIND_SIZE_SOURCES`` next to ``WireSizeModel``), *encoded*
by the shard codec (``KIND_PAYLOAD_TYPES`` plus the tagged
encode/decode branches) and *dispatched* by the node's total
kind-handler table (``_kind_handlers``).  This pass extracts each module's
contribution from its AST — detection is content-based (a file counts
as the registry because it calls ``register_kind``, not because of its
path), so the same rules run unchanged over the real tree and over the
fixture corpus.

Nothing here imports the analyzed code; names are resolved textually
against the registry file's ``KIND_X = "family.name"`` constants, which
is exactly the convention the codebase uses (the kind constants are the
one vocabulary every module imports).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Codec function names the coverage check keys on (see ANALYSIS.md):
#: the tagged value pair plus the DGC column block's field-wise
#: definitions — the encoder methods that write them, the functions
#: that read them back.  A file is the codec when it defines at least
#: one name of each set.
ENCODE_METHODS = ("value", "_define_dgc")
DECODE_FNS = ("_decode_value_v2", "_decode_definitions")


@dataclass(frozen=True)
class Registration:
    """One ``register_kind(...)`` call site."""

    kind: Optional[str]  # resolved kind string; None if unresolvable
    const_name: Optional[str]  # the KIND_X constant name, if one was used
    aggregate: Optional[str]
    path: str
    line: int
    col: int
    top_level: bool  # at module top level (not inside a def/class)
    in_defining_file: bool  # the file also defines register_kind itself


@dataclass(frozen=True)
class ManifestEntry:
    """One entry of a kind-keyed manifest dict."""

    key_repr: str  # how the key is written (constant name or literal)
    kind: Optional[str]  # resolved kind string
    value: Tuple[str, ...]  # attr name(s) / class name(s)
    path: str
    line: int
    col: int


@dataclass
class CodecFacts:
    """Which composite classes each codec function branch-dispatches."""

    path: str
    encode: Set[str] = field(default_factory=set)
    decode: Set[str] = field(default_factory=set)
    #: class name -> (line, col) of its first occurrence in the file,
    #: used to anchor coverage findings somewhere clickable.
    first_seen: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def function_sets(self) -> Dict[str, Set[str]]:
        return {
            f"{'/'.join(ENCODE_METHODS)} (encoder)": self.encode,
            "/".join(DECODE_FNS): self.decode,
        }


@dataclass
class SinkFacts:
    """Keys of the node's ``_kind_handlers`` table: KIND_* constant
    names and kind string literals."""

    path: str
    names: Set[str] = field(default_factory=set)
    literals: Set[str] = field(default_factory=set)


@dataclass
class ProjectFacts:
    registrations: List[Registration] = field(default_factory=list)
    kinds: Set[str] = field(default_factory=set)
    aggregate_markers: Set[str] = field(default_factory=set)
    constants: Dict[str, str] = field(default_factory=dict)
    size_entries: Optional[List[ManifestEntry]] = None
    wire_size_attrs: Set[str] = field(default_factory=set)
    payload_entries: Optional[List[ManifestEntry]] = None
    codec: Optional[CodecFacts] = None
    sinks: Optional[SinkFacts] = None

    @property
    def families(self) -> Set[str]:
        return {kind.split(".", 1)[0] for kind in self.kinds if "." in kind}


def build_facts(files) -> ProjectFacts:
    facts = ProjectFacts()
    # Pass 1: registry constants first, so later files resolve names.
    registry_files = []
    for sf in files:
        if _calls_register_kind(sf.tree):
            registry_files.append(sf)
            _collect_constants(sf.tree, facts.constants)
    for sf in registry_files:
        _collect_registrations(sf, facts)
    # Pass 2: manifests, codec, sinks.
    for sf in files:
        _collect_size_manifest(sf, facts)
        _collect_payload_manifest(sf, facts)
        _collect_codec(sf, facts)
        _collect_sinks(sf, facts)
    return facts


# ----------------------------------------------------------------------
# Collection helpers
# ----------------------------------------------------------------------


def _calls_register_kind(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_kind"
        ):
            return True
    return False


def _defines_register_kind(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.FunctionDef) and node.name == "register_kind"
        for node in ast.walk(tree)
    )


def _collect_constants(tree: ast.AST, out: Dict[str, str]) -> None:
    for node in getattr(tree, "body", []):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if (
            isinstance(target, ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            out[target.id] = node.value.value


def _collect_registrations(sf, facts: ProjectFacts) -> None:
    defining = _defines_register_kind(sf.tree)

    def visit(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_top = top and not isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "register_kind"
                and child.args
            ):
                arg = child.args[0]
                const_name = None
                kind: Optional[str] = None
                if isinstance(arg, ast.Name):
                    const_name = arg.id
                    kind = facts.constants.get(arg.id)
                elif isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    kind = arg.value
                aggregate = None
                for kw in child.keywords:
                    if kw.arg == "aggregate":
                        if isinstance(kw.value, ast.Constant) and isinstance(
                            kw.value.value, str
                        ):
                            aggregate = kw.value.value
                facts.registrations.append(
                    Registration(
                        kind=kind,
                        const_name=const_name,
                        aggregate=aggregate,
                        path=sf.rel,
                        line=child.lineno,
                        col=child.col_offset,
                        top_level=child_top,
                        in_defining_file=defining,
                    )
                )
                if kind is not None:
                    facts.kinds.add(kind)
                if aggregate is not None:
                    facts.aggregate_markers.add(aggregate)
            visit(child, child_top)

    visit(sf.tree, True)


def _dict_entries(sf, assign: ast.Assign) -> List[ManifestEntry]:
    entries: List[ManifestEntry] = []
    value = assign.value
    if not isinstance(value, ast.Dict):
        return entries
    for key, val in zip(value.keys, value.values):
        if key is None:  # **spread — not resolvable statically
            continue
        if isinstance(key, ast.Name):
            key_repr = key.id
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            key_repr = repr(key.value)
        else:
            key_repr = ast.dump(key)
        values: List[str] = []
        if isinstance(val, ast.Constant) and isinstance(val.value, str):
            values.append(val.value)
        elif isinstance(val, (ast.Tuple, ast.List)):
            for element in val.elts:
                if isinstance(element, ast.Name):
                    values.append(element.id)
        elif isinstance(val, ast.Name):
            values.append(val.id)
        entries.append(
            ManifestEntry(
                key_repr=key_repr,
                kind=None,  # resolved below by the caller
                value=tuple(values),
                path=sf.rel,
                line=key.lineno,
                col=key.col_offset,
            )
        )
    return entries


def _resolve_entry(entry: ManifestEntry, facts: ProjectFacts) -> ManifestEntry:
    if entry.key_repr.startswith("'") or entry.key_repr.startswith('"'):
        kind = entry.key_repr[1:-1]
    else:
        kind = facts.constants.get(entry.key_repr)
    return ManifestEntry(
        key_repr=entry.key_repr,
        kind=kind,
        value=entry.value,
        path=entry.path,
        line=entry.line,
        col=entry.col,
    )


def _find_assign(tree: ast.AST, name: str) -> Optional[ast.Assign]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node
    return None


def _collect_size_manifest(sf, facts: ProjectFacts) -> None:
    assign = _find_assign(sf.tree, "KIND_SIZE_SOURCES")
    if assign is None:
        return
    entries = [
        _resolve_entry(e, facts)
        for e in _dict_entries(sf, assign)
    ]
    facts.size_entries = (facts.size_entries or []) + entries
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef) and node.name == "WireSizeModel":
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts.wire_size_attrs.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    facts.wire_size_attrs.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            facts.wire_size_attrs.add(target.id)


def _collect_payload_manifest(sf, facts: ProjectFacts) -> None:
    assign = _find_assign(sf.tree, "KIND_PAYLOAD_TYPES")
    if assign is None:
        return
    entries = [
        _resolve_entry(e, facts)
        for e in _dict_entries(sf, assign)
    ]
    facts.payload_entries = (facts.payload_entries or []) + entries


def _is_composite_name(name: str) -> bool:
    return (
        bool(name)
        and name[0].isupper()
        and not name.endswith(("Error", "Exception", "Warning"))
    )


def _is_comparison_classes(node: ast.Compare) -> Set[str]:
    if not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
        return set()
    names: Set[str] = set()
    for side in [node.left, *node.comparators]:
        if isinstance(side, ast.Name) and _is_composite_name(side.id):
            names.add(side.id)
    return names


def _collect_codec(sf, facts: ProjectFacts) -> None:
    encoders = []
    decoders = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef):
            encoders += [
                item for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name in ENCODE_METHODS
            ]
        elif isinstance(node, ast.FunctionDef) and node.name in DECODE_FNS:
            decoders.append(node)
    if not (encoders and decoders):
        return
    codec = CodecFacts(path=sf.rel)
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Name) and _is_composite_name(node.id):
            codec.first_seen.setdefault(
                node.id, (node.lineno, node.col_offset)
            )
    for fn in encoders:
        codec.encode |= _branch_classes(fn)
    for fn in decoders:
        codec.decode |= _constructed_classes(fn)
    facts.codec = codec


def _branch_classes(fn: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            names |= _is_comparison_classes(node)
    return names


def _constructed_classes(fn: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and _is_composite_name(node.func.id)
        ):
            names.add(node.func.id)
    return names


def _collect_sinks(sf, facts: ProjectFacts) -> None:
    """Harvest the keys of every ``_kind_handlers`` table literal (a
    dict display, bare or wrapped in one constructor call): the table is
    total, so a kind is dispatched iff it is a key."""
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if not any(
            getattr(target, "attr", getattr(target, "id", None))
            == "_kind_handlers"
            for target in targets
        ):
            continue
        table = node.value
        if isinstance(table, ast.Call) and table.args:
            table = table.args[0]
        if not isinstance(table, ast.Dict):
            continue
        sinks = facts.sinks or SinkFacts(path=sf.rel)
        for key in table.keys:
            if isinstance(key, ast.Name):
                sinks.names.add(key.id)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                sinks.literals.add(key.value)
        facts.sinks = sinks
