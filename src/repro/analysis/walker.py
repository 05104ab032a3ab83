"""The analyzer engine: source files, suppressions, the rule table, one pass.

The analyzer is a pure-AST pass over the files it is given.  One run is:

1. collect the ``.py`` files under the requested paths, sorted, so runs
   are deterministic;
2. parse each into a :class:`SourceFile` and read its comment tokens for
   ``# repro: allow[...]`` suppressions and the ``# repro: hot-path``
   module tag (only real comments count, so documentation of the
   markers never triggers anything);
3. run every selected rule over the files in its scope;
4. drop the findings a reasoned suppression covers, add the
   suppression-hygiene findings (``META-suppression``), and sort.

A file that does not parse raises :class:`SyntaxError`, which the CLI
turns into exit code 2 naming the file and line.  Rule scoping follows
the package layout: a ``hot`` file carries the tag, a ``core`` file
lives in ``core/``, ``sim/``, ``net/``, ``shard/`` or ``runtime/``.
``force_scope=True`` puts every file in both scopes; that is how the
fixture corpus under ``tests/fixtures/analysis/`` exercises the rules.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

#: Subpackages of the deterministic core, where a class inheriting a
#: slotted base must slot too (HOT-slots).
CORE_DIRS = ("core", "sim", "net", "shard", "runtime")

#: Matches ``repro: allow[HOT-slots] why`` / ``repro: allow[A,B] why``
#: comments (hash-prefixed in source).
SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]\s*(.*)$")

#: Matches the ``repro: hot-path`` comment tag marking a module as hot.
HOT_TAG_RE = re.compile(r"#\s*repro:\s*hot-path\b")

#: The engine's pseudo-rule: a suppression must carry a reason and name
#: known rules.
META_SUPPRESSION = "META-suppression"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a 1-based line and 0-based column of
    ``path``, which is relative to the analysis root."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: allow[...]`` comment: the rule ids it names, its
    reason, and the line it covers (its own line for a trailing comment,
    the next one for a comment alone on its line)."""

    rules: Tuple[str, ...]
    reason: str
    comment_line: int
    target_line: int


@dataclass
class AnalysisResult:
    """What one run produced."""

    root: str
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: Tuple[str, ...] = ()
    suppressed_count: int = 0
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.findings


class SourceFile:
    """One parsed source file, its suppressions and its scopes."""

    def __init__(self, rel: str, text: str, force_scope: bool = False) -> None:
        self.rel = rel
        self.tree = ast.parse(text, filename=rel)
        self.suppressions: List[Suppression] = []
        self.hot = force_scope
        parts = rel.split("/")
        while "repro" in parts:  # scope by the path inside the package
            parts = parts[parts.index("repro") + 1:]
        self.core = force_scope or parts[0] in CORE_DIRS
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            self.hot = self.hot or bool(HOT_TAG_RE.search(tok.string))
            match = SUPPRESSION_RE.search(tok.string)
            if match is None:
                continue
            lineno, col = tok.start
            alone = not tok.line[:col].strip()
            self.suppressions.append(Suppression(
                rules=tuple(
                    part.strip() for part in match.group(1).split(",")
                    if part.strip()
                ),
                reason=match.group(2).strip(),
                comment_line=lineno,
                target_line=lineno + 1 if alone else lineno,
            ))


#: What a rule's check yields: ``(node, message)`` per violation.
Found = Iterator[Tuple[ast.AST, str]]


@dataclass(frozen=True)
class Rule:
    summary: str
    #: Whether the rule runs on a file at all.
    applies: Callable[[SourceFile], bool]
    #: The violations in one file.
    check: Callable[[SourceFile], Found]


RULES: Dict[str, Rule] = {}


def register_rule(rule_id: str, summary: str, applies=lambda sf: True):
    """Decorator: add ``check`` to :data:`RULES` under ``rule_id``."""

    def register(check):
        RULES[rule_id] = Rule(summary, applies, check)
        return check

    return register


def rule_summaries() -> Dict[str, str]:
    """Every rule id, the engine's pseudo-rule included, and what it
    enforces."""
    _load_rule_modules()
    summaries = {rule_id: rule.summary for rule_id, rule in RULES.items()}
    summaries[META_SUPPRESSION] = (
        "suppressions must carry a reason and name known rules"
    )
    return dict(sorted(summaries.items()))


def all_rule_ids() -> Tuple[str, ...]:
    return tuple(rule_summaries())


def _load_rule_modules() -> None:
    # Rule modules register on import; imported here, not at the top,
    # because they import this module.
    from repro.analysis import rules_hot  # noqa: F401


def _collect(paths: Sequence[Path]) -> List[Path]:
    files: Dict[Path, Path] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            found: Iterable[Path] = [path]
        elif path.is_dir():
            found = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in found:
            files.setdefault(candidate.resolve(), candidate)
    return list(files.values())


def run_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
    force_scope: bool = False,
) -> AnalysisResult:
    """One pass over ``paths`` with ``rules`` (default: all); findings
    are reported relative to the first path (its directory for a file)."""
    started = time.monotonic()
    known = all_rule_ids()
    unknown = sorted(set(rules or ()) - set(known))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    selected = tuple(sorted(set(rules))) if rules else known
    targets = [Path(p) for p in paths]
    root = targets[0] if targets[0].is_dir() else targets[0].parent
    files = []
    for path in _collect(targets):
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        text = path.read_text(encoding="utf-8")
        files.append(SourceFile(rel, text, force_scope))

    findings: List[Finding] = []
    for rule_id in selected:
        rule = RULES.get(rule_id)
        if rule is None:  # META-suppression, below
            continue
        for sf in files:
            if rule.applies(sf):
                findings.extend(
                    Finding(rule_id, sf.rel, node.lineno, node.col_offset,
                            message)
                    for node, message in rule.check(sf)
                )

    kept: List[Finding] = []
    suppressed = 0
    by_path = {sf.rel: sf.suppressions for sf in files}
    for finding in findings:
        if any(
            s.reason and s.target_line == finding.line and finding.rule in s.rules
            for s in by_path[finding.path]
        ):
            suppressed += 1
        else:
            kept.append(finding)
    if META_SUPPRESSION in selected:
        # Never self-suppressible, so added after the filter.
        for sf in files:
            for sup in sf.suppressions:
                if not sup.reason:
                    kept.append(Finding(
                        META_SUPPRESSION, sf.rel, sup.comment_line, 0,
                        "suppression must carry a reason: "
                        "# repro: allow[RULE-id] <why this is safe>",
                    ))
                kept.extend(
                    Finding(META_SUPPRESSION, sf.rel, sup.comment_line, 0,
                            f"suppression names unknown rule {rule_id!r}")
                    for rule_id in sup.rules if rule_id not in known
                )
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return AnalysisResult(
        root=str(root),
        findings=kept,
        files_scanned=len(files),
        rules_run=selected,
        suppressed_count=suppressed,
        elapsed_s=time.monotonic() - started,
    )
