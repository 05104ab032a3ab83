"""The analyzer engine: file loading, rule registry, suppression model.

The analyzer is a pure-AST pass — it never imports the code under
analysis, so a broken module can't crash it and the pass is safe to run
on any tree.  One run is:

1. collect ``.py`` files under the requested paths (sorted, so runs are
   deterministic — the analyzer holds itself to the invariants it
   enforces);
2. parse each into a :class:`SourceFile` (syntax errors become
   ``META-parse`` findings, not crashes) and scan its comments for
   ``# repro: allow[...]`` suppressions and the ``# repro: hot-path``
   module tag;
3. build the cross-file :class:`~repro.analysis.facts.ProjectFacts`
   (the declared traffic kinds and aggregate markers);
4. run every selected rule over its applicable files;
5. drop findings covered by a suppression and sort the rest.

Rule scoping follows the codebase's invariant boundaries: the
*deterministic core* is ``core/``, ``sim/``, ``net/``, ``shard/`` and
``runtime/`` (the DET and HOT families apply there), the SPMD contract
applies to ``shard/workloads.py``, and the KIND family applies
everywhere.  ``force_scope=True`` treats every file as in every scope —
that is how the fixture corpus under ``tests/fixtures/analysis/``
exercises rules without replicating the package layout.
"""

from __future__ import annotations

import ast
import io
import time
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.model import (
    HOT_TAG_RE,
    SUPPRESSION_RE,
    AnalysisResult,
    Finding,
    Suppression,
)

#: Subpackages forming the deterministic core: replay determinism and
#: the bit-identical equivalence suites depend on every line here.
CORE_DIRS = ("core", "sim", "net", "shard", "runtime")

#: The SPMD contract (ghost creates mint identical ids on every shard)
#: binds the workload builders; see ``repro/shard/workloads.py``.
SPMD_FILES = ("shard/workloads.py",)


class SourceFile:
    """One parsed source file plus its comment-derived metadata."""

    def __init__(self, path: Path, rel: str, text: str, tree: ast.AST) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.suppressions: List[Suppression] = []
        self.hot_tagged = False
        self._scan_comments()

    # -- scoping -------------------------------------------------------

    @property
    def pkg_rel(self) -> str:
        """Path relative to the ``repro`` package root when the scanned
        tree contains one (``.../repro/net/wire.py`` -> ``net/wire.py``);
        the plain relative path otherwise (fixture corpora)."""
        parts = self.rel.replace("\\", "/").split("/")
        for position in range(len(parts) - 1, -1, -1):
            if parts[position] == "repro":
                return "/".join(parts[position + 1:])
        return "/".join(parts)

    @property
    def in_core(self) -> bool:
        head = self.pkg_rel.split("/", 1)[0]
        return head in CORE_DIRS

    @property
    def is_spmd(self) -> bool:
        return self.pkg_rel in SPMD_FILES

    # -- comments ------------------------------------------------------

    def _scan_comments(self) -> None:
        # Tokenize so only real comments count: the tag and suppression
        # markers show up inside docstrings and string literals too (this
        # package documents them), and those must not trigger.
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.text).readline)
            )
        except (tokenize.TokenError, IndentationError):
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            lineno, col = tok.start
            if HOT_TAG_RE.search(tok.string):
                self.hot_tagged = True
            match = SUPPRESSION_RE.search(tok.string)
            if match is None:
                continue
            rules = tuple(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
            alone = tok.line[:col].strip() == ""
            self.suppressions.append(
                Suppression(
                    rules=rules,
                    reason=match.group(2).strip(),
                    comment_line=lineno,
                    target_line=lineno + 1 if alone else lineno,
                )
            )

    def docstring_lines(self) -> Set[int]:
        """Line numbers covered by module/class/function docstrings —
        string constants there are documentation, not code."""
        covered: Set[int] = set()
        for node in ast.walk(self.tree):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                       ast.AsyncFunctionDef)
            ):
                continue
            body = getattr(node, "body", None)
            if not body:
                continue
            head = body[0]
            if (
                isinstance(head, ast.Expr)
                and isinstance(head.value, ast.Constant)
                and isinstance(head.value.value, str)
            ):
                covered.update(
                    range(head.lineno, (head.end_lineno or head.lineno) + 1)
                )
        return covered


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------


class Rule:
    """Base per-file rule: ``check`` yields findings for one file."""

    id: str = ""
    summary: str = ""
    #: Which scope gates ``check``: "all", "core", "spmd", "hot".
    scope: str = "all"

    def __init__(self, force_scope: bool = False) -> None:
        self.force_scope = force_scope

    def applies(self, sf: SourceFile) -> bool:
        if self.force_scope:
            return True
        if self.scope == "core":
            return sf.in_core
        if self.scope == "spmd":
            return sf.is_spmd
        if self.scope == "hot":
            return sf.hot_tagged
        return True

    def check(self, sf: SourceFile, facts) -> Iterator[Finding]:
        return iter(())

    def finding(
        self, sf: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=sf.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_RULE_CLASSES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule class {cls.__name__} has no id")
    if cls.id in _RULE_CLASSES:
        raise ValueError(f"rule {cls.id!r} registered twice")
    _RULE_CLASSES[cls.id] = cls
    return cls


def all_rule_ids() -> Tuple[str, ...]:
    _load_rule_modules()
    return tuple(sorted(_RULE_CLASSES))


def rule_summaries() -> Dict[str, str]:
    _load_rule_modules()
    return {rule_id: cls.summary for rule_id, cls in
            sorted(_RULE_CLASSES.items())}


def _load_rule_modules() -> None:
    # Rule modules self-register on import; imported lazily so the
    # model/walker layer stays import-cycle-free.
    from repro.analysis import rules_det, rules_hot, rules_kind, rules_spmd  # noqa: F401


#: Engine-emitted pseudo-rules: parse failures and suppression hygiene.
#: Registered so ``--rule`` validation and ``--list-rules`` know them.
META_PARSE = "META-parse"
META_SUPPRESSION = "META-suppression"


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


class Analyzer:
    """One configured analysis pass; ``run()`` executes it."""

    def __init__(
        self,
        paths: Sequence[str],
        root: Optional[str] = None,
        rules: Optional[Sequence[str]] = None,
        force_scope: bool = False,
    ) -> None:
        _load_rule_modules()
        self.paths = [Path(p) for p in paths]
        self.root = Path(root) if root is not None else _common_root(self.paths)
        known = set(_RULE_CLASSES) | {META_PARSE, META_SUPPRESSION}
        if rules is None:
            selected = sorted(known)
        else:
            unknown = sorted(set(rules) - known)
            if unknown:
                raise ValueError(
                    f"unknown rule id(s): {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(known))})"
                )
            selected = sorted(set(rules))
        self.selected = tuple(selected)
        self.force_scope = force_scope

    # -- file collection ----------------------------------------------

    def collect_files(self) -> List[Path]:
        seen: Set[Path] = set()
        ordered: List[Path] = []
        for path in self.paths:
            if path.is_file() and path.suffix == ".py":
                candidates: Iterable[Path] = [path]
            elif path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    ordered.append(candidate)
        return ordered

    def _relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    # -- the pass ------------------------------------------------------

    def run(self) -> AnalysisResult:
        started = time.monotonic()  # repro: allow[DET-wallclock] analyzer tooling: elapsed time is reported, never scheduled on
        findings: List[Finding] = []
        files: List[SourceFile] = []
        for path in self.collect_files():
            rel = self._relpath(path)
            text = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                if META_PARSE in self.selected:
                    findings.append(
                        Finding(
                            rule=META_PARSE,
                            path=rel,
                            line=exc.lineno or 1,
                            col=(exc.offset or 1) - 1,
                            message=f"file does not parse: {exc.msg}",
                        )
                    )
                continue
            files.append(SourceFile(path, rel, text, tree))

        from repro.analysis.facts import build_facts

        facts = build_facts(files)

        for rule_id in self.selected:
            cls = _RULE_CLASSES.get(rule_id)
            if cls is None:  # META pseudo-rules
                continue
            rule = cls(force_scope=self.force_scope)
            for sf in files:
                if rule.applies(sf):
                    findings.extend(rule.check(sf, facts))

        if META_SUPPRESSION in self.selected:
            findings.extend(self._check_suppressions(files))

        kept, suppressed = self._apply_suppressions(files, findings)
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return AnalysisResult(
            root=str(self.root),
            findings=kept,
            files_scanned=len(files),
            rules_run=self.selected,
            suppressed_count=suppressed,
            elapsed_s=time.monotonic() - started,  # repro: allow[DET-wallclock] analyzer tooling: elapsed time is reported, never scheduled on
        )

    def _check_suppressions(self, files: List[SourceFile]) -> List[Finding]:
        known = set(_RULE_CLASSES) | {META_PARSE, META_SUPPRESSION}
        out: List[Finding] = []
        for sf in files:
            for sup in sf.suppressions:
                if not sup.reason:
                    out.append(
                        Finding(
                            rule=META_SUPPRESSION,
                            path=sf.rel,
                            line=sup.comment_line,
                            col=0,
                            message=(
                                "suppression must carry a reason: "
                                "# repro: allow[RULE-id] <why this is safe>"
                            ),
                        )
                    )
                for rule_id in sup.rules:
                    if rule_id not in known:
                        out.append(
                            Finding(
                                rule=META_SUPPRESSION,
                                path=sf.rel,
                                line=sup.comment_line,
                                col=0,
                                message=(
                                    f"suppression names unknown rule "
                                    f"{rule_id!r}"
                                ),
                            )
                        )
        return out

    def _apply_suppressions(
        self, files: List[SourceFile], findings: List[Finding]
    ) -> Tuple[List[Finding], int]:
        by_path: Dict[str, List[Suppression]] = {
            sf.rel: sf.suppressions for sf in files
        }
        kept: List[Finding] = []
        suppressed = 0
        for finding in findings:
            # Suppression hygiene findings are never self-suppressible.
            if finding.rule == META_SUPPRESSION:
                kept.append(finding)
                continue
            sups = by_path.get(finding.path, ())
            if any(s.covers(finding.rule, finding.line) and s.reason
                   for s in sups):
                suppressed += 1
            else:
                kept.append(finding)
        return kept, suppressed


def _common_root(paths: Sequence[Path]) -> Path:
    if not paths:
        return Path(".")
    head = paths[0]
    return head if head.is_dir() else head.parent


def run_analysis(
    paths: Sequence[str],
    root: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
    force_scope: bool = False,
) -> AnalysisResult:
    """Convenience wrapper: configure and run one pass."""
    return Analyzer(
        paths, root=root, rules=rules, force_scope=force_scope
    ).run()
