"""CLI for the analyzer.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --rule HOT-slots
    python -m repro.analysis src/repro --format json --budget-seconds 10
    python -m repro.analysis --list-rules

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error, a file that
does not parse, or the wall-clock budget exceeded (the CI job uses
``--budget-seconds`` to keep the pass cheap).  The JSON report is one
object with a ``schema`` version, the run's counts and every finding.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional

from repro.analysis.walker import AnalysisResult, rule_summaries, run_analysis

JSON_SCHEMA_VERSION = 1


def render_human(result: AnalysisResult) -> str:
    lines = [f"{f.location()}  {f.rule}  {f.message}" for f in result.findings]
    tail = f"({result.suppressed_count} suppressed, {result.elapsed_s:.2f}s)"
    if result.clean:
        lines.append(
            f"clean: {result.files_scanned} files, all invariants hold {tail}"
        )
    else:
        noun = "finding" if len(result.findings) == 1 else "findings"
        lines.append(
            f"{len(result.findings)} {noun} in {result.files_scanned} "
            f"files {tail}"
        )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    return json.dumps({
        "schema": JSON_SCHEMA_VERSION,
        "root": result.root,
        "rules_run": list(result.rules_run),
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed_count,
        "elapsed_s": round(result.elapsed_s, 3),
        "counts": dict(sorted(Counter(f.rule for f in result.findings).items())),
        "findings": [vars(f) for f in result.findings],
    }, indent=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analyzer for the hot-path allocation "
        "discipline (HOT) and suppression hygiene.  See ANALYSIS.md.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE-id",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=None,
        help="fail (exit 2) if the pass takes longer than this",
    )
    parser.add_argument(
        "--force-scope", action="store_true",
        help="treat every file as hot-tagged and in the core (fixture "
        "corpora; normally scoping follows the package layout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule ids and what they enforce, then exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        summaries = rule_summaries()
        width = max(map(len, summaries))
        for rule_id, summary in summaries.items():
            print(f"{rule_id.ljust(width)}  {summary}")
        return 0

    try:
        result = run_analysis(
            args.paths, rules=args.rule, force_scope=args.force_scope
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(
            f"error: {exc.filename}:{exc.lineno}: does not parse: {exc.msg}",
            file=sys.stderr,
        )
        return 2

    print(render_json(result) if args.format == "json" else render_human(result))
    if args.budget_seconds is not None and result.elapsed_s > args.budget_seconds:
        print(
            f"error: analysis took {result.elapsed_s:.2f}s, over the "
            f"--budget-seconds {args.budget_seconds:.2f}s budget",
            file=sys.stderr,
        )
        return 2
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
