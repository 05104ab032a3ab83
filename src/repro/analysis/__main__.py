"""CLI for the fabric-invariant analyzer.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --rule DET-entropy --rule KIND-literal
    python -m repro.analysis src/repro --format json --budget-seconds 10
    python -m repro.analysis --list-rules

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error or
wall-clock budget exceeded (the CI job uses ``--budget-seconds`` to
assert the pass stays cheap).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_human, render_json
from repro.analysis.walker import (
    META_PARSE,
    META_SUPPRESSION,
    Analyzer,
    all_rule_ids,
    rule_summaries,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analyzer for the fabric's load-bearing invariants: "
            "determinism (DET), the closed traffic-kind vocabulary (KIND), "
            "the SPMD shard contract (SPMD), and hot-path allocation "
            "discipline (HOT).  See ANALYSIS.md."
        ),
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
        "--root", default=None,
        help="directory findings paths are reported relative to "
        "(default: the first scanned directory)",
    )
    parser.add_argument(
        "--budget-seconds", type=float, default=None,
        help="fail (exit 2) if the pass takes longer than this "
        "wall-clock budget — keeps the CI job honest about cost",
    )
    parser.add_argument(
        "--force-scope", action="store_true",
        help="treat every file as in every rule scope (fixture corpora "
        "and ad-hoc snippets; normally scoping follows the package "
        "layout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule ids and what they enforce, then exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        summaries = dict(rule_summaries())
        summaries[META_PARSE] = (
            "engine pseudo-rule: a file that does not parse is a finding, "
            "not a crash"
        )
        summaries[META_SUPPRESSION] = (
            "engine pseudo-rule: suppressions must carry a reason and "
            "name known rules"
        )
        width = max(len(rule_id) for rule_id in summaries)
        for rule_id in sorted(summaries):
            print(f"{rule_id.ljust(width)}  {summaries[rule_id]}")
        return 0

    try:
        analyzer = Analyzer(
            args.paths,
            root=args.root,
            rules=args.rule,
            force_scope=args.force_scope,
        )
        result = analyzer.run()
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result))

    if (
        args.budget_seconds is not None
        and result.elapsed_s > args.budget_seconds
    ):
        print(
            f"error: analysis took {result.elapsed_s:.2f}s, over the "
            f"--budget-seconds {args.budget_seconds:.2f}s budget",
            file=sys.stderr,
        )
        return 2
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
