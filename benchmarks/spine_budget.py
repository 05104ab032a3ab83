"""The spine's exact count as a ratchet: ``calls_per_op`` against a budget.

``benchmarks/spine_budget.json`` records each workload's ``--smoke``
``calls_per_op`` (exact at a fixed seed under one interpreter version).
CI's ``spine-smoke`` job runs::

    python3 benchmarks/spine_budget.py SPINE_smoke_*.json

which prints budget beside value for its step summary and exits 1 when a
workload exceeds its budget by more than the file's ``tolerance`` (or has
no budget, or no report).  Each report's ``peak_rss_mb`` is printed beside
it for the reader; it is reported, not gated.  After a change that moves the counts on purpose,
refresh the file from fresh reports with ``--write`` and commit it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

BUDGET_PATH = os.path.join(os.path.dirname(__file__), "spine_budget.json")


Measured = Tuple[float, int, float]


def measured(paths: List[str]) -> Dict[str, Measured]:
    """``workload -> (calls_per_op, failed ops, peak_rss_mb)`` of the
    given reports."""
    values = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        end_to_end = report["end_to_end"]
        values[report["workload"]] = (
            end_to_end["calls_per_op"]["value"], report["failed"],
            end_to_end["peak_rss_mb"]["value"],
        )
    return values


def check(budget: dict, values: Dict[str, Measured]) -> Tuple[List[str], bool]:
    """The summary lines and whether every workload is inside its budget."""
    limit = 1.0 + budget["tolerance"]
    lines = [
        f"{'workload':<16}{'calls_per_op':>14}{'budget':>10}{'over':>9}"
        f"{'failed':>8}{'peak_rss_mb':>13}"
    ]
    ok = True
    for workload in sorted(set(budget["calls_per_op"]) | set(values)):
        allowed = budget["calls_per_op"].get(workload)
        calls, failed, rss = values.get(workload, (None, None, None))
        if allowed is None or calls is None:
            ok = False
            lines.append(f"{workload:<16}{'no budget' if allowed is None else 'no report':>14}")
            continue
        inside = calls <= allowed * limit
        ok = ok and inside
        lines.append(
            f"{workload:<16}{calls:>14.3f}{allowed:>10.3f}"
            f"{100.0 * (calls / allowed - 1.0):>+8.1f}%{failed:>8}{rss:>13.1f}"
            + ("" if inside else "  OVER BUDGET")
        )
    return lines, ok


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", help="spine --smoke --json reports")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the budget from the reports")
    args = parser.parse_args(argv)
    with open(BUDGET_PATH) as handle:
        budget = json.load(handle)
    values = measured(args.reports)
    if args.write:
        budget["calls_per_op"] = {
            workload: round(values[workload][0], 3) for workload in sorted(values)
        }
        with open(BUDGET_PATH, "w") as handle:
            json.dump(budget, handle, indent=2)
            handle.write("\n")
    lines, ok = check(budget, values)
    print("```")
    print("\n".join(lines))
    print("```")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
