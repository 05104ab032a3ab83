"""``python -m tests.golden [--write | --diff]`` (run with ``PYTHONPATH=src``).

No flag prints the computed outcomes as JSON; ``--write`` regenerates
``tests/golden/outcomes.json``; ``--diff`` prints every value that
differs from it and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import sys

from tests.golden import OUTCOMES_PATH, compute_all, diff, load, render


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"regenerate {OUTCOMES_PATH}")
    mode.add_argument("--diff", action="store_true",
                      help="print the values that differ from the file")
    args = parser.parse_args(argv)
    outcomes = compute_all()
    if args.write:
        with open(OUTCOMES_PATH, "w") as stream:
            stream.write(render(outcomes))
        return 0
    if args.diff:
        lines = diff(load(), outcomes)
        print("\n".join(lines) if lines else "no difference")
        return 1 if lines else 0
    sys.stdout.write(render(outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
