#!/usr/bin/env python3
"""A/A check: do two sets of runs of the *same* code agree within the bounds?

    python3 benchmarks/spine/aa_check.py                 # 2 sets x 3 runs
    python3 benchmarks/spine/aa_check.py --runs 10 --vary-seed

Runs every workload ``--runs`` times per set, the sets interleaved (A B A B
...) so that slow drift of the machine lands on both.  Prints, per workload
and end-to-end metric, each set's median and quartile spread, the gap
between the sets and the bound from BENCHMARK.json.  Exits non-zero when a
gap or a spread exceeds its bound, when a run reports failed operations, or
when an exact metric (``calls_per_op``, any layer's ``calls_per_op``, every
counter-derived metric such as ``core.collector.collect_sim_s``) differs
between runs that used the same seed.

Decision rule when a timing metric misses its bound: lengthen the run (reps,
then scale) inside the time cap; if it still misses, demote the metric to a
per-layer one and record why in README.md (as was done for wall clock) — the
bounds already sit at the contract's cap and cannot be widened.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

import run as runner


def one_run(workload: str, seed, extra: List[str], scratch: str) -> Dict[str, Any]:
    path = os.path.join(scratch, "report.json")
    command = [sys.executable, os.path.join(runner.HERE, "run.py"),
               "--workload", workload, "--json", path] + extra
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, check=False, stdout=subprocess.DEVNULL)
    if not os.path.exists(path):
        raise SystemExit(f"run.py wrote no report for {workload} (exit {done.returncode})")
    with open(path) as source:
        report = json.load(source)
    os.remove(path)
    return report


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def judge(
    workload: str, sets: List[List[Dict[str, Any]]], contract, *,
    paired: bool, timed: bool,
) -> List[str]:
    """Print one row per end-to-end metric; return what is out of bounds.

    ``timed=False`` (smoke sizes, where a rep is a fraction of a second and
    timings mean nothing) judges failed operations and exact metrics only.
    """
    problems = [
        f"{workload}: {report['failed']} failed ops: " + "; ".join(report["failures"])
        for runs in sets for report in runs if not report["correct"]
    ]
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["end_to_end"][name]["value"] for r in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        gap = max(worse_by(a, b, metric["better"]) for a in medians for b in medians)
        print(f"{workload:15s} {name:14s} "
              + " ".join(f"{m:14.6g} {s:6.3f}" for m, s in zip(medians, spreads))
              + f" {gap:7.4f} {bound:6.3f}")
        if not timed and not runner.is_exact(name):
            continue
        if gap > bound:
            problems.append(f"{workload} {name}: gap {gap:.4f} > bound {bound}")
        if name != "setup_s" and max(spreads) > bound:
            problems.append(
                f"{workload} {name}: spread {max(spreads):.4f} > bound {bound}"
            )
    # Same seed, same code: exact metrics must not move at all.  With varied
    # seeds, run i of one set pairs with run i of the others.
    groups = zip(*sets) if paired else [[r for runs in sets for r in runs]]
    for same_seed in groups:
        reference = same_seed[0]
        for other in same_seed[1:]:
            for group in ("end_to_end", "per_layer"):
                for name, metric in reference[group].items():
                    a, b = metric["value"], other[group][name]["value"]
                    if runner.is_exact(name) and not runner.repeats(name, a, b):
                        problems.append(
                            f"{workload} {name}: exact metric differs, {a} vs {b}"
                        )
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    parser.add_argument("--workload", action="append",
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i of every set uses --seed i+1, as the driver does")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-scale sizes: checks the plumbing and the "
                             "exact metrics, not the timings")
    args = parser.parse_args(argv)

    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as source:
        contract = json.load(source)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    extra = ["--smoke"] if args.smoke else []
    os.makedirs(runner.SCRATCH, exist_ok=True)
    #: reports[workload][set][run]
    reports: Dict[str, List[List[Dict[str, Any]]]] = {
        w: [[] for _ in range(args.sets)] for w in workloads
    }
    with tempfile.TemporaryDirectory(dir=runner.SCRATCH) as scratch:
        for index in range(args.runs):
            seed = index + 1 if args.vary_seed else None
            for which in range(args.sets):
                for workload in workloads:
                    reports[workload][which].append(
                        one_run(workload, seed, extra, scratch)
                    )
                    print(f"run {index} set {which} {workload} done",
                          file=sys.stderr, flush=True)

    print(f"{'workload':15s} {'metric':14s} "
          + " ".join(f"{'median ' + str(s):>14s} {'iqr':>6s}" for s in range(args.sets))
          + f" {'gap':>7s} {'bound':>6s}")
    problems: List[str] = []
    for workload in workloads:
        problems += judge(workload, reports[workload], contract,
                          paired=args.vary_seed, timed=not args.smoke)
    for problem in problems:
        print(f"A/A FAILED {problem}")
    if not problems:
        print("A/A ok: every gap and spread within its bound, exact metrics identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
