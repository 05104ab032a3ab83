"""Render a parent-vs-change comparison from two directories of spine reports.

The claim protocol of this repo (ROADMAP "Recent", PERFORMANCE.md) asks every
performance PR for the same evidence: exact counts compared seed by seed,
exact simulation counters shown identical, the layer rows that moved, and
timings reported from interleaved pairs without being claimed.  This script
turns the ``--json`` reports of ``benchmarks/spine/run.py`` into that evidence
as Markdown, so PERFORMANCE.md quotes generated text and no number is copied
by hand::

    python3 benchmarks/compare_spine.py PARENT_DIR CHANGE_DIR \
        [--steady-state] [--flip WORKLOAD=DIR:LABEL] > section.md

Each directory holds ``<workload>_<seed>.json`` files (``seed`` is ``default``
or a number), one per run; both sides must have been produced by the same,
unmodified spine.  ``--flip`` adds a table comparing CHANGE_DIR with a third
directory in which one library default was flipped (ROADMAP item 1c) — in a
scratch copy of the change, or of the parent when the change deleted the knob;
``--steady-state`` adds the share of DGC deliveries the change answered on
the collector's steady-state lane, per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

WORKLOADS = ("torture", "nas_ft", "naming_resolve", "naming_bind", "sharded2")
#: ``(workload, seed) -> report``.
Reports = Dict[Tuple[str, str], Dict[str, Any]]


def load(directory: str) -> Reports:
    reports: Reports = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, _, seed = name[:-5].rpartition("_")
        with open(os.path.join(directory, name)) as handle:
            reports[(workload, seed)] = json.load(handle)
    return reports


def seeds_of(reports: Reports, workload: str) -> List[str]:
    seeds = [seed for (name, seed) in reports if name == workload]
    return sorted(seeds, key=lambda s: (s != "default", int(s) if s.isdigit() else 0))


def e2e(report: Dict[str, Any], metric: str) -> float:
    return report["end_to_end"][metric]["value"]


def layer_calls(report: Dict[str, Any]) -> Dict[str, float]:
    suffix = ".calls_per_op"
    return {
        name[: -len(suffix)]: entry["value"]
        for name, entry in report["per_layer"].items()
        if name.endswith(suffix)
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.3f}"


def counts_table(parent: Reports, change: Reports) -> List[str]:
    lines = [
        "| workload | default seed: parent | change | seeds 1-10 median: parent"
        " | change | lower on | equal on | higher on |",
        "|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for workload in WORKLOADS:
        seeds = [s for s in seeds_of(parent, workload) if (workload, s) in change]
        if not seeds:
            continue
        numbered = [s for s in seeds if s != "default"]
        before = [e2e(parent[(workload, s)], "calls_per_op") for s in numbered]
        after = [e2e(change[(workload, s)], "calls_per_op") for s in numbered]
        lower = sum(a < b for a, b in zip(after, before))
        equal = sum(a == b for a, b in zip(after, before))
        default = (
            (fmt(e2e(parent[(workload, "default")], "calls_per_op")),
             fmt(e2e(change[(workload, "default")], "calls_per_op")))
            if "default" in seeds else ("-", "-")
        )
        medians = (
            (fmt(statistics.median(before)), fmt(statistics.median(after)))
            if numbered else ("-", "-")
        )
        lines.append(
            f"| `{workload}` | {default[0]} | {default[1]} | "
            f"{medians[0]} | {medians[1]} | "
            f"{lower}/{len(numbered)} | {equal}/{len(numbered)} | "
            f"{len(numbered) - lower - equal}/{len(numbered)} |"
        )
    return lines


def identity_table(parent: Reports, change: Reports) -> List[str]:
    lines = [
        "| workload | runs compared | exact counters compared | runs with every"
        " counter identical | failed ops (parent / change) | differing counters |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for workload in WORKLOADS:
        seeds = [s for s in seeds_of(parent, workload) if (workload, s) in change]
        if not seeds:
            continue
        identical = 0
        differing = set()
        width = 0
        failed = [0, 0]
        for seed in seeds:
            a, b = parent[(workload, seed)], change[(workload, seed)]
            names = sorted(set(a["counters"]) | set(b["counters"]))
            width = max(width, len(names) + 1)
            moved = [n for n in names if a["counters"].get(n) != b["counters"].get(n)]
            if a["ops"] != b["ops"]:
                moved.append("ops")
            differing.update(moved)
            identical += not moved
            failed[0] += a["failed"]
            failed[1] += b["failed"]
        lines.append(
            f"| `{workload}` | {len(seeds)} | {width} | {identical}/{len(seeds)} | "
            f"{failed[0]} / {failed[1]} | {', '.join(sorted(differing)) or 'none'} |"
        )
    return lines


def layers_table(parent: Reports, change: Reports, threshold: float) -> List[str]:
    lines = [
        "| workload | layer | calls/op parent | calls/op change |",
        "|---|---|---:|---:|",
    ]
    for workload in WORKLOADS:
        key = (workload, "default")
        if key not in parent or key not in change:
            continue
        before, after = layer_calls(parent[key]), layer_calls(change[key])
        for layer in before:
            if abs(before[layer] - after.get(layer, 0.0)) > threshold:
                lines.append(
                    f"| `{workload}` | `{layer}` | {fmt(before[layer])} | "
                    f"{fmt(after.get(layer, 0.0))} |"
                )
    return lines


def risen_layers(parent: Reports, change: Reports) -> List[str]:
    """One line per (workload, layer) whose calls/op rose on any seed."""
    risen: Dict[Tuple[str, str], List[float]] = {}
    runs: Dict[str, int] = {}
    for key in sorted(set(parent) & set(change)):
        runs[key[0]] = runs.get(key[0], 0) + 1
        before, after = layer_calls(parent[key]), layer_calls(change[key])
        for layer, value in after.items():
            delta = value - before.get(layer, 0.0)
            if delta > 1e-9:
                risen.setdefault((key[0], layer), []).append(delta)
    return [
        f"`{workload}` `{layer}`: on {len(deltas)}/{runs[workload]} runs, by "
        f"{min(deltas):.1e} to {max(deltas):.1e} calls/op"
        for (workload, layer), deltas in risen.items()
    ]


def entered(report: Dict[str, Any], layer: str, sources: Tuple[str, ...]) -> int:
    """Calls that crossed into ``layer`` from any of ``sources``, summed
    over the traced rep's processes (the report's ``trace`` rows)."""
    return sum(
        row["entered"].get(source, {}).get("calls", 0)
        for row in report["trace"] if row["layer"] == layer
        for source in sources
    )


def steady_table(parent: Reports, change: Reports) -> List[str]:
    """Share of DGC deliveries answered on the steady-state lane.

    The collector is entered from the fabric (``net.network`` for
    singles, ``runtime.node`` for runs) once per delivered DGC message
    or response.  At the parent it enters ``core.protocol`` once per
    delivery that is not to a doomed activity, plus Algorithm 2's calls
    per tick; at the change only for a delivery with news, plus the same
    per-tick calls — so the difference counts exactly the deliveries
    the lane answered without Algorithms 3/4."""
    lines = [
        "| workload | DGC deliveries | answered on the steady-state lane |"
        " share |",
        "|---|---:|---:|---:|",
    ]
    for workload in WORKLOADS:
        key = (workload, "default")
        if key not in parent or key not in change:
            continue
        fabric = ("net.network", "runtime.node")
        deliveries = entered(change[key], "core.collector", fabric)
        steady = (
            entered(parent[key], "core.protocol", ("core.collector",))
            - entered(change[key], "core.protocol", ("core.collector",))
        )
        if deliveries != entered(parent[key], "core.collector", fabric):
            raise SystemExit(f"{workload}: DGC deliveries differ between the sides")
        share = f"{100.0 * steady / deliveries:.1f} %" if deliveries else "-"
        lines.append(f"| `{workload}` | {deliveries:,} | {steady:,} | {share} |")
    return lines


def timings_table(parent: Reports, change: Reports) -> List[str]:
    lines = [
        "| workload | metric | pairs | parent median (q1-q3) | change median"
        " (q1-q3) | change better on | median change |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    better_when_higher = {"ops_per_cpu_s": True, "setup_s": False, "peak_rss_mb": False}
    for workload in WORKLOADS:
        seeds = [s for s in seeds_of(parent, workload) if (workload, s) in change]
        if not seeds:
            continue
        for metric, higher in better_when_higher.items():
            before = [e2e(parent[(workload, s)], metric) for s in seeds]
            after = [e2e(change[(workload, s)], metric) for s in seeds]
            wins = sum((a > b) if higher else (a < b) for a, b in zip(after, before))
            pq, cq = quartiles(before), quartiles(after)
            lines.append(
                f"| `{workload}` | `{metric}` | {len(seeds)} | "
                f"{fmt(pq[1])} ({fmt(pq[0])}-{fmt(pq[2])}) | "
                f"{fmt(cq[1])} ({fmt(cq[0])}-{fmt(cq[2])}) | "
                f"{wins}/{len(seeds)} | {100.0 * (cq[1] / pq[1] - 1.0):+.1f} % |"
            )
    return lines


def flip_table(change: Reports, flipped: Reports, workload: str, label: str) -> List[str]:
    lines = [
        f"| seed | calls/op default | calls/op {label} | messages default | "
        f"messages {label} | ops equal | collect_sim_s equal |",
        "|---|---:|---:|---:|---:|---|---|",
    ]
    for seed in seeds_of(flipped, workload):
        if (workload, seed) not in change:
            continue
        a, b = change[(workload, seed)], flipped[(workload, seed)]
        lines.append(
            f"| {seed} | {fmt(e2e(a, 'calls_per_op'))} | {fmt(e2e(b, 'calls_per_op'))} | "
            f"{a['counters']['messages']:,} | {b['counters']['messages']:,} | "
            f"{'yes' if a['ops'] == b['ops'] else 'NO'} | "
            f"{'yes' if a['counters']['collect_sim_s'] == b['counters']['collect_sim_s'] else 'NO'} |"
        )
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--layer-threshold", type=float, default=0.05,
                        help="calls/op a layer must move to get a row")
    parser.add_argument("--flip", action="append", default=[],
                        metavar="WORKLOAD=DIR:LABEL")
    parser.add_argument("--steady-state", action="store_true",
                        help="add the DGC steady-state share per workload")
    args = parser.parse_args(argv)
    parent, change = load(args.parent_dir), load(args.change_dir)
    out: List[str] = []
    out += ["**`calls_per_op`, seed by seed** (exact at a fixed seed; a count,"
            " not a speed-up):", ""] + counts_table(parent, change) + [""]
    out += ["**Exact simulation counters** (`ops` and every entry of the"
            " report's `counters`: messages, bytes per family, events, pulses,"
            " staged entries, collection time, registry counters):", ""]
    out += identity_table(parent, change) + [""]
    out += [f"**Layer rows that moved** (default seed, |delta| >"
            f" {args.layer_threshold} calls/op):", ""]
    out += layers_table(parent, change, args.layer_threshold) + [""]
    risen = risen_layers(parent, change)
    out += ["**Layers whose calls/op rose, any workload, any seed:** "
            + ("none." if not risen else ""), ""]
    out += [f"- {line}" for line in risen] + ([""] if risen else [])
    if args.steady_state:
        out += ["**Steady-state share** (default seed; DGC messages and"
                " responses delivered to a collector, and how many of them"
                " the change answered without entering `core/protocol.py`"
                " — counted as the drop in `core.collector` ->"
                " `core.protocol` calls, which is exact because the"
                " per-tick calls are the same on both sides):", ""]
        out += steady_table(parent, change) + [""]
    out += ["**Timings and memory** (interleaved parent/change pairs, one run"
            " at a time; reported, not claimed):", ""]
    out += timings_table(parent, change) + [""]
    for spec in args.flip:
        workload, _, rest = spec.partition("=")
        directory, _, label = rest.partition(":")
        out += [f"**`{workload}` with {label} flipped in a scratch copy:**",
                ""]
        # One directory may hold several flipped workloads.
        flipped = {
            key: report for key, report in load(directory).items()
            if key[0] == workload
        }
        out += flip_table(change, flipped, workload, label or "flipped") + [""]
        out += [f"Layers that moved under the flip (default seed, |delta| >"
                f" {args.layer_threshold} calls/op; `parent` = default,"
                f" `change` = {label}):", ""]
        out += layers_table(change, flipped, args.layer_threshold) + [""]
    print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
