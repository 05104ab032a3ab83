#!/usr/bin/env python3
"""benchmarks/spine runner: one workload, one fresh interpreter, every metric.

    python3 benchmarks/spine/run.py --workload torture
    python3 benchmarks/spine/run.py --smoke            # all five, seconds

A run is R untraced reps of the scenario (timing from the fastest one, exact
counters from all) followed by one rep under cProfile (call counts and layer
shares).  End-to-end timings never come from the traced rep.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 1`` its metrics are the per-layer ones, otherwise the end-to-end
ones.  See README.md for what each metric means and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Temporary files (worker profiles, build timings) stay inside the checkout.
SCRATCH = os.path.join(HERE, ".scratch")

#: name -> unit; BENCHMARK.json repeats these with direction and bound.
#: Every end-to-end metric is intensive (per operation or a high-water mark),
#: because the driver varies ``--seed`` between runs and a scenario's total
#: work and simulated outcome move with the seed (see README.md).
END_TO_END: Dict[str, str] = {
    "ops_per_cpu_s": "ops/cpu_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "calls_per_op": "calls/op",
}

#: Per-layer metrics computed from the program's own counters; at a fixed
#: seed they repeat exactly, like every ``*.calls_per_op``.
COUNTER_METRICS: Dict[str, str] = {
    "sim.kernel.events_per_op": "events/op",
    "sim.kernel.peak_pending": "count",
    "sim.beats.bucket_events_per_op": "events/op",
    "net.network.msgs_per_pulse": "msgs/pulse",
    "net.network.staged_entries_per_op": "entries/op",
    "net.network.aggregated_msg_share": "share",
    "net.accounting.sim_bytes_per_msg": "sim_B/msg",
    "net.accounting.registry_sim_mb": "sim_MB",
    "net.accounting.dgc_sim_mb": "sim_MB",
    "core.collector.dgc_msg_share": "share",
    "core.collector.collect_sim_s": "sim_s",
    "runtime.registry.remote_lookups_per_resolve": "lookups/op",
    "runtime.registry.cache_hit_share": "share",
    "runtime.registry.coherence_msgs_per_update": "msgs/update",
    "runtime.registry.resolve_sim_ms": "sim_ms",
    "net.wire.frame_bytes": "B",
    "net.wire.frame_bytes_per_entry": "B/entry",
    "shard.coordinator.rounds": "count",
    "shard.coordinator.frames_per_round": "frames/round",
    "shard.worker.injected_entries_per_op": "entries/op",
    "shard.worker.coordination_event_share": "share",
}
#: Per-layer metrics that come from a clock.
TIMED_METRICS: Dict[str, str] = {
    "shard.coordinator.blocked_share": "share",
    "shard.worker.blocked_share": "share",
    "shard.worker.build_s": "s",
    "shard.cpu_vs_replay": "x",
    "harness.ops_per_wall_s": "ops/s",
    "harness.steal_share": "share",
    "harness.rep_spread": "share",
    "harness.trace_overhead_x": "x",
    "harness.import_s": "s",
    "harness.build_s": "s",
}


PER_LAYER: Dict[str, str] = {
    **{f"{layer}.cpu_share": "share" for layer in layers.LAYERS},
    **{f"{layer}.calls_per_op": "calls/op" for layer in layers.LAYERS},
    **COUNTER_METRICS,
    **TIMED_METRICS,
}

#: Every other metric is better when lower.
HIGHER_IS_BETTER = frozenset({
    "ops_per_cpu_s", "harness.ops_per_wall_s", "net.network.msgs_per_pulse",
    "net.network.aggregated_msg_share", "runtime.registry.cache_hit_share",
})


def is_exact(name: str) -> bool:
    """Does the metric repeat exactly between runs with the same seed?"""
    return name.endswith("calls_per_op") or name in COUNTER_METRICS


def repeats(name: str, first: Optional[float], second: Optional[float]) -> bool:
    """Do two same-seed values of an exact metric agree?

    Counts repeat to the call, with one exception the benchmark cannot
    remove from outside: ``Process.join`` in the standard library takes a
    longer path (a few hundred calls) when the worker has not exited yet, so
    the ``stdlib`` layer and the total may differ by that much on
    ``sharded2``.
    """
    if name in ("calls_per_op", "stdlib.calls_per_op") and first and second:
        return abs(first - second) <= 1e-3 * first
    return first == second


def sharded_only(name: str) -> bool:
    return name.startswith(("net.wire.", "shard."))


class Derived:
    """Metric values plus why a value is absent: a counter the program no
    longer exposes (``missing``) or a layer the workload does not run
    (``not_applicable``)."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.missing: List[str] = []
        self.not_applicable: List[str] = []

    def put(self, name: str, value: Optional[float]) -> None:
        self.values[name] = value
        if value is None:
            self.missing.append(name)

    def ratio(self, name: str, top: Any, bottom: Any, scale: float = 1.0) -> None:
        if top is None or bottom is None:
            self.put(name, None)
        elif bottom == 0:
            self.skip(name)
        else:
            self.values[name] = scale * top / bottom

    def skip(self, name: str) -> None:
        self.values[name] = None
        self.not_applicable.append(name)


def counter_metrics(
    c: Dict[str, Any], ops: Optional[int], *, naming: bool, sharded: bool
) -> Derived:
    """Per-layer metrics read from the program's public counters."""
    d = Derived()
    get = c.get
    updates = None
    if get("binds") is not None and get("unbinds") is not None:
        updates = get("binds") + get("unbinds")
    d.ratio("sim.kernel.events_per_op", get("events"), ops)
    d.put("sim.kernel.peak_pending", get("peak_pending"))
    d.ratio("sim.beats.bucket_events_per_op", get("bucket_events"), ops)
    d.ratio("net.network.msgs_per_pulse", get("messages"), get("pulses"))
    d.ratio("net.network.staged_entries_per_op", get("staged_entries"), ops)
    d.ratio("net.network.aggregated_msg_share",
            get("aggregated_messages"), get("messages"))
    d.ratio("net.accounting.sim_bytes_per_msg", get("sim_bytes"), get("messages"))
    d.ratio("net.accounting.registry_sim_mb", get("registry_bytes"), 1e6)
    d.ratio("net.accounting.dgc_sim_mb", get("dgc_bytes"), 1e6)
    d.ratio("core.collector.dgc_msg_share", get("dgc_messages"), get("messages"))
    d.put("core.collector.collect_sim_s", get("collect_sim_s"))
    if naming:
        d.ratio("runtime.registry.remote_lookups_per_resolve",
                get("remote_lookups"), get("resolves"))
        d.ratio("runtime.registry.cache_hit_share",
                get("cache_hits"), get("resolves"))
        d.ratio("runtime.registry.coherence_msgs_per_update",
                get("coherence_messages"), updates)
        d.ratio("runtime.registry.resolve_sim_ms",
                get("latency_sum"), get("resolves_completed"), 1000.0)
    else:
        for name in COUNTER_METRICS:
            if name.startswith("runtime.registry."):
                d.skip(name)
    if not sharded:
        for name in (*COUNTER_METRICS, *TIMED_METRICS):
            if sharded_only(name):
                d.skip(name)
        return d
    d.put("net.wire.frame_bytes", get("frame_bytes"))
    d.ratio("net.wire.frame_bytes_per_entry", get("frame_bytes"), get("frame_entries"))
    d.put("shard.coordinator.rounds", get("rounds"))
    d.ratio("shard.coordinator.frames_per_round", get("frames"), get("rounds"))
    d.ratio("shard.worker.injected_entries_per_op", get("injected_entries"), ops)
    d.ratio("shard.worker.coordination_event_share",
            get("events_coordination"), get("events"))
    return d


def median(values) -> Optional[float]:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def execute(scenario, seed: int, args: argparse.Namespace) -> Dict[str, Any]:
    """Run the reps of one workload; no arithmetic here, only measurement."""
    import rep as rep_module
    from scenarios import IMPORTS

    sharded = scenario.shards > 0
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{scenario.name}-", dir=SCRATCH)
    try:
        with rep_module.BuildTimer(scratch) as timer:
            def run_rep(**kwargs):
                return rep_module.run_rep(
                    scenario, seed, smoke=args.smoke, timer=timer, **kwargs
                )

            reps = [run_rep(sharded=sharded) for _ in range(args.reps)]
            # High-water marks are read before anything else inflates them:
            # the traced rep, or (for the workers, which inherit the
            # parent's pages) the replay's heap.
            usage = resource.getrusage(
                resource.RUSAGE_CHILDREN if sharded else resource.RUSAGE_SELF
            )
            oracle = run_rep(sharded=False) if sharded else None
            traced = None
            if not args.no_trace:
                traced = run_rep(sharded=sharded, profile_dir=scratch)
        # This process has already imported the program, so the page and
        # bytecode caches are warm for every probe.
        probes = [
            rep_module.probe_import(sys.executable, IMPORTS, _child_env())
            for _ in range(1 if args.smoke else 5)
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"reps": reps, "oracle": oracle, "traced": traced,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "probes": probes}


def audit_run(scenario, reps, oracle, traced) -> Tuple[int, int, List[str]]:
    """Operations attempted and failed over every rep of the run."""
    import rep as rep_module

    first = reps[0]
    audited = [(f"rep {index}", one, first) for index, one in enumerate(reps)]
    if traced is not None:
        audited.append(("traced rep", traced, first))
    if oracle is not None:
        audited.append(("replay oracle", oracle, oracle))
    attempted = failed = 0
    failures: List[str] = []
    for label, one, reference in audited:
        a, f, why = rep_module.audit(
            label, one, reference, scenario.op, scenario.workload == "naming"
        )
        attempted, failed, failures = attempted + a, failed + f, failures + why
    if oracle is not None and oracle.signature != first.signature:
        failures.append("rep 0: outcome signature differs from the replay's")
        failed += rep_module.op_count(scenario.op, first.counters) or 1
    return attempted, failed, failures


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload and return the full report."""
    import rep as rep_module
    from scenarios import SCENARIOS

    scenario = SCENARIOS[args.workload]
    seed = scenario.seed if args.seed is None else args.seed
    sharded = scenario.shards > 0
    run = execute(scenario, seed, args)
    reps, oracle, traced = run["reps"], run["oracle"], run["traced"]
    attempted, failed, failures = audit_run(scenario, reps, oracle, traced)

    counters = reps[0].counters
    ops = rep_module.op_count(scenario.op, counters)
    cpu = [one.cpu_s for one in reps]
    build_s = median(one.build_s for one in reps)
    topology_s = median(one.topology_s for one in reps)
    import_s = median(run["probes"])

    derived = counter_metrics(
        counters, ops, naming=scenario.workload == "naming", sharded=sharded
    )
    per_layer = derived.values
    trace_rows: List[Dict[str, Any]] = []
    calls_per_op = None
    if traced is not None and traced.profiles and ops:
        folded = {
            process: layers.fold(table)
            for process, table in traced.profiles.items()
        }
        merged = layers.merge(folded.values())
        for layer, share in layers.shares(merged).items():
            per_layer[f"{layer}.cpu_share"] = share
            per_layer[f"{layer}.calls_per_op"] = merged[layer]["calls"] / ops
        calls_per_op = sum(r["calls"] for r in merged.values()) / ops
        for process, records in folded.items():
            trace_rows += layers.trace_records(process, records)
        if sharded:
            per_layer["shard.coordinator.blocked_share"] = layers.blocked_share(
                folded["main"]
            )
            per_layer["shard.worker.blocked_share"] = statistics.mean(
                layers.blocked_share(records)
                for process, records in folded.items() if process != "main"
            )
    if sharded:
        per_layer["shard.worker.build_s"] = build_s
        per_layer["shard.cpu_vs_replay"] = median(cpu) / oracle.cpu_s
    wall = [one.wall_s for one in reps]
    per_layer["harness.ops_per_wall_s"] = ops / min(wall) if ops else None
    stolen = [one.stolen_s for one in reps]
    per_layer["harness.steal_share"] = (
        None if None in stolen else sum(stolen) / (os.cpu_count() * sum(wall))
    )
    per_layer["harness.rep_spread"] = (max(cpu) - min(cpu)) / median(cpu)
    per_layer["harness.trace_overhead_x"] = (
        traced.cpu_s / median(cpu) if traced is not None else None
    )
    per_layer["harness.import_s"] = import_s
    per_layer["harness.build_s"] = build_s

    end_to_end = {
        "ops_per_cpu_s": ops / min(cpu) if ops else None,
        "setup_s": import_s + (build_s or 0.0) + topology_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "calls_per_op": calls_per_op,
    }
    return {
        "workload": args.workload,
        "seed": seed,
        "smoke": args.smoke,
        "ops": ops,
        "end_to_end": _with_units(end_to_end, END_TO_END),
        "per_layer": _with_units(per_layer, PER_LAYER),
        "missing": derived.missing
        + [k for k, v in end_to_end.items() if v is None],
        "not_applicable": derived.not_applicable,
        "reps": [
            {"cpu_s": r.cpu_s, "wall_s": r.wall_s, "stolen_s": r.stolen_s,
             "build_s": r.build_s, "topology_s": r.topology_s}
            for r in reps
        ],
        "import_probes_s": run["probes"],
        "counters": counters,
        "trace": trace_rows,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not failures,
    }


def _with_units(values: Dict[str, Optional[float]], units: Dict[str, str]):
    return {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in units.items()
    }


def result_line(report: Dict[str, Any], group: str) -> str:
    """The driver's line: every metric of the group, as a number.

    A per-layer metric with nothing to measure on this workload (a layer
    that does not run, a counter the merged result does not carry) reads 0;
    the report's ``missing`` / ``not_applicable`` lists say which.  An
    end-to-end metric is never absent on a correct run.
    """
    metrics = {
        name: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for name, m in report[group].items()
    }
    return json.dumps({
        "correct": report["correct"],
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": metrics,
    })


def print_report(report: Dict[str, Any]) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"ops {report['ops']}  reps {len(report['reps'])}"
          f"{'  (smoke)' if report['smoke'] else ''}")
    for group in ("end_to_end", "per_layer"):
        print(f"-- {group}")
        for name, metric in report[group].items():
            value = metric["value"]
            if value is None:
                continue
            print(f"{name:48s} {value:16.6f} {metric['unit']}")
    for label in ("missing", "not_applicable"):
        if report[label]:
            print(f"-- {label}: {', '.join(report[label])}")
    print(f"-- ops attempted {report['attempted']}  failed {report['failed']}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    return env


def parse(argv: List[str]) -> argparse.Namespace:
    from scenarios import NOMINAL_REP_S, SCENARIOS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(SCENARIOS),
                        help="default: every workload, one interpreter each")
    parser.add_argument("--seed", type=int, default=None,
                        help="world seed (default: the scenario's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced measuring time; sets the rep count")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced reps (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="result line: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced rep (no call counts or shares)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the per-(process, layer) trace records")
    parser.add_argument("--json", metavar="PATH", help="write the full report")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-scale sizes, one rep: a quick check")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.smoke else max(3, round(args.seconds / NOMINAL_REP_S))
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    return args


def main(argv: List[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes feed set/dict iteration order; pin them so call
        # counts repeat exactly from one interpreter to the next.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmarks/spine: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse(argv)
    if args.workload is None:
        from scenarios import SCENARIOS

        if args.json or args.trace_out:
            print("--json/--trace-out need one --workload", file=sys.stderr)
            return 2
        # One fresh interpreter per workload, as for a single run.
        codes = [
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name]
                + argv
            ).returncode
            for name in SCENARIOS
        ]
        return max(codes)
    report = measure(args)
    print_report(report)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(report, out, indent=1)
    if args.trace_out:
        with open(args.trace_out, "w") as out:
            json.dump(report["trace"], out, indent=1)
    print(result_line(report, "per_layer" if args.trace else "end_to_end"))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
