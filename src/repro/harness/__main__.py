"""Command-line entry point: regenerate the paper's tables and figures,
or drive one workload directly.

Examples::

    python -m repro.harness fig8
    python -m repro.harness fig9 --ao-count 32 --runs 1
    python -m repro.harness fig10 --slaves 160
    python -m repro.harness run --workload nas:ft --ao-count 32
    python -m repro.harness run --workload torture --slaves 160 \
        --beat-slots auto
    python -m repro.harness all
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.harness.figures import fig10_report, run_fig10
from repro.harness.tables import fig8_table, fig9_table, run_comparisons


def _beat_slots(value: str):
    """``--beat-slots`` accepts an integer grid or ``auto`` (the
    adaptive per-node slot controller)."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _add_nas_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ao-count", type=int, default=None,
        help="workers per kernel (default: the scaled preset, 64; "
        "paper scale is 256)",
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="seeds per configuration"
    )
    parser.add_argument(
        "--nodes", type=int, default=32, help="nodes in the topology"
    )
    parser.add_argument(
        "--kernels", default="CG,EP,FT", help="comma-separated kernel list"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.harness")
    subparsers = parser.add_subparsers(dest="command", required=True)

    fig8 = subparsers.add_parser("fig8", help="bandwidth-overhead table")
    _add_nas_args(fig8)
    fig9 = subparsers.add_parser("fig9", help="time-overhead table")
    _add_nas_args(fig9)

    fig10 = subparsers.add_parser("fig10", help="torture-test evolution")
    fig10.add_argument("--slaves", type=int, default=320)
    fig10.add_argument("--duration", type=float, default=600.0)
    fig10.add_argument("--nodes", type=int, default=32)
    fig10.add_argument("--seed", type=int, default=1)
    fig10.add_argument(
        "--skip-slow", action="store_true",
        help="skip the TTB=300 run (it simulates ~5 hours)",
    )
    fig10.add_argument(
        "--paper-scale", action="store_true",
        help="the paper's full Fig. 10 scale: 6400 slaves on 128 nodes "
        "(overrides --slaves/--nodes; see PERFORMANCE.md)",
    )
    fig10.add_argument(
        "--beat-slots", type=_beat_slots, default=None,
        help="quantize heartbeat jitter onto N phase slots per TTB so "
        "beats coalesce into wheel buckets (recommended at paper "
        "scale: 16; 'auto' scales the grid with per-node activity "
        "count)",
    )
    fig10.add_argument(
        "--aggregation",
        choices=["per-event", "exact", "relaxed"],
        default=None,
        help="delivery core: the per-event reference implementation, "
        "exact-order site-pair aggregation (the default), or the "
        "relaxed per-(site pair, beat bucket) coalescing tier",
    )

    run_cmd = subparsers.add_parser(
        "run",
        help="drive one workload (torture or a NAS kernel) through the "
        "unified fabric and print its summary",
    )
    run_cmd.add_argument(
        "--workload",
        choices=["torture", "nas:cg", "nas:ep", "nas:ft", "naming"],
        default="torture",
        help="which traffic shape to run: the Fig. 10 torture test, one "
        "of the paper's NAS kernel skeletons (Sec. 5.2), or the naming "
        "service's bind/resolve/unbind churn (Sec. 4.1)",
    )
    run_cmd.add_argument("--nodes", type=int, default=32)
    run_cmd.add_argument("--seed", type=int, default=1)
    run_cmd.add_argument(
        "--live", action="store_true",
        help="sharded multi-process execution: partition the nodes over "
        "worker processes (per-shard LiveKernels, struct-packed wire "
        "frames between them) instead of the single-process simulator",
    )
    run_cmd.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker-process count for --live (default 2; implies "
        "--live when given)",
    )
    run_cmd.add_argument(
        "--ttb", type=float, default=None, help="heartbeat period override"
    )
    run_cmd.add_argument(
        "--tta", type=float, default=None, help="silence window override"
    )
    run_cmd.add_argument(
        "--no-dgc", action="store_true",
        help="run without the DGC (explicit termination, the paper's "
        "bandwidth baseline)",
    )
    run_cmd.add_argument(
        "--paper-scale", action="store_true",
        help="the paper's scale for the chosen workload: 6400 slaves / "
        "128 nodes (torture) or 256 workers / 128 nodes (NAS)",
    )
    run_cmd.add_argument(
        "--beat-slots", type=_beat_slots, default=None,
        help="heartbeat phase slots per TTB (int or 'auto')",
    )
    run_cmd.add_argument(
        "--aggregation",
        choices=["per-event", "exact", "relaxed"],
        default=None,
        help="delivery core: the per-event reference implementation, "
        "exact-order site-pair aggregation (the default), or the "
        "relaxed per-(site pair, beat bucket) coalescing tier",
    )
    run_cmd.add_argument(
        "--relaxed-flush", type=float, default=None, metavar="SECONDS",
        help="flush period of the relaxed tier's coalescing buckets "
        "(default: TTB/4; only meaningful with --aggregation relaxed)",
    )
    # NAS knobs.
    run_cmd.add_argument(
        "--ao-count", type=int, default=None, help="NAS workers"
    )
    run_cmd.add_argument(
        "--nas-barrier", action="store_true",
        help="synchronous NAS variant: every exchange expects a reply "
        "and each iteration barriers on the returned futures",
    )
    run_cmd.add_argument(
        "--iterations", type=int, default=None, help="NAS iterations"
    )
    run_cmd.add_argument(
        "--payload-bytes", type=int, default=None,
        help="NAS per-message payload (CG vectors / FT transpose blocks)",
    )
    run_cmd.add_argument(
        "--iter-time", type=float, default=None,
        help="NAS per-iteration compute time (seconds)",
    )
    # Torture knobs.
    run_cmd.add_argument("--slaves", type=int, default=320)
    run_cmd.add_argument("--duration", type=float, default=600.0)
    # Naming knobs.
    run_cmd.add_argument(
        "--registry-placement",
        choices=["home", "replicated", "hashed"],
        default="home",
        help="where authoritative registry shards live (naming service)",
    )
    run_cmd.add_argument(
        "--lease-ttb", type=int, default=0,
        help="lease TTL for cached bindings, in beats of the lease sweep "
        "(0 disables the lease cache — the static-home baseline)",
    )
    run_cmd.add_argument(
        "--registry-cache", type=int, default=256,
        help="per-node lease-cache capacity (entries)",
    )
    run_cmd.add_argument(
        "--clients", type=int, default=64,
        help="naming workload: lookup clients spread across the grid",
    )
    run_cmd.add_argument(
        "--services", type=int, default=24,
        help="naming workload: bound services",
    )
    run_cmd.add_argument(
        "--lookup-period", type=float, default=4.0,
        help="naming workload: mean seconds between client lookup bursts",
    )
    run_cmd.add_argument(
        "--lookup-burst", type=int, default=4,
        help="naming workload: lookups issued per client wake-up",
    )
    run_cmd.add_argument(
        "--churn-period", type=float, default=None,
        help="naming workload: mean seconds between unbind/rebind churn",
    )
    run_cmd.add_argument(
        "--coherence", choices=["eager", "beat"], default="eager",
        help="registry coherence: eager per-update fan-out (default) or "
        "beat-quantized batches flushed once per lease beat",
    )
    run_cmd.add_argument(
        "--names", type=int, default=None,
        help="naming workload: total bound names, aliased round-robin "
        "over the services (default: one per service)",
    )
    run_cmd.add_argument(
        "--zipf-s", type=float, default=0.0,
        help="naming workload: Zipf skew for lookup/churn name draws "
        "(0 = uniform)",
    )
    run_cmd.add_argument(
        "--churn-burst", type=int, default=1,
        help="naming workload: names unbound+rebound per binder wake",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="run the fabric-invariant static analyzer (repro.analysis) "
        "over the source tree; exits non-zero on findings",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    analyze.add_argument(
        "--rule", action="append", default=None, metavar="RULE-id",
        help="run only this rule (repeatable; default: all rules)",
    )
    analyze.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="report format (default: human)",
    )
    analyze.add_argument(
        "--budget-seconds", type=float, default=None,
        help="fail (exit 2) if the pass exceeds this wall-clock budget",
    )
    analyze.add_argument(
        "--force-scope", action="store_true",
        help="treat every file as in every rule scope (fixture corpora "
        "and ad-hoc snippets)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="list rule ids and what they enforce, then exit",
    )

    everything = subparsers.add_parser("all", help="all artifacts, scaled")
    _add_nas_args(everything)
    everything.add_argument("--slaves", type=int, default=160)
    everything.add_argument("--duration", type=float, default=600.0)
    everything.add_argument("--seed", type=int, default=1)

    args = parser.parse_args(argv)

    if args.command == "analyze":
        return _run_analyze(args)

    if args.command == "run":
        try:
            return _run_workload(args)
        except ConfigurationError as exc:
            # E.g. a TTB/TTA pair (or a relaxed flush period) that
            # spends the safety margin: a named refusal, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command in ("fig8", "fig9", "all"):
        comparisons = run_comparisons(
            kernels=tuple(args.kernels.split(",")),
            ao_count=args.ao_count,
            seeds=tuple(range(1, args.runs + 1)),
            node_count=args.nodes,
        )
        if args.command in ("fig8", "all"):
            print(fig8_table(comparisons))
            print()
        if args.command in ("fig9", "all"):
            print(fig9_table(comparisons))
            print()

    if args.command in ("fig10", "all"):
        slaves = args.slaves
        nodes = args.nodes
        if getattr(args, "paper_scale", False):
            from repro.harness.figures import (
                PAPER_NODE_COUNT,
                PAPER_SLAVE_COUNT,
            )

            slaves = PAPER_SLAVE_COUNT
            nodes = PAPER_NODE_COUNT
        results = run_fig10(
            slave_count=slaves,
            active_duration=args.duration,
            node_count=nodes,
            seed=args.seed,
            include_slow=not getattr(args, "skip_slow", False),
            beat_slots=getattr(args, "beat_slots", None),
            aggregation=getattr(args, "aggregation", None),
        )
        print(fig10_report(results))

    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` subcommand: delegate to the analyzer CLI so the
    two entry points (``harness analyze`` and ``python -m
    repro.analysis``) can never drift apart."""
    from repro.analysis.__main__ import main as analysis_main

    argv: List[str] = list(args.paths)
    for rule in args.rule or ():
        argv.extend(["--rule", rule])
    argv.extend(["--format", args.format])
    if args.budget_seconds is not None:
        argv.extend(["--budget-seconds", str(args.budget_seconds)])
    if args.force_scope:
        argv.append("--force-scope")
    if args.list_rules:
        argv.append("--list-rules")
    return analysis_main(argv)


def _run_workload(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: one workload, one summary."""
    from repro.core.config import NAS_CONFIG, TORTURE_FAST_CONFIG
    from repro.harness.report import render_table
    from repro.net.topology import uniform_topology

    aggregation = args.aggregation

    problem = _check_naming_knobs(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    if args.live or args.shards is not None:
        return _run_sharded(args)

    def config_for(base):
        if args.no_dgc:
            return None
        overrides = {}
        if args.ttb is not None:
            overrides["ttb"] = args.ttb
        if args.tta is not None:
            overrides["tta"] = args.tta
        if args.relaxed_flush is not None:
            overrides["relaxed_flush_s"] = args.relaxed_flush
        return base.with_overrides(**overrides) if overrides else base

    started = time.perf_counter()
    if args.workload == "torture":
        from repro.harness.figures import PAPER_NODE_COUNT, PAPER_SLAVE_COUNT
        from repro.workloads.torture import run_torture

        slaves = PAPER_SLAVE_COUNT if args.paper_scale else args.slaves
        nodes = PAPER_NODE_COUNT if args.paper_scale else args.nodes
        result = run_torture(
            dgc=config_for(TORTURE_FAST_CONFIG),
            slave_count=slaves,
            active_duration=args.duration,
            topology=uniform_topology(nodes),
            seed=args.seed,
            beat_slots=args.beat_slots,
            aggregation=aggregation,
            keep_world=True,
        )
        rows = [
            ["activities", result.ao_count],
            ["last collected (s)",
             f"{result.last_collected_s:.1f}"
             if result.last_collected_s is not None else "-"],
            ["total MB", f"{result.total_bandwidth_mb:.2f}"],
            ["app MB", f"{result.app_bandwidth_mb:.2f}"],
            ["DGC MB", f"{result.dgc_bandwidth_mb:.2f}"],
            ["collected (acyclic/cyclic)",
             f"{result.collected_acyclic}/{result.collected_cyclic}"],
            ["kernel events fired", result.events_fired],
            ["sim time (s)", f"{result.sim_time_s:.1f}"],
        ]
        title = f"torture — {slaves} slaves on {nodes} nodes"
    elif args.workload == "naming":
        from repro.core.config import RegistryConfig
        from repro.workloads.naming import run_naming

        registry = RegistryConfig(
            placement=args.registry_placement,
            lease_ttb=args.lease_ttb,
            cache_size=args.registry_cache,
            coherence=args.coherence,
        )
        if args.registry_placement == "replicated" and args.lease_ttb > 0:
            print(
                "note: --lease-ttb has no effect with "
                "--registry-placement replicated (replicas are coherent "
                "copies; leases apply to home/hashed placement)",
                file=sys.stderr,
            )
        if (
            args.coherence == "beat"
            and args.registry_placement != "replicated"
            and args.lease_ttb == 0
        ):
            print(
                "note: --coherence beat has nothing to batch without "
                "replicas (--registry-placement replicated) or leases "
                "(--lease-ttb > 0): no coherence traffic exists",
                file=sys.stderr,
            )
        result = run_naming(
            dgc=config_for(NAS_CONFIG),
            registry=registry,
            client_count=args.clients,
            service_count=args.services,
            name_count=args.names,
            zipf_s=args.zipf_s,
            churn_burst=args.churn_burst,
            duration=args.duration,
            lookup_period=args.lookup_period,
            lookup_burst=args.lookup_burst,
            churn_period=args.churn_period,
            topology=uniform_topology(args.nodes),
            seed=args.seed,
            beat_slots=args.beat_slots,
            aggregation=aggregation,
            keep_world=True,
        )
        rows = [
            ["clients / services", f"{result.client_count}/{result.service_count}"],
            ["resolves (hit/miss)",
             f"{result.resolves_completed} ({result.hits}/{result.misses})"],
            ["served (authority/replica/cache/remote/local-miss)",
             f"{result.authority_hits}/{result.replica_hits}/"
             f"{result.cache_hits}/{result.remote_lookups}/"
             f"{result.local_misses}"],
            ["mean resolve latency (ms)",
             f"{result.mean_resolve_latency_s * 1e3:.3f}"],
            ["invalidations / renews",
             f"{result.invalidations_sent}/{result.renew_messages_sent}"],
            ["coherence staged/coalesced/messages",
             f"{result.coherence_staged}/{result.coherence_coalesced}/"
             f"{result.coherence_messages_sent}"],
            ["registry MB", f"{result.registry_bandwidth_mb:.3f}"],
            ["total MB", f"{result.total_bandwidth_mb:.2f}"],
            ["DGC MB", f"{result.dgc_bandwidth_mb:.2f}"],
            ["collected (acyclic/cyclic)",
             f"{result.collected_acyclic}/{result.collected_cyclic}"],
            ["dead letters", result.dead_letters],
            ["kernel events fired", result.events_fired],
            ["sim time (s)", f"{result.sim_time_s:.1f}"],
        ]
        cached = " + leases" if registry.caching else ""
        title = (
            f"naming ({registry.placement}{cached}) — {args.clients} "
            f"clients, {args.services} services on {args.nodes} nodes"
        )
    else:
        from repro.harness.figures import PAPER_NODE_COUNT
        from repro.workloads.nas import PAPER_AO_COUNT, kernel_spec, run_nas_kernel

        kernel = args.workload.split(":", 1)[1]
        spec = kernel_spec(
            kernel,
            ao_count=PAPER_AO_COUNT if args.paper_scale else args.ao_count,
            iterations=args.iterations,
            iter_time_s=args.iter_time,
            payload_bytes=args.payload_bytes,
            reply_barrier=True if args.nas_barrier else None,
        )
        nodes = PAPER_NODE_COUNT if args.paper_scale else args.nodes
        result = run_nas_kernel(
            spec,
            dgc=config_for(NAS_CONFIG),
            topology=uniform_topology(nodes),
            seed=args.seed,
            beat_slots=args.beat_slots,
            aggregation=aggregation,
            keep_world=True,
        )
        rows = [
            ["workers", result.ao_count],
            ["app time (s)", f"{result.app_time_s:.1f}"],
            ["DGC time (s)", f"{result.dgc_time_s:.1f}"],
            ["total MB", f"{result.bandwidth_mb:.2f}"],
            ["app MB", f"{result.app_bandwidth_mb:.2f}"],
            ["DGC MB", f"{result.dgc_bandwidth_mb:.2f}"],
            ["collected (acyclic/cyclic)",
             f"{result.collected_acyclic}/{result.collected_cyclic}"],
            ["dead letters", result.dead_letters],
            ["kernel events fired", result.events_fired],
            ["sim time (s)", f"{result.sim_time_s:.1f}"],
        ]
        variant = " (reply barrier)" if spec.reply_barrier else ""
        title = (
            f"NAS {spec.name}{variant} — {spec.ao_count} workers "
            f"on {nodes} nodes"
        )
    wall = time.perf_counter() - started
    rows.append(["wall time (s)", f"{wall:.2f}"])
    print(render_table(["metric", "value"], rows, title=title))
    accountant = getattr(result.world, "accountant", None) if result.world else None
    if accountant is not None:
        breakdown = accountant.describe()
        if breakdown:
            print("\nper-kind traffic:")
            print(breakdown)
    return 0


def _check_naming_knobs(args: argparse.Namespace) -> "str | None":
    """Validate the naming-only knobs; returns a rejection reason or
    ``None``.  Shared by the single-process and sharded run paths."""
    if args.workload != "naming":
        for flag, is_set in (
            ("--names", args.names is not None),
            ("--zipf-s", args.zipf_s != 0.0),
            ("--churn-burst", args.churn_burst != 1),
            ("--coherence beat", args.coherence == "beat"),
        ):
            if is_set:
                return (
                    f"{flag} only applies to --workload naming "
                    f"(got {args.workload!r})"
                )
        return None
    if args.names is not None and args.names < args.services:
        return (
            f"--names ({args.names}) must be >= --services "
            f"({args.services}): every service needs a first name"
        )
    if args.zipf_s < 0.0:
        return f"--zipf-s must be >= 0, got {args.zipf_s}"
    if args.churn_burst < 1:
        return f"--churn-burst must be >= 1, got {args.churn_burst}"
    return None


def _run_sharded(args: argparse.Namespace) -> int:
    """The ``run --live [--shards N]`` path: the multi-process world."""
    from repro.core.config import NAS_CONFIG, TORTURE_FAST_CONFIG
    from repro.harness.report import render_table
    from repro.net.topology import clustered_topology
    from repro.shard import ShardedWorld

    def reject(reason: str) -> int:
        print(f"error: {reason}", file=sys.stderr)
        return 2

    shards = 2 if args.shards is None else args.shards
    if shards < 1:
        return reject(f"--shards must be positive, got {shards}")
    if args.no_dgc:
        return reject(
            "--live is incompatible with --no-dgc: collection drives the "
            "sharded run protocol's stop condition"
        )
    if args.aggregation == "per-event":
        return reject(
            "--live requires a batched pulse core: drop --aggregation "
            "per-event (the per-event envelope path cannot cross a "
            "shard boundary)"
        )
    if args.nas_barrier:
        return reject(
            "--live is incompatible with --nas-barrier: the reply-barrier "
            "variant's per-iteration future barrier is a single-process "
            "protocol (see repro.shard.workloads.build_nas)"
        )

    if args.workload == "torture":
        base = TORTURE_FAST_CONFIG
        params = dict(
            slave_count=args.slaves, active_duration=args.duration,
        )
        workload = "torture"
    elif args.workload == "naming":
        base = NAS_CONFIG
        params = dict(
            client_count=args.clients,
            service_count=args.services,
            name_count=args.names,
            zipf_s=args.zipf_s,
            churn_burst=args.churn_burst,
            duration=args.duration,
            lookup_period=args.lookup_period,
            lookup_burst=args.lookup_burst,
            churn_period=args.churn_period,
        )
        workload = "naming"
    else:
        base = NAS_CONFIG
        params = dict(
            kernel=args.workload.split(":", 1)[1],
            ao_count=args.ao_count,
            iterations=args.iterations,
            iter_time_s=args.iter_time,
            payload_bytes=args.payload_bytes,
        )
        workload = "nas"

    overrides = {}
    if args.ttb is not None:
        overrides["ttb"] = args.ttb
    if args.tta is not None:
        overrides["tta"] = args.tta
    if args.relaxed_flush is not None:
        overrides["relaxed_flush_s"] = args.relaxed_flush
    if args.beat_slots is not None:
        overrides["beat_slots"] = args.beat_slots
    if args.aggregation is not None:
        overrides["aggregation"] = args.aggregation
    dgc = base.with_overrides(**overrides) if overrides else base

    registry = None
    if workload == "naming":
        from repro.core.config import RegistryConfig

        registry = RegistryConfig(
            placement=args.registry_placement,
            lease_ttb=args.lease_ttb,
            cache_size=args.registry_cache,
            coherence=args.coherence,
        )

    topology = clustered_topology(args.nodes, site_count=shards)
    sharded = ShardedWorld(
        topology, shards, workload=workload, params=params,
        dgc=dgc, registry=registry, seed=args.seed,
    )
    result = sharded.run()

    rows = [
        ["shards x nodes", f"{shards} x {args.nodes}"],
        ["plan lookahead (ms)",
         "-" if sharded.plan.lookahead == float("inf")
         else f"{sharded.plan.lookahead * 1e3:.1f}"],
        ["activities created", result.created],
        ["collected (acyclic/cyclic)",
         f"{result.collected_acyclic}/{result.collected_cyclic}"],
        ["dead letters", result.dead_letters],
        ["barrier rounds", result.rounds],
        ["cross-shard frames", result.frame_count],
        ["frame KB", f"{result.frame_bytes / 1e3:.1f}"],
        ["frame bytes/entry",
         f"{result.frame_bytes / result.frame_entries:.1f}"
         if result.frame_entries else "-"],
        ["frame digest", result.frame_digest[:16]],
        ["total MB", f"{result.total_bytes / 1e6:.2f}"],
        ["kernel events fired",
         f"{result.events_fired} "
         f"({result.events_workload} workload + "
         f"{result.events_coordination} coordination)"],
        ["sim time (s)", f"{result.sim_time_s:.1f}"],
        ["wall time (s)", f"{result.wall_s:.2f}"],
        ["events/s", f"{result.events_fired / max(result.wall_s, 1e-9):,.0f}"],
    ]
    title = f"{args.workload} — sharded live world ({shards} processes)"
    print(render_table(["metric", "value"], rows, title=title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
