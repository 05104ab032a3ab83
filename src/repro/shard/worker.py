"""The shard worker: one process, one partial world, one SimKernel.

A worker owns the nodes its :class:`~repro.shard.plan.ShardPlan` block
assigns it.  It builds a :class:`~repro.world.World` restricted to
those nodes (``local_nodes``), driven by a
:class:`~repro.sim.kernel.SimKernel` that the coordinator paces through
:meth:`~repro.sim.kernel.SimKernel.advance`, with the network's shard
egress configured so sends to non-local nodes are captured as staged
pulse entries instead of delivered.  The coordinator then drives it
through barrier rounds:

``("advance", horizon, n_frames)``
    inject ``n_frames`` wire frames (sorted by ``(src_shard, seq)`` —
    the deterministic global merge order), fire every local event
    strictly before ``horizon``, then report.  Horizons are granted
    *per shard* (see :mod:`repro.shard.coordinator`), so this worker's
    clock may run ahead of or behind its peers between rounds; a round
    that only flushes frames re-grants the current horizon, which
    :meth:`~repro.sim.kernel.SimKernel.advance` accepts as a no-op.

``("phase", index)``
    run the workload's phase-entry action (driver-shard traffic) at the
    current virtual time, then report.

``("stop",)``
    reply with the shard's final result blob and exit.

A daemon thread writes one byte per :data:`HEARTBEAT_S` on a one-way
pipe (``WorkerSpec.heartbeat``): a stopped worker falls silent there.

Every report carries the shard's next event time, live non-root count,
the summable traffic counters, readiness flags, the round's egress
packed as one wire frame per destination shard (stamped with this
shard's monotonically increasing frame sequence), and the shard's
*earliest output time* — a worker-side promise that no cross-shard
send can be produced strictly before it.  Because the egress buffer is
drained into this very report's frames, any future output must be
caused by a local event, so the promise is the next event time (or
``None`` when the event heap is empty: an idle shard cannot
spontaneously emit, which is what lets the coordinator grant its
neighbours horizons far beyond the global minimum).  The data plane —
the frames — is pickle-free (:mod:`repro.net.wire`); the low-rate
control plane (specs, reports, final results) rides the pipe's regular
pickled channel.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import DgcConfig, RegistryConfig
from repro.net import kinds as _kinds
from repro.net.topology import Topology
from repro.net.wire import (
    ChannelDecoder,
    ChannelEncoder,
    frame_stamp,
    pack_frame,
    unpack_frame,
)
from repro.runtime.future import reset_future_ids
from repro.runtime.ids import reset_id_counter
from repro.shard.plan import ShardPlan
from repro.shard.workloads import SHARD_WORKLOADS, ShardEnv
from repro.sim.kernel import SimKernel
from repro.world import World

#: Registry counters merged by summation in the coordinator.
REGISTRY_COUNTERS: Tuple[str, ...] = (
    "resolves", "authority_hits", "replica_hits", "cache_hits",
    "local_misses", "remote_lookups", "binds_applied", "unbinds_applied",
    "invalidations_sent", "renew_messages_sent", "renew_names_sent",
    "lease_grants", "lease_expiries", "coherence_staged",
    "coherence_coalesced", "coherence_messages_sent",
    "coherence_names_sent", "pushes_sent",
)


@dataclass
class WorkerSpec:
    """Everything a worker needs to build its partial world."""

    shard: int
    plan: ShardPlan
    topology: Topology
    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    dgc: Optional[DgcConfig] = None
    registry: Optional[RegistryConfig] = None
    seed: int = 0
    trace: bool = False
    #: Write end (a file descriptor) of the heartbeat pipe; ``None`` in
    #: the single-process replay.
    heartbeat: Optional[int] = None


#: Seconds between two heartbeat bytes, and the silent slices after
#: which the coordinator names a worker stopped.
HEARTBEAT_S, HEARTBEAT_MISSES = 1.0, 10


def _beat(fd: int) -> None:
    """The heartbeat thread, until the coordinator closes its end."""
    try:
        while True:
            os.write(fd, b"\0")
            time.sleep(HEARTBEAT_S)
    except OSError:
        pass


def reset_process_counters() -> None:
    """Fresh deterministic id streams: forked workers inherit the parent
    process's counter positions, which depend on everything the parent
    ran before — resetting pins every run's ids (activity, future) to
    the same sequence, which the frame-determinism contract requires
    (future ids are encoded into wire frames)."""
    reset_id_counter()
    reset_future_ids()


def build_shard_world(spec: WorkerSpec, kernel=None) -> Tuple[World, ShardEnv]:
    """Construct one shard's partial world and run the SPMD setup.

    ``kernel`` defaults to a fresh :class:`SimKernel`, which both the
    worker (paced by ``advance``) and the single-process replay (run to
    completion) use.
    """
    reset_process_counters()
    local = spec.plan.nodes_of(spec.shard)
    if kernel is None:
        kernel = SimKernel()
    world = World(
        spec.topology,
        dgc=spec.dgc,
        registry=spec.registry,
        seed=spec.seed,
        trace=spec.trace,
        kernel=kernel,
        local_nodes=local,
    )
    world.network.configure_shard_egress(local)
    try:
        builder = SHARD_WORKLOADS[spec.workload]
    except KeyError:
        raise _unknown_workload(spec.workload) from None
    env = builder(world, spec.plan, spec.shard, spec.params)
    return world, env


def _unknown_workload(name: str):
    from repro.errors import ConfigurationError

    return ConfigurationError(
        f"unknown shard workload {name!r} "
        f"(have: {', '.join(sorted(SHARD_WORKLOADS))})"
    )


def _pack_egress(
    world: World, spec: WorkerSpec, node_index: Dict[str, int], seq,
    encoders: Dict[int, ChannelEncoder],
) -> List[Tuple[int, bool, float, int, bytes]]:
    """Drain the network egress into one frame per destination shard.

    Returns ``(dest_shard, has_app, min_delivery, n_entries,
    frame_bytes)`` rows; ``has_app`` flags frames carrying non-DGC
    traffic (the coordinator's balance predicate must see application
    frames in flight, while pure heartbeat frames must not stall it),
    ``min_delivery`` feeds the bid the destination's next horizon is
    computed from, and ``n_entries`` feeds the coordinator's
    bytes-per-entry accounting without decoding the frame (it counts
    wire rows, the pulse entries the receiver stages: a DGC run is one
    row whatever its length, any other item a row of its own).

    The egress arrives as runs already keyed by ``(kind, delivery,
    dest)``, so this is one pass that only splits them by destination
    shard; ``has_app`` and ``min_delivery`` fall out of the run keys.

    ``encoders`` holds one persistent :class:`ChannelEncoder` per
    destination shard: this worker's frames to a given peer
    form one ordered channel, so recurring ids and messages resolve
    against the channel's cross-frame intern table.
    """
    runs = world.network.drain_egress()
    if not runs:
        return []
    assignment = spec.plan.assignment
    dgc_kinds = _kinds.DGC_KINDS
    #: dest shard -> [has_app, min_delivery, n_entries, runs]
    outbound: Dict[int, list] = {}
    for run in runs:
        dest = assignment[node_index[run[2]]]
        if dest in outbound:
            frame = outbound[dest]
            if run[1] < frame[1]:
                frame[1] = run[1]
        else:
            outbound[dest] = frame = [False, run[1], 0, []]
        if run[0] in dgc_kinds:
            frame[2] += 1
        else:
            frame[0] = True
            frame[2] += len(run[3])
        frame[3].append(run)
    frames = []
    for dest in sorted(outbound):
        has_app, min_delivery, n_entries, group = outbound[dest]
        channel = encoders.get(dest)
        if channel is None:
            encoders[dest] = channel = ChannelEncoder()
        buf = pack_frame(spec.shard, next(seq), group, node_index, channel)
        frames.append((dest, has_app, min_delivery, n_entries, buf))
    return frames


def _send_report(
    conn, world: World, env: ShardEnv, spec: WorkerSpec,
    node_index: Dict[str, int], seq, phase: int,
    encoders: Dict[int, ChannelEncoder],
) -> None:
    frames = _pack_egress(world, spec, node_index, seq, encoders)
    needs_idle = env.phases[phase].predicate == "ready"
    all_idle = (
        all(a.is_idle() for a in world.live_non_roots()) if needs_idle else True
    )
    conn.send((
        "report",
        # The next event time doubles as the earliest output time: the
        # egress is fully drained into this report's frames, so any
        # future cross-shard send must be caused by a local event
        # (None: this shard cannot produce output until something is
        # injected).
        world.kernel.next_event_time(),
        world.live_non_root_count,
        (world.requests_sent, world.requests_delivered,
         world.replies_sent, world.replies_delivered),
        all_idle,
        env.flags(),
        [(dest, has_app, min_delivery, n_entries)
         for dest, has_app, min_delivery, n_entries, _ in frames],
    ))
    for _, _, _, _, buf in frames:
        conn.send_bytes(buf)


def _final_result(world: World, env: ShardEnv, spec: WorkerSpec) -> Dict[str, Any]:
    stats = world.stats
    accountant = world.accountant
    traffic = {}
    for kind in _kinds.ALL_KINDS:
        messages = accountant.messages_for(kind)
        if messages:
            traffic[kind] = (accountant.bytes_for(kind), messages)
    registry = world.registry
    trace = None
    if spec.trace:
        trace = [
            (event.time, event.kind, event.subject, dict(event.details))
            for event in world.tracer
        ]
    return {
        "created": stats.created,
        "collected_acyclic": stats.collected_acyclic,
        "collected_cyclic": stats.collected_cyclic,
        "terminated_explicit": stats.terminated_explicit,
        "dead_letters": stats.dead_letters,
        "safety_violations": stats.safety_violations,
        "collected_ids": sorted(stats.collected_by_id),
        "live_non_root": world.live_non_root_count,
        "counters": (world.requests_sent, world.requests_delivered,
                     world.replies_sent, world.replies_delivered),
        "traffic": traffic,
        "total_bytes": accountant.total_bytes,
        "events_fired": world.kernel.fired_count,
        "events_coordination": world.network.ingress_pulse_event_count,
        "events_workload": (
            world.kernel.fired_count
            - world.network.ingress_pulse_event_count
        ),
        "peak_pending": world.kernel.peak_pending_count,
        "egress_messages": world.network.egress_message_count,
        "injected_entries": world.network.injected_entry_count,
        # The fabric's staging counters and the beat wheel's, as a
        # single-process world exposes them.  A cross-shard run merges
        # where it is sent (egress) and is an entry where it is
        # injected, and an instant two shards deliver at is a pulse in
        # each — so only entries + merged messages sums to the replay's.
        "pulses": world.network.pulse_event_count,
        "staged_entries": world.network.staged_entry_count,
        "aggregated_messages": world.network.aggregated_message_count,
        "bucket_events": world.kernel.beat_wheel.bucket_event_count,
        "registry": {
            name: getattr(registry, name, 0) for name in REGISTRY_COUNTERS
        },
        "trace": trace,
        "workload": env.results(),
    }


def _serve(conn, spec: WorkerSpec) -> None:
    world, env = build_shard_world(spec)
    kernel = world.kernel
    network = world.network
    node_names = spec.plan.node_names
    node_index = {name: index for index, name in enumerate(node_names)}
    seq = itertools.count()
    phase = 0
    # Persistent codec channels: one encoder per destination shard,
    # one decoder per source shard.  Sound because each channel's frames
    # are packed and decoded in seq order — the coordinator routes in
    # stamp order and we sort raw buffers by stamp *before* decoding.
    encoders: Dict[int, ChannelEncoder] = {}
    decoders: Dict[int, ChannelDecoder] = {}
    _send_report(conn, world, env, spec, node_index, seq, phase, encoders)
    while True:
        message = conn.recv()
        op = message[0]
        if op == "advance":
            _, horizon, n_frames = message
            if n_frames:
                stamped = [
                    (frame_stamp(buf), buf)
                    for buf in (conn.recv_bytes() for _ in range(n_frames))
                ]
                stamped.sort(key=lambda pair: pair[0])
                for (src, _), buf in stamped:
                    channel = decoders.get(src)
                    if channel is None:
                        decoders[src] = channel = ChannelDecoder()
                    network.inject_remote_runs(
                        unpack_frame(buf, node_names, channel).runs
                    )
            kernel.advance(horizon)
            _send_report(conn, world, env, spec, node_index, seq, phase,
                         encoders)
        elif op == "phase":
            phase = message[1]
            env.enter_phase(phase)
            _send_report(conn, world, env, spec, node_index, seq, phase,
                         encoders)
        elif op == "stop":
            conn.send(("result", _final_result(world, env, spec)))
            return
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown coordinator op {op!r}")


def worker_main(conn, spec: WorkerSpec) -> None:
    """Child-process entry point."""
    if spec.heartbeat is not None:
        threading.Thread(target=_beat, args=(spec.heartbeat,), daemon=True).start()
    try:
        _serve(conn, spec)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - coordinator already gone
            pass
    finally:
        conn.close()
