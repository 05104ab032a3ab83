"""The sharded multi-process world: outcome equivalence, determinism,
configuration guards and named worker failures.

Each equivalence test runs the same SPMD workload twice — once
partitioned over worker processes (:class:`repro.shard.ShardedWorld`),
once single-process through the identical builder
(:func:`repro.shard.replay_single_process`) — and asserts the outcome
signatures match: same activities created, same explicit terminations,
the exact same set of collected activity ids.  Scales are kept small;
the spine benchmark's ``sharded2`` workload makes the same comparison at
a tenth of Fig. 10 scale (a differing signature is a failed operation
there).
"""

from __future__ import annotations

import copyreg
import inspect
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import DgcConfig
from repro.errors import ConfigurationError, ShardFailure, SimulationError
from repro.net.topology import Site, Topology
from repro.shard import ShardedWorld, make_plan, replay_single_process
from repro.shard import coordinator as coordinator_module
from repro.shard import worker as worker_module


def two_site_topology() -> Topology:
    return Topology(
        [Site("a", 2, intra_rtt_s=0.002), Site("b", 2, intra_rtt_s=0.002)],
        {("a", "b"): 0.1},
    )


def small_dgc() -> DgcConfig:
    return DgcConfig(ttb=1.0, tta=3.0)


REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

TORTURE_PARAMS = dict(slave_count=8, active_duration=6.0, initial_pool=3)


# ----------------------------------------------------------------------
# Outcome equivalence: sharded vs. single-process replay
# ----------------------------------------------------------------------


def test_torture_sharded_matches_replay():
    topo = two_site_topology()
    result = ShardedWorld(
        topo, 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    world, _, signature = replay_single_process(
        topo, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    assert result.created == 2 + TORTURE_PARAMS["slave_count"]
    assert result.live_non_root == 0
    assert result.safety_violations == 0
    assert result.collected_total == world.stats.collected_total
    # Cross-shard traffic actually flowed through the wire frames.
    assert result.frame_count > 0
    assert result.frame_bytes > 0
    assert result.egress_messages > 0
    assert result.injected_entries > 0
    # Every frame's entries were counted; only post-outcome frames may
    # die undelivered, so the packed total bounds the injected total.
    assert result.frame_entries >= result.injected_entries > 0
    # The events split adds up, and coordination work is real but not
    # the whole story.
    assert (
        result.events_workload + result.events_coordination
        == result.events_fired
    )
    assert 0 < result.events_coordination < result.events_fired


def test_metro_wan_sharded_matches_replay():
    """The per-channel lookahead machinery on the topology it exists
    for: metro pairs bridged by a WAN, one shard per site, so the
    matrix holds two genuinely different channel widths."""
    from repro.net.topology import metro_wan_topology

    topo = metro_wan_topology(
        8, site_count=4, intra_rtt_s=0.002, metro_rtt_s=0.1, wan_rtt_s=0.4
    )
    params = dict(slave_count=8, active_duration=6.0, initial_pool=3)
    result = ShardedWorld(
        topo, 4, workload="torture", params=params, dgc=small_dgc(), seed=3,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="torture", params=params, dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    assert result.safety_violations == 0
    assert result.frame_count > 0
    # And two identical runs stay byte-identical under per-shard
    # horizons and selective advance.
    again = ShardedWorld(
        topo, 4, workload="torture", params=params, dgc=small_dgc(), seed=3,
    ).run()
    assert again.frame_digest == result.frame_digest
    assert again.rounds == result.rounds


def test_site_aligned_three_shards_match_replay_in_few_rounds():
    """Torture at smoke size over four sites of eight nodes, paired into
    metros.  Balanced three-shard blocks would split two sites, leaving
    an intra-site lookahead; the site-aligned plan keeps every site
    whole, so its narrowest channel is a metro link and its barrier
    rounds grow at most as that channel narrows against the two-shard
    plan's WAN boundary."""
    from repro.net.topology import metro_wan_topology

    topo = metro_wan_topology(
        32, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )

    def arguments():
        return dict(
            workload="torture",
            params=dict(slave_count=96, active_duration=100),
            dgc=DgcConfig(ttb=5, tta=12, beat_slots=16),
            seed=0,
        )

    two = ShardedWorld(topo, 2, **arguments()).run()
    three = ShardedWorld(topo, 3, **arguments()).run()
    _, _, signature = replay_single_process(topo, **arguments())
    assert three.outcome_signature() == signature
    assert three.safety_violations == 0
    narrowing = make_plan(topo, 2).lookahead / make_plan(topo, 3).lookahead
    assert narrowing == pytest.approx(4.0)
    assert three.rounds <= two.rounds * narrowing


def test_naming_sharded_matches_replay():
    topo = two_site_topology()
    params = dict(
        client_count=6, service_count=3, duration=8.0,
        lookup_period=1.0, lookup_burst=2,
    )
    result = ShardedWorld(
        topo, 2, workload="naming", params=params, dgc=small_dgc(), seed=5,
    ).run()
    _, env, signature = replay_single_process(
        topo, workload="naming", params=params, dgc=small_dgc(), seed=5,
    )
    assert result.outcome_signature() == signature
    # Per-shard workload results sum to the single-process totals: every
    # client resolved somewhere, exactly once.
    merged = {
        key: sum(shard[key] for shard in result.workload_results)
        for key in ("resolves_issued", "resolves_completed", "hits", "misses")
    }
    replay = env.results()
    for key, value in merged.items():
        assert value == replay[key], key
    assert merged["resolves_issued"] == merged["resolves_completed"]


def _naming_default_coherence_matches_replay(shards: int) -> None:
    """Run a ``replicated`` naming world under the default coherence over
    ``shards`` workers; its outcome signature, workload totals and
    summed coherence counters must match the single-process replay."""
    from repro.core.config import RegistryConfig

    topo = two_site_topology()
    params = dict(
        client_count=6, service_count=3, name_count=9, zipf_s=1.1,
        churn_burst=2, duration=8.0, lookup_period=1.0, lookup_burst=2,
        churn_period=2.0,
    )
    registry = RegistryConfig(placement="replicated", lease_beat_s=1.0)
    result = ShardedWorld(
        topo, shards, workload="naming", params=params, dgc=small_dgc(),
        registry=registry, seed=5,
    ).run()
    world, env, signature = replay_single_process(
        topo, workload="naming", params=params, dgc=small_dgc(),
        registry=registry, seed=5,
    )
    assert result.outcome_signature() == signature
    assert result.safety_violations == 0
    merged = {
        key: sum(shard[key] for shard in result.workload_results)
        for key in ("resolves_issued", "resolves_completed", "hits", "misses")
    }
    replay = env.results()
    for key, value in merged.items():
        assert value == replay[key], key
    # The channel actually carried coherence traffic on the shards, and
    # the summed counters match the single-process run's.
    assert result.registry["coherence_staged"] > 0
    assert result.registry["coherence_messages_sent"] > 0
    for counter in ("coherence_staged", "coherence_coalesced"):
        assert result.registry[counter] == getattr(world.registry, counter)


def test_naming_beat_coherence_sharded_matches_replay():
    """The beat-quantized coherence channel — the default — composes
    with the sharded world: a naming run (plus the bind-heavy knobs —
    aliased names, Zipf-skewed draws, churn bursts) over two shards
    matches its single-process replay's outcome signature, and the
    coherence counters merge across workers."""
    _naming_default_coherence_matches_replay(2)


def test_naming_beat_coherence_three_shards_matches_replay():
    """The same over three shards: the primary's replicas sit on two
    other workers, so one flush's fan-out crosses two shard channels."""
    _naming_default_coherence_matches_replay(3)


def test_nas_sharded_matches_replay():
    topo = two_site_topology()
    params = dict(
        kernel="ft", ao_count=4, iterations=3, iter_time_s=0.5,
        payload_bytes=1000,
    )
    result = ShardedWorld(
        topo, 2, workload="nas", params=params, dgc=small_dgc(), seed=7,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="nas", params=params, dgc=small_dgc(), seed=7,
    )
    assert result.outcome_signature() == signature
    # The phased protocol completed settle -> run -> drain in order.
    assert len(result.phase_times) == 3
    assert result.phase_times == sorted(result.phase_times)


def three_site_topology() -> Topology:
    return Topology(
        [Site(name, 2, intra_rtt_s=0.002) for name in "abc"],
        {("a", "b"): 0.1, ("b", "c"): 0.1, ("a", "c"): 0.3},
    )


@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("workload, params, seed", [
    ("torture", TORTURE_PARAMS, 3),
    ("nas", dict(kernel="ft", ao_count=6, iterations=3, iter_time_s=0.5,
                 payload_bytes=1000), 7),
    ("naming", dict(client_count=6, service_count=3, duration=8.0,
                    lookup_period=1.0, lookup_burst=2), 5),
])
def test_columnar_lane_matches_replay_and_repeats(workload, params, seed, shards):
    """The cross-shard lane end to end — columnar egress, column-block
    frames, run injection — on every workload family, over one and two
    shard boundaries: the outcome is the replay's, and a second run
    produces the same frame bytes."""
    topo = three_site_topology()
    runs = [
        ShardedWorld(
            topo, shards, workload=workload, params=params,
            dgc=small_dgc(), seed=seed,
        ).run()
        for _ in range(2)
    ]
    _, _, signature = replay_single_process(
        topo, workload=workload, params=params, dgc=small_dgc(), seed=seed,
    )
    assert runs[0].outcome_signature() == signature
    assert runs[0].safety_violations == 0 and runs[0].dead_letters == 0
    assert runs[0].frame_count > 0
    assert runs[1].frame_digest == runs[0].frame_digest
    assert runs[1].frame_entries == runs[0].frame_entries
    # Rows are staged pulse entries: a DGC run is one however many
    # messages it carries, so the wire never has more rows than sends.
    assert 0 < runs[0].injected_entries <= runs[0].frame_entries
    assert runs[0].frame_entries <= runs[0].egress_messages


def test_shard_world_runs_on_sim_kernel_without_threads():
    """Workers and the replay share one kernel class, and building a
    shard world starts no thread (nothing in a worker waits on one)."""
    import threading

    from repro.shard.worker import WorkerSpec, build_shard_world
    from repro.sim.kernel import SimKernel

    topo = two_site_topology()
    spec = WorkerSpec(
        shard=0, plan=make_plan(topo, 2), topology=topo, workload="torture",
        params=TORTURE_PARAMS, dgc=small_dgc(), seed=3,
    )
    threads = threading.active_count()
    world, _ = build_shard_world(spec)
    assert type(world.kernel) is SimKernel
    assert threading.active_count() == threads


def test_single_shard_degenerates_to_one_worker():
    topo = two_site_topology()
    result = ShardedWorld(
        topo, 1, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    _, _, signature = replay_single_process(
        topo, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature
    # One shard, no shard boundary: nothing ever crosses the wire.
    assert result.frame_count == 0
    assert result.frame_bytes == 0


FABRIC_COUNTERS = ("pulses", "staged_entries", "aggregated_messages",
                   "bucket_events")


def fabric_counters(world) -> dict:
    network = world.network
    return {
        "pulses": network.pulse_event_count,
        "staged_entries": network.staged_entry_count,
        "aggregated_messages": network.aggregated_message_count,
        "bucket_events": world.kernel.beat_wheel.bucket_event_count,
    }


@pytest.mark.parametrize("shards", [1, 2])
def test_fabric_counters_are_reported_and_merged(shards):
    topo = two_site_topology()
    result = ShardedWorld(
        topo, shards, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    assert len(result.per_shard) == shards
    for name in FABRIC_COUNTERS:
        # Merged = sum over shards, and the per-shard values are kept.
        assert getattr(result, name) == sum(
            shard[name] for shard in result.per_shard
        )
        assert getattr(result, name) > 0
    world, _, _ = replay_single_process(
        topo, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    replay = fabric_counters(world)
    if shards == 1:
        # One worker runs the whole world: the replay's numbers exactly.
        assert {name: getattr(result, name) for name in FABRIC_COUNTERS} == replay
    else:
        # Beat buckets belong to nodes, so they partition with them; and
        # every delivered message is a pulse entry or merged into one,
        # however the shard boundary regroups the runs.
        assert result.bucket_events == replay["bucket_events"]
        assert (
            result.staged_entries + result.aggregated_messages
            == replay["staged_entries"] + replay["aggregated_messages"]
        )


#: The arms the sharded world used to refuse: the endings that are not
#: DGC collection, and the NAS reply barrier with and without DGC.
CG_BARRIER = dict(kernel="cg", ao_count=4, iterations=3, iter_time_s=0.5,
                  payload_bytes=1000, reply_barrier=True)
ENDING_ARMS = {
    "torture-no-dgc": ("torture", TORTURE_PARAMS, False, 3),
    "naming-no-dgc": ("naming", dict(client_count=6, service_count=3,
                                     duration=8.0, lookup_period=1.0,
                                     lookup_burst=2), False, 5),
    "nas-ft-no-dgc": ("nas", dict(kernel="ft", ao_count=4, iterations=3,
                                  iter_time_s=0.5, payload_bytes=1000),
                      False, 7),
    "nas-cg-barrier": ("nas", CG_BARRIER, True, 7),
    "nas-cg-barrier-no-dgc": ("nas", CG_BARRIER, False, 7),
}


def ending_arm_matches_replay(arm, topo, shards):
    workload, params, with_dgc, seed = ENDING_ARMS[arm]
    dgc = small_dgc() if with_dgc else None
    result = ShardedWorld(
        topo, shards, workload=workload, params=params, dgc=dgc, seed=seed,
    ).run()
    world, env, signature = replay_single_process(
        topo, workload=workload, params=params, dgc=dgc, seed=seed,
    )
    assert result.outcome_signature() == signature
    assert result.safety_violations == 0 and result.dead_letters == 0
    assert len(result.phase_times) == len(env.phases)
    assert result.phase_times == sorted(result.phase_times)
    if workload == "nas" and not with_dgc:
        # Explicit termination: nothing left, and the drain takes no time.
        assert result.terminated_explicit == params["ao_count"]
        assert result.phase_times[-1] == result.phase_times[-2]
    if workload == "naming" and not with_dgc:
        # The run ends at the phase's deadline in both arms.
        assert result.phase_times == [env.phases[0].bound]
        assert world.kernel.now == env.phases[0].bound
    return result


@pytest.mark.parametrize("arm", sorted(ENDING_ARMS))
def test_every_ending_sharded_matches_replay(arm):
    result = ending_arm_matches_replay(arm, two_site_topology(), 2)
    assert result.frame_count > 0


@pytest.mark.parametrize("shards", [1, 3])
def test_barrier_without_dgc_matches_replay_at_any_shard_count(shards):
    ending_arm_matches_replay(
        "nas-cg-barrier-no-dgc", three_site_topology(), shards
    )


# ----------------------------------------------------------------------
# Determinism: identical runs produce byte-identical frame streams
# ----------------------------------------------------------------------


def run_recorded(seed: int) -> "ShardedRunResult":
    return ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=seed, trace=True, record_frames=True,
    ).run()


def test_frame_stream_is_deterministic():
    first = run_recorded(seed=3)
    second = run_recorded(seed=3)
    assert first.frame_digest == second.frame_digest
    assert first.frame_count == second.frame_count
    assert first.frame_bytes == second.frame_bytes
    assert first.rounds == second.rounds
    assert first.outcome_signature() == second.outcome_signature()
    # The recorded logs match frame-for-frame: same route, same bytes.
    assert first.frames == second.frames
    # And the merged trace streams are identical event-for-event.
    assert first.trace == second.trace


def recorded_channel(src: int, dest: int):
    """One direction of the recorded conversation, in route order."""
    frames = [
        buf for frame_src, frame_dest, buf in run_recorded(seed=3).frames
        if (frame_src, frame_dest) == (src, dest)
    ]
    assert len(frames) >= 4
    return frames


def decode_channel(frames, topo=None):
    from repro.net.wire import ChannelDecoder, unpack_frame

    names = tuple((topo or two_site_topology()).nodes)
    decoder = ChannelDecoder()
    sizes = []
    for buf in frames:
        unpack_frame(buf, names, channel=decoder)
        sizes.append(len(decoder.table))
    return sizes


def test_recorded_channel_detects_dropped_duplicated_and_swapped_frames():
    """A persistent channel's frames only decode in the order they were
    packed: every frame opens with its channel ordinal (then the
    encoder's intern-table size), so a frame lost, repeated or swapped on
    the way raises — naming the frame and both ordinals — instead of
    resolving indices against the wrong table."""
    from repro.net.wire import WireFormatError, frame_stamp

    frames = recorded_channel(0, 1)
    sizes = decode_channel(frames)  # the untouched stream decodes
    # Pick a frame that defined something, so its loss shifts the table.
    victim = next(
        index for index in range(1, len(frames) - 1)
        if sizes[index] > sizes[index - 1]
    )
    shard, seq = frame_stamp(frames[victim + 1])
    with pytest.raises(WireFormatError) as dropped:
        decode_channel(frames[:victim] + frames[victim + 1:])
    message = str(dropped.value)
    assert f"(shard {shard}, seq {seq})" in message
    assert f"it carries ordinal {victim + 1}" in message
    assert f"this decoder expects ordinal {victim}" in message
    with pytest.raises(WireFormatError, match="duplicated or reordered"):
        decode_channel(frames[:victim + 1] + frames[victim:])
    swapped = list(frames)
    swapped[victim], swapped[victim + 1] = swapped[victim + 1], swapped[victim]
    with pytest.raises(WireFormatError, match="out of step"):
        decode_channel(swapped)


def record_pack_inputs(monkeypatch, directory):
    """Have every forked worker append each ``pack_frame`` input to a
    pickle log of its own (one ``pickle.dump`` per frame, so objects
    shared inside a frame stay shared in the log)."""
    from repro.core.clock import ActivityClock
    from repro.shard import worker

    pack = worker.pack_frame
    # ``ActivityClock`` is slotted and refuses attribute writes, so it
    # pickles through its constructor.
    dispatch = {
        **copyreg.dispatch_table,
        ActivityClock: lambda clock: (ActivityClock, (clock.value, clock.owner)),
    }

    def recording_pack(src_shard, seq, runs, node_index, channel=None):
        with open(directory / f"shard{src_shard}.pickle", "ab") as log:
            pickler = pickle.Pickler(log)
            pickler.dispatch_table = dispatch
            pickler.dump((seq, runs))
        return pack(src_shard, seq, runs, node_index, channel)

    monkeypatch.setattr(worker, "pack_frame", recording_pack)


def read_pack_inputs(directory):
    """``(src_shard, seq) -> runs`` from the logs ``record_pack_inputs``
    leaves behind."""
    inputs = {}
    for path in directory.glob("shard*.pickle"):
        with open(path, "rb") as log:
            while True:
                try:
                    seq, runs = pickle.load(log)
                except EOFError:
                    break
                inputs[(int(path.stem[len("shard"):]), seq)] = runs
    return inputs


@pytest.mark.parametrize("shards", [2, 3])
def test_real_traffic_round_trips_the_wire(monkeypatch, tmp_path, shards):
    """Every frame a torture run routes decodes, on its channel, to the
    exact runs the worker packed: field-equal, kinds the canonical
    constants, and a message shared across targets still one object."""
    from repro.core.wire import DgcMessage
    from repro.net.kinds import ALL_KINDS
    from repro.net.wire import ChannelDecoder, unpack_frame

    topo = three_site_topology()

    def run():
        return ShardedWorld(
            topo, shards, workload="torture", params=TORTURE_PARAMS,
            dgc=small_dgc(), seed=3, record_frames=True,
        ).run()

    record_pack_inputs(monkeypatch, tmp_path)
    result = run()
    monkeypatch.undo()
    inputs = read_pack_inputs(tmp_path)
    # Frames packed after the outcome may never be routed.
    assert 0 < len(result.frames) <= len(inputs)
    canonical = {kind: kind for kind in ALL_KINDS}
    names = tuple(topo.nodes)
    decoders = {}
    shared = 0
    for src, dest, buf in result.frames:
        decoder = decoders.setdefault((src, dest), ChannelDecoder())
        frame = unpack_frame(buf, names, channel=decoder)
        packed = inputs[(frame.src_shard, frame.seq)]
        assert frame.runs == packed
        seen = {}
        for decoded, sent in zip(frame.runs, packed):
            assert decoded[0] is canonical[decoded[0]]
            for got, original in zip(decoded[4], sent[4]):
                if type(original) is DgcMessage:
                    if id(original) in seen:
                        assert got is seen[id(original)]
                        shared += 1
                    seen[id(original)] = got
    assert shared > 0
    # Recording perturbed nothing, and identical runs repeat the frames.
    assert run().frame_digest == result.frame_digest


def test_different_seed_changes_frames_not_structure():
    first = run_recorded(seed=3)
    other = run_recorded(seed=4)
    assert first.frame_digest != other.frame_digest
    assert first.created == other.created  # same SPMD build plan


def test_merged_trace_is_time_ordered():
    result = run_recorded(seed=3)
    assert result.trace, "trace=True must produce a merged stream"
    times = [event[0] for event in result.trace]
    assert times == sorted(times)
    assert result.frames, "record_frames=True must keep the raw log"
    for src, dest, buf in result.frames:
        assert src != dest
        assert isinstance(buf, bytes) and buf


# ----------------------------------------------------------------------
# Configuration guards
# ----------------------------------------------------------------------


def test_overrunning_phase_times_out_by_its_bound_in_both_worlds():
    """A phase that overruns its bound raises, naming the phase, whether
    the coordinator or ``run_phases`` drives it — not only an
    ``"until"`` phase, and not only at ``max_sim_time``."""
    params = dict(TORTURE_PARAMS, collect_timeout=1)
    with pytest.raises(
        SimulationError,
        match=r"sharded 'torture' timed out in phase 'collect' after 1\.0s",
    ):
        ShardedWorld(
            two_site_topology(), 2, workload="torture", params=params,
            dgc=small_dgc(), seed=3,
        ).run()
    from repro.workloads.torture import run_torture

    with pytest.raises(
        SimulationError, match=r"timed out in phase 'collect' after 1\.0s"
    ):
        run_torture(
            dgc=small_dgc(), topology=two_site_topology(), seed=3,
            collect_timeout=1, **TORTURE_PARAMS,
        )


def test_rejects_per_event_core():
    with pytest.raises(ConfigurationError, match="batched"):
        ShardedWorld(
            two_site_topology(), 2, workload="torture",
            dgc=DgcConfig(ttb=1.0, tta=3.0, aggregation="per-event"),
        )


def test_rejects_unknown_workload():
    with pytest.raises(ConfigurationError, match="unknown shard workload"):
        ShardedWorld(
            two_site_topology(), 2, workload="mystery", dgc=small_dgc(),
        )


def test_shard_count_bounds():
    topo = two_site_topology()  # 4 nodes
    with pytest.raises(ConfigurationError):
        make_plan(topo, 0)
    with pytest.raises(ConfigurationError):
        make_plan(topo, 5)


def test_zero_lookahead_rejected():
    # Two shards split a zero-latency site: no safe advance window.
    topo = Topology([Site("fast", 4, intra_rtt_s=0.0)], {})
    with pytest.raises(ConfigurationError, match="lookahead"):
        make_plan(topo, 2)
    # The same nodes on one shard are fine (lookahead unused).
    plan = make_plan(topo, 1)
    assert plan.shard_count == 1


# ----------------------------------------------------------------------
# Named failures
# ----------------------------------------------------------------------


def test_killed_worker_surfaces_as_named_shard_failure(monkeypatch):
    """A worker killed mid-run (kill -9, the OOM killer) is a
    :class:`ShardFailure` naming the shard, the round and the exit code
    within seconds, and its sibling is terminated rather than left to
    the 10 s join backstop."""
    spawned = []
    real_spawn = ShardedWorld._spawn
    real_recv_report = ShardedWorld._recv_report
    received = []

    def spawn(self, mp, conns, procs):
        real_spawn(self, mp, conns, procs)
        spawned.extend(procs)

    def recv_report(self, conn):
        received.append(conn)
        if len(received) == 5:  # the initial reports, then a round in
            os.kill(spawned[1].pid, signal.SIGKILL)
        return real_recv_report(self, conn)

    monkeypatch.setattr(ShardedWorld, "_spawn", spawn)
    monkeypatch.setattr(ShardedWorld, "_recv_report", recv_report)
    world = ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    started = time.monotonic()
    with pytest.raises(ShardFailure) as failure:
        world.run()
    assert time.monotonic() - started < 5.0
    message = str(failure.value)
    assert f"shard 1 (exit code {-signal.SIGKILL})" in message
    assert "shard 0" not in message
    assert re.search(r"barrier round [1-9]", message), message
    assert isinstance(failure.value, SimulationError)
    assert not any(proc.is_alive() for proc in spawned)
    assert spawned[0].exitcode == -signal.SIGKILL


def _stop_shard_one_mid_run(monkeypatch, **world_kwargs):
    """SIGSTOP shard 1 of a 2-shard torture a round in; return the
    :class:`ShardFailure` info, the seconds it took and the workers
    (never leaving a stopped one behind)."""
    spawned = []
    real_spawn = ShardedWorld._spawn
    real_recv_report = ShardedWorld._recv_report
    received = []

    def spawn(self, mp, conns, procs):
        real_spawn(self, mp, conns, procs)
        spawned.extend(procs)

    def recv_report(self, conn):
        received.append(conn)
        if len(received) == 5:  # the initial reports, then a round in
            os.kill(spawned[1].pid, signal.SIGSTOP)
        return real_recv_report(self, conn)

    monkeypatch.setattr(ShardedWorld, "_spawn", spawn)
    monkeypatch.setattr(ShardedWorld, "_recv_report", recv_report)
    world = ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3, **world_kwargs,
    )
    started = time.monotonic()
    try:
        with pytest.raises(ShardFailure) as failure:
            world.run()
    finally:
        for proc in spawned:
            if proc.is_alive():  # never leave a stopped process behind
                proc.kill()
    return failure, time.monotonic() - started, spawned


def test_hung_worker_surfaces_as_named_shard_failure(monkeypatch):
    """A worker that stops answering (SIGSTOP here) is a
    :class:`ShardFailure` once ``io_timeout_s`` passes, naming the
    shard, the round and the last routed frame, and every worker is
    killed: a stopped one ignores SIGTERM, so terminating it would
    hang the join."""
    failure, elapsed, spawned = _stop_shard_one_mid_run(
        monkeypatch, io_timeout_s=2.0
    )
    assert elapsed < 15.0
    message = str(failure.value)
    assert "shard 1 unresponsive for 2.0s" in message
    assert re.search(r"barrier round [1-9]", message), message
    assert re.search(
        r"last frame routed \(src_shard, seq\): \([01], \d+\)", message
    ), message
    assert not any(proc.is_alive() for proc in spawned)
    assert spawned[1].exitcode == -signal.SIGKILL


def test_stopped_worker_surfaces_within_seconds_by_heartbeat(monkeypatch):
    """At the default ``io_timeout_s`` (300 s) a stopped worker still
    surfaces in seconds: its heartbeat pipe falls silent, and ten empty
    one-second slices name it a :class:`ShardFailure`."""
    default = inspect.signature(ShardedWorld).parameters["io_timeout_s"].default
    assert default == 300.0
    failure, elapsed, spawned = _stop_shard_one_mid_run(monkeypatch)
    assert elapsed < 30.0
    message = str(failure.value)
    assert "shard 1 stopped: no heartbeat for 10.0s" in message
    assert re.search(r"barrier round [1-9]", message), message
    assert not any(proc.is_alive() for proc in spawned)
    assert spawned[1].exitcode == -signal.SIGKILL


def test_slow_worker_keeps_beating_and_finishes(monkeypatch):
    """A worker that takes longer than the silent-slice limit to report
    (here two slices; it sleeps 3.5 s once) is not named stopped: its
    heartbeat thread keeps writing, and the run completes as the replay
    does.  The patches are inherited by the forked workers."""
    monkeypatch.setattr(coordinator_module, "HEARTBEAT_MISSES", 2)
    real_send_report = worker_module._send_report
    reports = []

    def slow_send_report(conn, world, env, spec, *rest):
        reports.append(spec.shard)  # per process: each worker's own list
        if spec.shard == 1 and len(reports) == 2:
            time.sleep(3.5)
        return real_send_report(conn, world, env, spec, *rest)

    monkeypatch.setattr(worker_module, "_send_report", slow_send_report)
    started = time.monotonic()
    result = ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    ).run()
    assert time.monotonic() - started >= 3.5
    _, _, signature = replay_single_process(
        two_site_topology(), workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), seed=3,
    )
    assert result.outcome_signature() == signature


#: A coordinator that spawns its two workers, prints their pids and then
#: sleeps, so both workers sit in ``conn.recv()`` when it is killed.
_SLEEPING_COORDINATOR = """
import time
from repro.core.config import DgcConfig
from repro.net.topology import Site, Topology
from repro.shard import ShardedWorld

spawn = ShardedWorld._spawn

def announce(self, mp, conns, procs):
    spawn(self, mp, conns, procs)
    print(*(proc.pid for proc in procs), flush=True)
    time.sleep(120)

ShardedWorld._spawn = announce
ShardedWorld(
    Topology([Site("a", 2, intra_rtt_s=0.002), Site("b", 2, intra_rtt_s=0.002)],
             {("a", "b"): 0.1}),
    2, workload="torture",
    params=dict(slave_count=8, active_duration=6.0, initial_pool=3),
    dgc=DgcConfig(ttb=1.0, tta=3.0),
).run()
"""


def _running(pid: int) -> bool:
    """The process exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_their_coordinator_is_killed():
    """SIGKILL the coordinator (in a subprocess) while both workers wait
    for its next round: each reads EOF, since neither holds a
    coordinator-side pipe end, and exits within 5 s instead of living on
    as an orphan."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_COORDINATOR], env=env,
        stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(pids) == 2
        coordinator.kill()
        coordinator.wait(timeout=10.0)
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        coordinator.kill()
        for pid in pids:  # an orphan holds stdout open: kill it first
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        coordinator.communicate(timeout=10.0)


class _SlowConn:
    """A barrier pipe whose report arrives after ``slices`` empty polls;
    with ``beat_fd``, the worker writes a heartbeat byte during each."""

    def __init__(self, slices, beat_fd=None):
        self.slices = slices
        self.beat_fd = beat_fd
        self.polls = []

    def poll(self, timeout):
        self.polls.append(timeout)
        if len(self.polls) > self.slices:
            return True
        if self.beat_fd is not None:
            os.write(self.beat_fd, b"\0")
        return False

    def recv(self):
        return ("report",)


@pytest.mark.parametrize(
    "beating, io_timeout_s, why, polls",
    [
        (True, 300.0, None, 41),  # slow but alive: waits the report out
        (False, 300.0, "stopped: no heartbeat for 10.0s", 10),
        (True, 2.5, "unresponsive for 2.5s", 3),  # the backstop
    ],
    ids=["slow", "silent", "backstop"],
)
def test_recv_tells_a_slow_worker_from_a_stopped_one(
    beating, io_timeout_s, why, polls
):
    """One-second slices: a worker that beats is waited for as long as
    ``io_timeout_s`` allows, one that falls silent for ten slices is
    named stopped, without any real waiting here."""
    world = ShardedWorld(
        two_site_topology(), 2, workload="torture", params=TORTURE_PARAMS,
        dgc=small_dgc(), io_timeout_s=io_timeout_s,
    )
    beats, beat = os.pipe()
    os.set_blocking(beats, False)
    try:
        conn = _SlowConn(40, beat if beating else None)
        world._conns = [None, conn]
        world._heartbeats = [None, beats]
        if why is None:
            assert world._recv(conn) == ("report",)
        else:
            with pytest.raises(TimeoutError) as hung:
                world._recv(conn)
            assert hung.value.args == (1, why)
        assert conn.polls == [1.0] * polls
    finally:
        os.close(beats)
        os.close(beat)


def test_plan_partitions_nodes_contiguously():
    topo = Topology(
        [Site("a", 3, intra_rtt_s=0.001), Site("b", 2, intra_rtt_s=0.001)],
        {("a", "b"): 0.2},
    )
    plan = make_plan(topo, 2)
    assert plan.shard_count == 2
    all_nodes = [name for s in range(2) for name in plan.nodes_of(s)]
    assert all_nodes == list(plan.node_names)
    for shard in range(2):
        for name in plan.nodes_of(shard):
            assert plan.shard_of(name) == shard
    # Lookahead is the minimum cross-shard one-way latency.
    assert plan.lookahead == pytest.approx(0.1)
    with pytest.raises(ConfigurationError):
        plan.shard_of("nowhere-0")
