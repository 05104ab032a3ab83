"""The sharded multi-process world: outcome equivalence, determinism,
and configuration guards.

Each equivalence test runs the same SPMD workload twice — once
partitioned over worker processes (:class:`repro.shard.ShardedWorld`),
once single-process through the identical builder
(:func:`repro.shard.replay_single_process`) — and asserts the outcome
signatures match: same activities created, same explicit terminations,
the exact same set of collected activity ids.  Scales are kept small;
the full-size comparison lives in ``benchmarks/test_perf_live.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import DgcConfig
from repro.errors import ConfigurationError, SimulationError
from repro.net.topology import Site, Topology
from repro.shard import ShardedWorld, make_plan, replay_single_process


def two_site_topology() -> Topology:
    return Topology(
        [Site("a", 2, intra_rtt_s=0.002), Site("b", 2, intra_rtt_s=0.002)],
        {("a", "b"): 0.1},
    )


def small_dgc() -> DgcConfig:
    return DgcConfig(ttb=1.0, tta=3.0)


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


def test_naming_beat_coherence_sharded_matches_replay():
    """The beat-quantized coherence channel composes with the sharded
    world: a naming run with ``coherence="beat"`` (plus the bind-heavy
    knobs — aliased names, Zipf-skewed draws, churn bursts) over two
    shards matches its single-process replay's outcome signature, and
    the coherence counters merge across workers."""
    from repro.core.config import RegistryConfig

    topo = two_site_topology()
    params = dict(
        client_count=6, service_count=3, name_count=9, zipf_s=1.1,
        churn_burst=2, duration=8.0, lookup_period=1.0, lookup_burst=2,
        churn_period=2.0,
    )
    registry = RegistryConfig(
        placement="replicated", coherence="beat", lease_beat_s=1.0
    )
    result = ShardedWorld(
        topo, 2, workload="naming", params=params, dgc=small_dgc(),
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
    assert (
        result.registry["coherence_staged"]
        == world.registry.coherence_staged
    )


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
    packed: every frame opens with the encoder's intern-table size, so a
    frame lost, repeated or swapped on the way raises — naming the frame
    and both table sizes — instead of resolving indices against the
    wrong table."""
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
    assert f"the encoder had {sizes[victim]} entries" in message
    assert f"this decoder has {sizes[victim - 1]}" in message
    with pytest.raises(WireFormatError, match="duplicated or reordered"):
        decode_channel(frames[:victim + 1] + frames[victim:])
    swapped = list(frames)
    swapped[victim], swapped[victim + 1] = swapped[victim + 1], swapped[victim]
    with pytest.raises(WireFormatError, match="out of step"):
        decode_channel(swapped)


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


def test_requires_dgc_config():
    with pytest.raises(ConfigurationError, match="DgcConfig"):
        ShardedWorld(two_site_topology(), 2, workload="torture")


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


def test_nas_reply_barrier_rejected():
    with pytest.raises(ConfigurationError, match="reply-barrier"):
        replay_single_process(
            two_site_topology(), workload="nas",
            params=dict(kernel="ft", ao_count=4, reply_barrier=True),
            dgc=small_dgc(),
        )
    # In the multi-process arm the worker fails at build; the
    # coordinator surfaces it instead of hanging.
    with pytest.raises(SimulationError, match="reply-barrier"):
        ShardedWorld(
            two_site_topology(), 2, workload="nas",
            params=dict(kernel="ft", ao_count=4, reply_barrier=True),
            dgc=small_dgc(),
        ).run()


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
