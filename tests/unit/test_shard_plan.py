"""Per-channel lookahead: the plan's latency matrix, its shortest-path
closure, and the coordinator's float-safe arrival bounds.

The matrix generalizes the old scalar lookahead — one conservative
window per ``(src_shard, dst_shard)`` channel instead of the plan-wide
minimum — and the closure (:attr:`ShardPlan.horizon_matrix`) is the
exact-arithmetic form of the per-shard horizons the coordinator
grants.  The coordinator itself relaxes over the raw matrix with
left-folded float additions (:func:`_arrival_bounds`); these tests pin
both the exact values and the fold-order property that makes the float
bound safe.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net.topology import Site, Topology, metro_wan_topology
from repro.shard.coordinator import _arrival_bounds
from repro.shard.plan import ShardPlan, _closure, make_plan

INF = math.inf


# ----------------------------------------------------------------------
# The lookahead matrix built by make_plan
# ----------------------------------------------------------------------


def test_metro_wan_plan_matrix_two_shards():
    # 4 sites paired into metros; a 2-shard split lands the boundary
    # between the metros, so every cross-shard channel is WAN-wide.
    topo = metro_wan_topology(
        16, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )
    plan = make_plan(topo, 2)
    assert plan.lookahead == pytest.approx(1.0)
    assert plan.lookahead_matrix == ((INF, 1.0), (1.0, INF))
    # Closure: direct hops off the diagonal, round trips on it.
    assert plan.horizon_matrix == ((2.0, 1.0), (1.0, 2.0))


def test_metro_wan_plan_matrix_four_shards():
    # One shard per site: metro channels are narrow, WAN channels wide
    # — the scalar lookahead collapses to the metro latency but the
    # matrix keeps the WAN channels at their true width.
    topo = metro_wan_topology(
        16, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )
    plan = make_plan(topo, 4)
    assert plan.lookahead == pytest.approx(0.25)
    matrix = plan.lookahead_matrix
    for i in range(4):
        for j in range(4):
            if i == j:
                assert matrix[i][j] == INF
            elif i // 2 == j // 2:
                assert matrix[i][j] == pytest.approx(0.25)
            else:
                assert matrix[i][j] == pytest.approx(1.0)
    # The WAN channel is still cheaper than chaining two metro hops
    # through the far metro, so the closure keeps it direct; the cycle
    # diagonal is the metro round trip.
    assert plan.horizon_matrix[0][2] == pytest.approx(1.0)
    assert plan.horizon_matrix[0][0] == pytest.approx(0.5)


def test_boundary_inside_a_site_collapses_that_channel_only():
    # Three shards over two sites: the a/a boundary channel is the
    # intra-site latency, the cross-site channels keep the wide one.
    topo = Topology(
        [Site("a", 4, intra_rtt_s=0.01), Site("b", 2, intra_rtt_s=0.01)],
        {("a", "b"): 1.0},
    )
    plan = make_plan(topo, 3)  # blocks: a0-a1 | a2-a3 | b0-b1
    assert plan.nodes_of(2) == ["b-0", "b-1"]
    matrix = plan.lookahead_matrix
    assert matrix[0][1] == pytest.approx(0.005)
    assert matrix[1][0] == pytest.approx(0.005)
    assert matrix[0][2] == pytest.approx(0.5)
    assert matrix[2][1] == pytest.approx(0.5)
    assert plan.lookahead == pytest.approx(0.005)


def test_cuts_move_to_the_nearest_site_boundary():
    # Four sites of eight, paired into metros: the balanced 3-shard cuts
    # (11, 22) would split two sites; they move to the boundaries 8 and
    # 24, so the narrowest channel is a metro link, not an intra-site one.
    topo = metro_wan_topology(
        32, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )
    plan = make_plan(topo, 3)
    assert [len(plan.nodes_of(shard)) for shard in range(3)] == [8, 16, 8]
    for site in topo.sites:
        assert len({
            plan.shard_of(f"{site.name}-{index}")
            for index in range(site.node_count)
        }) == 1
    assert plan.lookahead == pytest.approx(0.25)


def test_crowded_cuts_keep_one_boundary_each_and_ties_go_low():
    # Both balanced cuts (8, 15) are nearest the boundary 2; the first
    # takes the boundary 1 so that every shard keeps a site.
    topo = Topology(
        [Site("a", 1, intra_rtt_s=0.01), Site("b", 1, intra_rtt_s=0.01),
         Site("c", 20, intra_rtt_s=0.01)],
        {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0},
    )
    plan = make_plan(topo, 3)
    assert plan.nodes_of(0) == ["a-0"] and plan.nodes_of(1) == ["b-0"]
    # The balanced cut 4 lies halfway between the boundaries 2 and 6.
    topo = Topology(
        [Site("a", 2, intra_rtt_s=0.01), Site("b", 4, intra_rtt_s=0.01),
         Site("c", 2, intra_rtt_s=0.01)],
        {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0},
    )
    assert make_plan(topo, 2).nodes_of(0) == ["a-0", "a-1"]


def test_single_shard_matrix_is_all_inf():
    plan = make_plan(metro_wan_topology(4), 1)
    assert plan.lookahead == INF
    assert plan.lookahead_matrix == ((INF,),)
    assert plan.horizon_matrix == ((INF,),)


def test_direct_construction_defaults_matrices():
    # ShardPlan built without a matrix (older call sites, tests) gets
    # the all-inf matrix and its trivial closure.
    plan = ShardPlan(
        shard_count=2, node_names=("x", "y"), assignment=(0, 1),
        lookahead=0.5,
    )
    assert plan.lookahead_matrix == ((INF, INF), (INF, INF))
    assert plan.horizon_matrix == ((INF, INF), (INF, INF))


# ----------------------------------------------------------------------
# The shortest-path closure
# ----------------------------------------------------------------------


def test_closure_asymmetric_chains_and_cycles():
    # Hand-checked: 0->2 is cheaper via 1 (1+1) than direct (10);
    # 1->0 via 2 (1+1) than direct (5); every cheapest cycle is 3.
    matrix = (
        (INF, 1.0, 10.0),
        (5.0, INF, 1.0),
        (1.0, 3.0, INF),
    )
    assert _closure(matrix) == (
        (3.0, 1.0, 2.0),
        (2.0, 3.0, 1.0),
        (1.0, 2.0, 3.0),
    )


def test_closure_two_shards_is_direct_plus_round_trip():
    assert _closure(((INF, 0.25), (0.5, INF))) == (
        (0.75, 0.25),
        (0.5, 0.75),
    )


# ----------------------------------------------------------------------
# The coordinator's arrival bounds
# ----------------------------------------------------------------------


def test_arrival_bounds_match_closure_on_exact_values():
    matrix = (
        (INF, 1.0, 10.0),
        (5.0, INF, 1.0),
        (1.0, 3.0, INF),
    )
    closure = _closure(matrix)
    bids = [7.0, 9.0, 30.0]
    arrive = _arrival_bounds(bids, matrix)
    for j in range(3):
        expected = bids[j] + closure[j][j]
        for i in range(3):
            if i != j:
                expected = min(expected, bids[i] + closure[i][j])
        assert arrive[j] == pytest.approx(expected)


def test_idle_shard_widens_neighbour_horizons():
    # Symmetric two-shard channel: with both shards busy the horizon
    # tracks the global minimum, but when shard 1 has nothing to send
    # (bid inf) shard 0 is bounded only by its own echo — the
    # "no pending output" report buys the neighbourhood a far wider
    # window than the scalar protocol's M + L ever could.
    matrix = ((INF, 0.25), (0.25, INF))
    busy = _arrival_bounds([10.0, 10.5], matrix)
    assert busy[0] == pytest.approx(10.5)    # own echo: 10 + 0.25 + 0.25
    assert busy[1] == pytest.approx(10.25)   # shard 0's output
    idle = _arrival_bounds([10.0, INF], matrix)
    assert idle == busy  # the echo already bounded shard 0 here
    wide = _arrival_bounds([INF, 10.5], matrix)
    assert wide[0] == pytest.approx(10.75)   # only shard 1 can act
    assert wide[1] == pytest.approx(11.0)    # shard 1's own echo
    assert _arrival_bounds([INF, INF], matrix) == [INF, INF]


def test_asymmetric_channels_bound_each_direction_separately():
    # 0 -> 1 is fast (0.1), 1 -> 0 is slow (2.0): shard 0 may run far
    # ahead (its only inbound channel is slow) while shard 1 stays on
    # the short leash of the fast channel.
    matrix = ((INF, 0.1), (2.0, INF))
    arrive = _arrival_bounds([5.0, 5.0], matrix)
    assert arrive[0] == pytest.approx(7.0)
    assert arrive[1] == pytest.approx(5.1)


def test_arrival_bounds_fold_left_like_a_real_chain():
    # The float-safety property itself: the bound for a two-hop echo
    # must be the left-folded (bid + L1) + L2, which can differ from
    # bid + (L1 + L2) by an ULP — the latter would overshoot the real
    # chain's arrival and trip the late-injection guard.
    bid, l1, l2 = 3.396975044115336, 0.05, 0.001
    folded = (bid + l1) + l2
    presummed = bid + (l1 + l2)
    assert folded < presummed  # this triple genuinely exercises the gap
    arrive = _arrival_bounds([bid, INF], ((INF, l1), (l2, INF)))
    assert arrive[0] == folded


# ----------------------------------------------------------------------
# The workers' last line of defence
# ----------------------------------------------------------------------


def _two_site_worker(shard=0):
    from repro.core.config import DgcConfig
    from repro.shard.worker import WorkerSpec, build_shard_world

    topo = Topology(
        [Site("a", 2, intra_rtt_s=0.002), Site("b", 2, intra_rtt_s=0.002)],
        {("a", "b"): 0.1},
    )
    spec = WorkerSpec(
        shard=shard,
        plan=make_plan(topo, 2),
        topology=topo,
        workload="torture",
        params=dict(slave_count=2, active_duration=1.0),
        dgc=DgcConfig(ttb=1.0, tta=3.0),
    )
    world, _ = build_shard_world(spec)
    return world


def test_late_injection_still_raises():
    # Per-channel horizons or not, a delivery before the local clock
    # means the conservative bound was violated somewhere — the worker
    # refuses the whole run rather than silently reordering.
    world = _two_site_worker()
    world.kernel.advance(5.0)
    with pytest.raises(NetworkError, match="late cross-shard dgc.message run"):
        world.network.inject_remote_runs(
            [("dgc.message", 4.9, "a-0", ["ao-1", "ao-2"], ["late", "late"])]
        )
    assert world.network.injected_entry_count == 0
    # At or after the clock is fine.
    world.network.inject_remote_runs(
        [("dgc.message", 5.0, "a-0", ["ao-1"], ["on-time"])]
    )
    assert world.network.injected_entry_count == 1


def test_injection_counts_staged_pulse_entries():
    # injected_entry_count is the wire-row count: a DGC run stages as
    # one aggregate pulse entry, every other run as one entry per item;
    # instants opened by injection are counted as coordination events.
    from repro.net import kinds

    world = _two_site_worker()
    network = world.network
    pulses_before = network.pulse_event_count
    targets, messages = ["ao-1", "ao-2", "ao-3"], ["m1", "m2", "m3"]
    network.inject_remote_runs([
        (kinds.KIND_DGC_MESSAGE, 7.0, "a-0", targets, messages),
        (kinds.KIND_DGC_RESPONSE, 7.0, "a-1", ["ao-4"], ["r1"]),
        (kinds.KIND_APP_REPLY, 7.5, "a-0", ["x", "y"], [None, None]),
    ])
    assert network.injected_entry_count == 4
    assert network.pulse_event_count - pulses_before == 2
    assert network.ingress_pulse_event_count == 2
    staged = network._pulses[7.0]
    aggregate = kinds.AGGREGATE_KINDS[kinds.KIND_DGC_MESSAGE]
    assert staged[0][2:] == ("a-0", aggregate, targets, messages)
    # The columns are staged as they came off the wire, not copied.
    assert staged[0][4] is targets and staged[0][5] is messages


def test_egress_stages_runs_in_first_send_order():
    # Shard-remote sends are bucketed at send time by (kind, delivery
    # instant, destination): singles and runs of one key share a run's
    # columns in send order, and runs drain in first-send order.
    from repro.net import kinds

    world = _two_site_worker()
    network = world.network
    network.drain_egress()  # the workload's own setup traffic
    sent_before = network.egress_message_count
    charged_before = network.accountant.messages_for(kinds.KIND_DGC_MESSAGE)
    single, run = network.send_dgc_single, network.send_dgc_run
    message, response = kinds.KIND_DGC_MESSAGE, kinds.KIND_DGC_RESPONSE
    single("a-0", "b-0", message, 10, "t1", "m1")
    single("a-1", "b-1", message, 10, "t2", "m2")
    single("a-0", "b-0", response, 10, "t3", "r1")
    run("a-1", "b-0", message, 10, ["t4", "t5"], ["m3", "m3"])
    single("a-0", "b-0", message, 10, "t6", "m4")
    network.send_typed("a-0", "b-1", kinds.KIND_APP_REPLY, 40, "reply")
    assert network.egress_message_count - sent_before == 7
    delivery = world.kernel.now + 0.05
    assert network.drain_egress() == [
        (message, delivery, "b-0",
         ["t1", "t4", "t5", "t6"], ["m1", "m3", "m3", "m4"]),
        (message, delivery, "b-1", ["t2"], ["m2"]),
        (response, delivery, "b-0", ["t3"], ["r1"]),
        (kinds.KIND_APP_REPLY, delivery, "b-1", ["reply"], [None]),
    ]
    assert network.drain_egress() == []
    # The sender's shard charged the traffic and clamped FIFO slots.
    assert network.accountant.messages_for(message) - charged_before == 5
