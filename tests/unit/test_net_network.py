"""Unit tests for the network fabric."""

import pytest

from repro.errors import UnknownDestinationError
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    ALL_KINDS,
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
)
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.kernel import SimKernel


def make_network(node_count=2, rtt=0.01, fault_plan=None):
    kernel = SimKernel()
    network = Network(
        kernel, uniform_topology(node_count, rtt_s=rtt), fault_plan=fault_plan
    )
    return kernel, network


def kind_table(record):
    """A node's kind table: every kind's handler calls
    ``record(kind, item, payload)``."""
    return {
        kind: lambda item, payload, _kind=kind: record(_kind, item, payload)
        for kind in ALL_KINDS
    }


def ignore(kind, item, payload):
    pass


def test_cross_node_delivery_and_accounting():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node(
        "site-1", kind_table(lambda *message: received.append(kernel.now))
    )
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 100, "data")
    kernel.run()
    assert received == [pytest.approx(0.005)]
    assert network.accountant.total_bytes == 100


def test_intra_node_delivery_is_not_accounted():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", kind_table(
        lambda *message: received.append((kernel.now, message))
    ))
    network.register_node("site-1", kind_table(ignore))
    network.send_typed("site-0", "site-0", KIND_APP_REQUEST, 100, "data")
    kernel.run()
    assert received == [(0.0, (KIND_APP_REQUEST, "data", None))]
    assert network.accountant.total_bytes == 0


def test_unknown_destination_raises():
    kernel, network = make_network()
    network.register_node("site-0", kind_table(ignore))
    with pytest.raises(UnknownDestinationError):
        network.send_typed("site-0", "nowhere", KIND_APP_REQUEST, 100, "data")


def test_partition_drops_messages():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda *message: received.append(message)
    ))
    plan.partition("site-0", "site-1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 100, "data")
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_heal_restores_delivery():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda *message: received.append(message)
    ))
    plan.partition("site-0", "site-1")
    plan.heal("site-0", "site-1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 100, "data")
    kernel.run()
    assert len(received) == 1


def test_fault_plan_extra_delay_applies_to_matching_kind():
    for batching in (False, True):
        plan = FaultPlan()
        plan.add_delay(1.0, kind=KIND_DGC_MESSAGE)
        kernel, network = make_network(fault_plan=plan)
        network.pulse_batching = batching
        times = {}
        network.register_node("site-0", kind_table(ignore))
        network.register_node("site-1", kind_table(
            lambda kind, item, payload: times.setdefault(kind, kernel.now)
        ))
        network.send_typed("site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao", "m")
        kernel.run()
        # Delayed DGC message arrives 1s + latency later, on both cores.
        assert times[KIND_DGC_MESSAGE] == pytest.approx(1.005)


def test_item_predicate_delays_only_the_matching_messages():
    plan = FaultPlan()
    plan.add_delay(
        1.0, kind=KIND_APP_REQUEST, predicate=lambda item: item == "slow"
    )
    kernel, network = make_network(fault_plan=plan)
    network.pulse_batching = True
    arrivals = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda kind, item, payload: arrivals.append((item, kernel.now))
    ))
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "fast")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "slow")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "after")
    kernel.run()
    # The unmatched message behind the slow one is FIFO-clamped to it.
    assert arrivals == [
        ("fast", pytest.approx(0.005)),
        ("slow", pytest.approx(1.005)),
        ("after", pytest.approx(1.005)),
    ]


def test_fifo_between_same_pair_with_mixed_kinds():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda kind, item, payload: received.append(kind)
    ))
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 100, "req")
    network.send_typed("site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao", "m")
    kernel.run()
    assert received == [KIND_APP_REQUEST, KIND_DGC_MESSAGE]


def test_max_comm_reflects_topology():
    __, network = make_network(rtt=0.02)
    assert network.max_comm() == pytest.approx(0.01)


def test_delivery_to_vanished_node_is_dropped():
    kernel, network = make_network()
    network.register_node("site-0", kind_table(ignore))
    calls = []
    network.register_node("site-1", kind_table(
        lambda *message: calls.append(message)
    ))
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    # Simulate the destination node disappearing mid-flight.
    network._kind_tables.pop("site-1")
    kernel.run()
    assert calls == []
    assert network.fault_plan.dropped_count == 1
    channel = network._channels[("site-0", "site-1")]
    assert channel.sent_count == channel.delivered_count == 1


# ----------------------------------------------------------------------
# The two transports of send_typed: pulse and per-message lane
# ----------------------------------------------------------------------


def make_typed_network(node_count=2, batching=True):
    kernel, network = make_network(node_count)
    network.pulse_batching = batching
    received = {}
    for index in range(node_count):
        name = f"site-{index}"
        network.register_node(name, kind_table(
            lambda kind, item, payload, _name=name:
                received.setdefault(_name, []).append((kind, item, payload))
        ))
    return kernel, network, received


def test_send_typed_delivers_through_the_kind_table_and_accounts():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 123, "req")
    kernel.run()
    assert received["site-1"] == [(KIND_APP_REQUEST, "req", None)]
    assert network.accountant.bytes_for(KIND_APP_REQUEST) == 123


def test_send_typed_batches_same_instant_into_one_pulse_event():
    kernel, network, received = make_typed_network()
    for index in range(10):
        network.send_typed(
            "site-0", "site-1", KIND_APP_REQUEST, 10, f"req{index}"
        )
    kernel.run()
    assert [item for __, item, __ in received["site-1"]] == [
        f"req{index}" for index in range(10)
    ]
    # Ten messages share one delivery instant: one kernel pulse event.
    assert network.pulse_event_count == 1


def test_send_typed_intra_node_is_unaccounted_and_same_tick():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-0", KIND_APP_REPLY, 99, "reply")
    kernel.run()
    assert received["site-0"] == [(KIND_APP_REPLY, "reply", None)]
    assert network.accountant.total_bytes == 0


def test_per_event_core_sends_one_kernel_event_per_message():
    kernel, network, received = make_typed_network(batching=False)
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 50, "req")
    network.send_typed(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao-1", "beat"
    )
    scheduled = kernel.scheduled_count
    kernel.run()
    # Every kind arrives in its typed form, item and payload apart.
    assert received["site-1"] == [
        (KIND_APP_REQUEST, "req", None), (KIND_DGC_MESSAGE, "ao-1", "beat"),
    ]
    assert scheduled == 2
    assert network.pulse_event_count == 0
    assert network.accountant.total_bytes == 114


def test_send_typed_to_vanished_node_is_dropped():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    network._kind_tables.pop("site-1")
    kernel.run()
    assert received.get("site-1") is None
    assert network.fault_plan.dropped_count == 1


def test_send_typed_respects_partitions():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda *message: received.append(message)
    ))
    plan.partition("site-0", "site-1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_pulse_and_per_message_traffic_share_channel_fifo():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    network.pulse_batching = True
    # DGC messages take the per-message lane, app traffic the pulse.
    plan.add_delay(0.5, kind=KIND_DGC_MESSAGE)
    order = []
    network.register_node("site-0", kind_table(ignore))
    network.register_node("site-1", kind_table(
        lambda kind, item, payload: order.append(kind)
    ))
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "first")
    network.send_typed("site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao", "m")
    network.send_typed("site-0", "site-1", KIND_APP_REPLY, 10, "third")
    kernel.run()
    assert order == [KIND_APP_REQUEST, KIND_DGC_MESSAGE, KIND_APP_REPLY]
    assert network.pulse_event_count == 2


# ----------------------------------------------------------------------
# The aggregated columnar core (send_dgc_single / send_dgc_run)
# ----------------------------------------------------------------------


def make_aggregated_network(node_count=3):
    kernel, network = make_network(node_count)
    network.pulse_batching = True
    typed, singles, batches = [], [], []
    for index in range(node_count):
        name = f"site-{index}"

        def record(kind, item, payload, _name=name):
            if kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE):
                singles.append((_name, item, payload))
            else:
                typed.append((_name, kind, item, payload))

        def batch(targets, messages, _name=name):
            batches.append((_name, list(targets), list(messages)))

        network.register_node(
            name, kind_table(record),
            dgc_batch_sinks={KIND_DGC_MESSAGE: batch, KIND_DGC_RESPONSE: batch},
        )
    return kernel, network, typed, singles, batches


def test_adjacent_same_channel_dgc_sends_merge_into_one_aggregate():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    for index in range(5):
        network.send_dgc_single(
            "site-0", "site-1", KIND_DGC_MESSAGE, 64, f"ao-{index}", message
        )
    kernel.run()
    # One batch-sink call carrying the flat columns, in send order.
    assert singles == []
    assert batches == [
        ("site-1", [f"ao-{i}" for i in range(5)], [message] * 5)
    ]
    assert network.aggregated_message_count == 4
    # Accounting charges each constituent at its modeled size.
    assert network.accountant.messages_for(KIND_DGC_MESSAGE) == 5
    assert network.accountant.bytes_for(KIND_DGC_MESSAGE) == 5 * 64
    assert network.accountant.pair_bytes(("site-0", "site-1")) == 5 * 64


def test_interleaved_traffic_breaks_the_run_and_keeps_order():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    order = []

    def record(kind, item, payload):
        order.append(
            ("single" if kind == KIND_DGC_MESSAGE else "typed", item)
        )

    def batch(targets, messages):
        order.extend(("batch", target) for target in targets)

    # Re-register site-1 with lanes that record global arrival order.
    network.register_node(
        "site-1", kind_table(record),
        dgc_batch_sinks={KIND_DGC_MESSAGE: batch, KIND_DGC_RESPONSE: batch},
    )
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", message)
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "b", message)
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "c", message)
    kernel.run()
    # The app request broke the run: "a" stays single, "b"/"c" merged —
    # and the global sequence is exactly the send sequence.
    assert order == [
        ("single", "a"), ("typed", "req"), ("batch", "b"), ("batch", "c"),
    ]


def test_send_dgc_run_stages_one_entry_and_counts_constituents():
    kernel, network, typed, singles, batches = make_aggregated_network()
    message = object()
    network.send_dgc_run(
        "site-0", "site-2", KIND_DGC_MESSAGE, 64,
        ["x", "y", "z"], [message, message, message],
    )
    kernel.run()
    assert batches == [("site-2", ["x", "y", "z"], [message] * 3)]
    channel = network._channels[("site-0", "site-2")]
    assert channel.sent_count == 3
    assert channel.delivered_count == 3
    assert network.accountant.messages_for(KIND_DGC_MESSAGE) == 3


def test_send_dgc_run_falls_back_per_message_without_batching():
    # The per-event core: one kernel event per message, through the
    # kind table.
    kernel, network, typed, singles, batches = make_aggregated_network()
    network.pulse_batching = False
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["x", "y"], ["m", "m"]
    )
    kernel.run()
    assert batches == [] and typed == []
    assert singles == [("site-1", "x", "m"), ("site-1", "y", "m")]
    assert network.pulse_event_count == 0


def test_send_dgc_single_respects_partitions_and_counts_drops():
    plan = FaultPlan()
    kernel, network = make_network(2, fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node(
        "site-0", kind_table(ignore),
        dgc_batch_sinks={KIND_DGC_MESSAGE: lambda ts, ms: None},
    )
    network.register_node(
        "site-1", kind_table(lambda *message: received.append(message)),
        dgc_batch_sinks={
            KIND_DGC_MESSAGE: lambda ts, ms: received.extend(ts),
        },
    )
    plan.partition("site-0", "site-1")
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["b", "c"], ["m", "m"]
    )
    kernel.run()
    assert received == []
    assert plan.dropped_count == 3
    assert network.accountant.total_bytes == 0


# Each case sets up one route condition on a fresh two-node fabric and
# returns the (source, dest) pair to send on.  ``site-1`` registers the
# lanes the case names; every lane records the same arrival tuple.

def _bare_route(network, plan, register):
    register("site-1", dgc=True)
    return "site-0", "site-1"


def _per_event(network, plan, register):
    network.pulse_batching = False
    return _bare_route(network, plan, register)


def _delay_rule_on_dgc(network, plan, register):
    plan.add_delay(0.5, kind=KIND_DGC_MESSAGE)
    return _bare_route(network, plan, register)


def _delay_rule_on_items(network, plan, register):
    plan.add_delay(
        0.5, kind=KIND_DGC_MESSAGE, predicate=lambda target: target == "b"
    )
    return _bare_route(network, plan, register)


def _delay_rule_on_other_kind(network, plan, register):
    plan.add_delay(0.5, kind=KIND_APP_REQUEST)
    return _bare_route(network, plan, register)


def _no_batch_sinks(network, plan, register):
    register("site-1", dgc=False)
    return "site-0", "site-1"


def _intra_node(network, plan, register):
    register("site-1", dgc=True)
    return "site-0", "site-0"


def _partitioned(network, plan, register):
    plan.partition("site-0", "site-1")
    return _bare_route(network, plan, register)


ROUTE_CASES = {
    "pulse": _bare_route,
    "per-event": _per_event,
    "delay-rule": _delay_rule_on_dgc,
    "delay-rule-on-items": _delay_rule_on_items,
    "delay-rule-other-kind": _delay_rule_on_other_kind,
    "no-batch-sinks": _no_batch_sinks,
    "intra-node": _intra_node,
    "partition": _partitioned,
}

# Two bursts of DGC messages: three at t=0, two at t=0.25.
BURSTS = [(0.0, ["a", "b", "c"]), (0.25, ["d", "e"])]


def drive_dgc_lane(lane, case):
    """Send :data:`BURSTS` through ``lane`` under one route case and
    return everything the fabric lets the world observe."""
    plan = FaultPlan()
    kernel, network = make_network(2, fault_plan=plan)
    network.pulse_batching = True
    arrivals = []

    def register(name, dgc):
        def record(kind, target, message):
            arrivals.append((kernel.now, name, target, message))

        def record_batch(targets, messages):
            for target, message in zip(targets, messages):
                record(KIND_DGC_MESSAGE, target, message)

        network.register_node(
            name, kind_table(record),
            dgc_batch_sinks={
                KIND_DGC_MESSAGE: record_batch,
                KIND_DGC_RESPONSE: record_batch,
            } if dgc else None,
        )

    source, dest = ROUTE_CASES[case](network, plan, register)
    register("site-0", dgc=True)

    def burst(targets):
        messages = [f"m-{target}" for target in targets]
        if lane == "send_typed":
            for target, message in zip(targets, messages):
                network.send_typed(
                    source, dest, KIND_DGC_MESSAGE, 64, target, message
                )
        elif lane == "send_dgc_single":
            for target, message in zip(targets, messages):
                network.send_dgc_single(
                    source, dest, KIND_DGC_MESSAGE, 64, target, message
                )
        else:
            network.send_dgc_run(
                source, dest, KIND_DGC_MESSAGE, 64, targets, messages
            )

    for at, targets in BURSTS:
        kernel.schedule_fire_at(at, burst, (list(targets),))
    kernel.run()
    channel = network._channels.get((source, dest))
    return {
        "arrivals": arrivals,
        "traffic": {
            kind: (category.bytes, category.messages)
            for kind, category in network.accountant.summary().items()
        },
        "pair_bytes": network.accountant.pair_bytes((source, dest)),
        "dropped": plan.dropped_count,
        "channel": (
            None if channel is None
            else (channel.sent_count, channel.delivered_count)
        ),
    }


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
@pytest.mark.parametrize("lane", ["send_dgc_single", "send_dgc_run"])
def test_dgc_lanes_match_send_typed_on_every_route(lane, case):
    """Both fused DGC lanes are observably :meth:`send_typed` per message
    on every route: the fast path, and each condition that forces the
    per-message fallback (no batching, a delay rule that may match the
    DGC stream, a destination without batch sinks, intra-node) or drops
    the send (partition).  Same arrivals at the same instants in the
    same order, same accounting, same drops, same channel counters."""
    reference = drive_dgc_lane("send_typed", case)
    assert drive_dgc_lane(lane, case) == reference
    sent = sum(len(targets) for __, targets in BURSTS)
    if case == "partition":
        assert reference["arrivals"] == [] and reference["dropped"] == sent
    else:
        assert len(reference["arrivals"]) == sent
        assert reference["dropped"] == 0


def test_aggregated_pulse_records_are_pooled_and_recycled():
    kernel, network, typed, singles, batches = make_aggregated_network()
    assert network._pulse_pool == []
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    kernel.run()
    assert len(network._pulse_pool) == 1
    recycled = network._pulse_pool[0]
    assert recycled == []
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "b", "m")
    # The recycled record was reused, not a new allocation.
    assert network._pulse_pool == []
    assert len(network._pulses) == 1 and next(iter(network._pulses.values())) is recycled
    kernel.run()


# ----------------------------------------------------------------------
# Registration replaces every lane; lent DGC target tables
# ----------------------------------------------------------------------


def test_reregistration_without_dgc_sinks_drops_the_old_dgc_lanes():
    kernel, network, typed, singles, batches = make_aggregated_network(2)
    # Re-register site-1 with a kind table only: the first
    # registration's batch sinks must not survive it.
    network.register_node("site-1", kind_table(
        lambda kind, item, payload: typed.append(("new", kind, item, payload))
    ))
    assert not network._build_route("site-0", "site-1")[2]  # no dgc_fast
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m")
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["b", "c"], ["m", "m"]
    )
    kernel.run()
    assert singles == [] and batches == []
    assert typed == [
        ("new", KIND_DGC_MESSAGE, target, "m") for target in ("a", "b", "c")
    ]


def test_reregistration_replaces_every_lane_of_the_node():
    kernel, network, typed, singles, batches = make_aggregated_network(2)
    handlers = {KIND_APP_REQUEST: lambda item, payload: None}
    table = {"a": lambda message: None}
    network.register_node(
        "site-1", handlers,
        dgc_batch_sinks={KIND_DGC_MESSAGE: lambda ts, ms: None},
        dgc_targets={KIND_DGC_MESSAGE: table},
    )
    assert network._kind_tables["site-1"] is handlers
    assert network._dgc_message_tables["site-1"] is table
    assert "site-1" not in network._dgc_response_batch_sinks
    # A kind-table-only registration removes every DGC lane in one step.
    network.register_node("site-1", kind_table(ignore))
    for lanes in (
        network._dgc_message_batch_sinks, network._dgc_response_batch_sinks,
        network._dgc_message_tables, network._dgc_response_tables,
    ):
        assert "site-1" not in lanes
    assert "site-0" in network._dgc_message_batch_sinks  # others untouched


def test_dgc_single_goes_straight_to_the_lent_target_handler():
    kernel, network, typed, singles, batches = make_aggregated_network(2)
    direct = []
    table = {"a": lambda message: direct.append(("a", message))}

    def record(kind, item, payload):
        if kind == KIND_DGC_MESSAGE:
            singles.append(("site-1", item, payload))

    network.register_node(
        "site-1", kind_table(record),
        dgc_batch_sinks={
            KIND_DGC_MESSAGE: lambda ts, ms: batches.append(
                ("site-1", list(ts), list(ms))
            ),
            KIND_DGC_RESPONSE: lambda ts, ms: None,
        },
        dgc_targets={KIND_DGC_MESSAGE: table},
    )
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    # A table miss (the target is gone) falls to the kind table.
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "z", "m2")
    kernel.run()
    assert direct == [("a", "m1")]
    assert singles == [("site-1", "z", "m2")]
    # The table is live: the node removes a terminated target itself.
    del table["a"]
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m3")
    kernel.run()
    assert direct == [("a", "m1")]
    assert singles[-1] == ("site-1", "a", "m3")
    channel = network._channels[("site-0", "site-1")]
    assert channel.sent_count == channel.delivered_count == 4


def test_intra_node_dgc_single_takes_the_lent_target_table_too():
    kernel, network, typed, singles, batches = make_aggregated_network(2)
    direct = []
    tables = {
        kind: {"a": lambda message, _kind=kind: direct.append((_kind, message))}
        for kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE)
    }

    def record(kind, item, payload):
        singles.append((kind, item, payload))

    network.register_node(
        "site-0", kind_table(record),
        dgc_batch_sinks={
            KIND_DGC_MESSAGE: lambda ts, ms: None,
            KIND_DGC_RESPONSE: lambda ts, ms: None,
        },
        dgc_targets=tables,
    )
    for kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE):
        network.send_dgc_single("site-0", "site-0", kind, 64, "a", f"{kind}-1")
        # A table miss (the target is gone) falls to the entry's kind table.
        network.send_dgc_single("site-0", "site-0", kind, 64, "z", f"{kind}-2")
    kernel.run()
    assert direct == [
        (KIND_DGC_MESSAGE, f"{KIND_DGC_MESSAGE}-1"),
        (KIND_DGC_RESPONSE, f"{KIND_DGC_RESPONSE}-1"),
    ]
    assert singles == [
        (KIND_DGC_MESSAGE, "z", f"{KIND_DGC_MESSAGE}-2"),
        (KIND_DGC_RESPONSE, "z", f"{KIND_DGC_RESPONSE}-2"),
    ]
    # Intra-node traffic has no channel to count on.
    assert ("site-0", "site-0") not in network._channels
