"""Unit tests for the network fabric."""

import pytest

from repro.errors import UnknownDestinationError
from repro.net.faults import FaultPlan
from repro.net.message import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    Envelope,
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


def make_envelope(src, dst, kind=KIND_APP_REQUEST, size=100):
    return Envelope(
        source_node=src,
        dest_node=dst,
        kind=kind,
        size_bytes=size,
        payload="data",
        deliver=lambda payload: None,
    )


def test_cross_node_delivery_and_accounting():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(kernel.now))
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert received == [pytest.approx(0.005)]
    assert network.accountant.total_bytes == 100


def test_intra_node_delivery_is_not_accounted():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: received.append(env))
    network.register_node("site-1", lambda env: None)
    network.send(make_envelope("site-0", "site-0"))
    kernel.run()
    assert len(received) == 1
    assert network.accountant.total_bytes == 0


def test_unknown_destination_raises():
    kernel, network = make_network()
    network.register_node("site-0", lambda env: None)
    with pytest.raises(UnknownDestinationError):
        network.send(make_envelope("site-0", "nowhere"))


def test_partition_drops_messages():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env))
    plan.partition("site-0", "site-1")
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_heal_restores_delivery():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env))
    plan.partition("site-0", "site-1")
    plan.heal("site-0", "site-1")
    network.send(make_envelope("site-0", "site-1"))
    kernel.run()
    assert len(received) == 1


def test_fault_plan_extra_delay_applies_to_matching_kind():
    plan = FaultPlan()
    plan.add_delay(1.0, kind=KIND_DGC_MESSAGE)
    kernel, network = make_network(fault_plan=plan)
    times = {}
    network.register_node("site-0", lambda env: None)
    network.register_node(
        "site-1", lambda env: times.setdefault(env.kind, kernel.now)
    )
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    kernel.run()
    # Delayed DGC message arrives 1s + latency later.
    assert times[KIND_DGC_MESSAGE] == pytest.approx(1.005)


def test_fifo_between_same_pair_with_mixed_kinds():
    kernel, network = make_network()
    received = []
    network.register_node("site-0", lambda env: None)
    network.register_node("site-1", lambda env: received.append(env.kind))
    network.send(make_envelope("site-0", "site-1", kind=KIND_APP_REQUEST))
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    kernel.run()
    assert received == [KIND_APP_REQUEST, KIND_DGC_MESSAGE]


def test_max_comm_reflects_topology():
    __, network = make_network(rtt=0.02)
    assert network.max_comm() == pytest.approx(0.01)


def test_delivery_to_vanished_node_is_dropped():
    kernel, network = make_network()
    network.register_node("site-0", lambda env: None)
    sink_calls = []
    network.register_node("site-1", lambda env: sink_calls.append(env))
    network.send(make_envelope("site-0", "site-1"))
    # Simulate the destination node disappearing mid-flight.
    network._sinks.pop("site-1")
    kernel.run()
    assert sink_calls == []
    assert network.fault_plan.dropped_count == 1


# ----------------------------------------------------------------------
# The unified typed fabric (send_typed)
# ----------------------------------------------------------------------


def make_typed_network(node_count=2, batching=True):
    kernel, network = make_network(node_count)
    network.pulse_batching = batching
    received = {}
    for index in range(node_count):
        name = f"site-{index}"

        def typed_sink(kind, item, payload, _name=name):
            received.setdefault(_name, []).append((kind, item, payload))

        network.register_node(name, lambda env: None, typed_sink)
    return kernel, network, received


def test_send_typed_delivers_through_typed_sink_and_accounts():
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


def test_send_typed_falls_back_to_envelopes_without_batching():
    kernel, network, __ = make_typed_network(batching=False)
    envelopes = []
    network.register_node("site-1", envelopes.append)
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 50, "req")
    network.send_typed(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, "ao-1", "beat"
    )
    kernel.run()
    assert [env.kind for env in envelopes] == [
        KIND_APP_REQUEST, KIND_DGC_MESSAGE
    ]
    # Paired kinds (DGC) wrap (item, payload); the rest carry the item.
    assert envelopes[0].payload == "req"
    assert envelopes[1].payload == ("ao-1", "beat")


def test_send_typed_falls_back_for_envelope_only_destination():
    kernel, network = make_network()
    network.pulse_batching = True
    typed, envelopes = [], []
    network.register_node(
        "site-0", lambda env: None, lambda *args: typed.append(args)
    )
    network.register_node("site-1", envelopes.append)  # no typed sink
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.run()
    assert typed == []
    assert len(envelopes) == 1 and envelopes[0].payload == "req"


def test_send_typed_respects_partitions():
    plan = FaultPlan()
    kernel, network = make_network(fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node("site-0", lambda env: None, lambda *a: None)
    network.register_node(
        "site-1", lambda env: None, lambda *args: received.append(args)
    )
    plan.partition("site-0", "site-1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    kernel.run()
    assert received == []
    assert plan.dropped_count == 1
    assert network.accountant.total_bytes == 0


def test_send_typed_to_vanished_node_is_dropped():
    kernel, network, received = make_typed_network()
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    network._typed_sinks.pop("site-1")
    kernel.run()
    assert received.get("site-1") is None
    assert network.fault_plan.dropped_count == 1


def test_typed_and_envelope_traffic_share_channel_fifo():
    kernel, network, received = make_typed_network()
    order = []
    network.register_node(
        "site-1",
        lambda env: order.append(("envelope", env.kind)),
        lambda kind, item, payload: order.append(("typed", kind)),
    )
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "first")
    network.send(make_envelope("site-0", "site-1", kind=KIND_DGC_MESSAGE))
    network.send_typed("site-0", "site-1", KIND_APP_REPLY, 10, "third")
    kernel.run()
    assert order == [
        ("typed", KIND_APP_REQUEST),
        ("envelope", KIND_DGC_MESSAGE),
        ("typed", KIND_APP_REPLY),
    ]


# ----------------------------------------------------------------------
# The aggregated columnar core (send_dgc_single / send_dgc_run)
# ----------------------------------------------------------------------


def make_aggregated_network(node_count=3):
    kernel, network = make_network(node_count)
    network.pulse_batching = True
    typed, singles, batches = [], [], []
    for index in range(node_count):
        name = f"site-{index}"

        def typed_sink(kind, item, payload, _name=name):
            typed.append((_name, kind, item, payload))

        def single(target, message, _name=name):
            singles.append((_name, target, message))

        def batch(targets, messages, _name=name):
            batches.append((_name, list(targets), list(messages)))

        network.register_node(
            name, lambda env: None, typed_sink,
            dgc_sinks={
                KIND_DGC_MESSAGE: (single, batch),
                "dgc.response": (single, batch),
            },
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
    # Re-register site-1 sinks that record global arrival order.
    network.register_node(
        "site-1", lambda env: None,
        lambda kind, item, payload: order.append(("typed", item)),
        dgc_sinks={
            KIND_DGC_MESSAGE: (
                lambda t, m: order.append(("single", t)),
                lambda ts, ms: order.extend(("batch", t) for t in ts),
            ),
            "dgc.response": (
                lambda t, m: order.append(("single", t)),
                lambda ts, ms: order.extend(("batch", t) for t in ts),
            ),
        },
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
    # The per-event core: one envelope and one kernel event per message.
    kernel, network, typed, singles, batches = make_aggregated_network()
    network.pulse_batching = False
    envelopes = []
    network.register_node("site-1", envelopes.append)
    network.send_dgc_run(
        "site-0", "site-1", KIND_DGC_MESSAGE, 64, ["x", "y"], ["m", "m"]
    )
    kernel.run()
    assert batches == [] and typed == []
    assert [(env.kind, env.payload) for env in envelopes] == [
        (KIND_DGC_MESSAGE, ("x", "m")), (KIND_DGC_MESSAGE, ("y", "m")),
    ]
    assert network.pulse_event_count == 0


def test_send_dgc_single_respects_partitions_and_counts_drops():
    plan = FaultPlan()
    kernel, network = make_network(2, fault_plan=plan)
    network.pulse_batching = True
    received = []
    network.register_node(
        "site-0", lambda env: None, lambda *a: None,
        dgc_sinks={KIND_DGC_MESSAGE: (lambda t, m: None, lambda ts, ms: None)},
    )
    network.register_node(
        "site-1", lambda env: None, lambda *a: received.append(a),
        dgc_sinks={
            KIND_DGC_MESSAGE: (
                lambda t, m: received.append(t), lambda ts, ms: None
            ),
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
    # Re-register site-1 with a typed sink only: the first registration's
    # single and batch sinks must not survive it.
    network.register_node(
        "site-1", lambda env: None,
        lambda kind, item, payload: typed.append(("new", kind, item, payload)),
    )
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
    table = {"a": lambda message: None}
    network.register_node(
        "site-1", lambda env: None, lambda *a: None,
        dgc_sinks={KIND_DGC_MESSAGE: (lambda t, m: None, lambda ts, ms: None)},
        kind_handlers={KIND_APP_REQUEST: lambda item, payload: None},
        dgc_targets={KIND_DGC_MESSAGE: table},
    )
    assert network._dgc_message_tables["site-1"] is table
    assert "site-1" not in network._dgc_response_sinks
    assert "site-1" not in network._dgc_response_batch_sinks
    # An envelope-only registration removes the typed sink, the kind
    # table and every DGC lane in one step.
    network.register_node("site-1", lambda env: None)
    for lanes in (
        network._typed_sinks, network._kind_tables,
        network._dgc_message_sinks, network._dgc_message_batch_sinks,
        network._dgc_response_sinks, network._dgc_response_batch_sinks,
        network._dgc_message_tables, network._dgc_response_tables,
    ):
        assert "site-1" not in lanes
    assert "site-0" in network._dgc_message_sinks  # other nodes untouched


def test_dgc_single_goes_straight_to_the_lent_target_handler():
    kernel, network, typed, singles, batches = make_aggregated_network(2)
    direct = []
    table = {"a": lambda message: direct.append(("a", message))}
    network.register_node(
        "site-1", lambda env: None, lambda *a: None,
        dgc_sinks={
            KIND_DGC_MESSAGE: (
                lambda t, m: singles.append(("site-1", t, m)),
                lambda ts, ms: batches.append(("site-1", list(ts), list(ms))),
            ),
            "dgc.response": (lambda t, m: None, lambda ts, ms: None),
        },
        dgc_targets={KIND_DGC_MESSAGE: table},
    )
    network.send_dgc_single("site-0", "site-1", KIND_DGC_MESSAGE, 64, "a", "m1")
    network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "req")
    # A table miss (the target is gone) falls to the single sink.
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
