"""Pulse-record recycling never leaks entries across instants.

The aggregated columnar core keeps a free list of per-instant pulse
records (``Network._pulse_pool``): a fired record is cleared and reused
by a later instant.  The properties checked here:

* every staged message is delivered exactly once, in stage order, no
  matter how stage/fire interleave — including re-staging *the same
  instant* from inside a pulse fire (the recycled record must not
  swallow or duplicate the re-staged traffic),
* fault-plan fallback traffic (delay rules force the per-envelope path)
  interleaved with pulse traffic neither leaks into recycled records
  nor disturbs per-channel FIFO,
* recycled records are returned empty (no entries survive the instant
  they were staged for).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import FaultPlan
from repro.net.message import KIND_DGC_MESSAGE, KIND_DGC_RESPONSE
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.kernel import SimKernel

NODES = 3
KINDS = (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE, "app.request")


class HookedList(list):
    """A list whose ``append`` can trigger a side effect — used to stage
    new traffic from inside a pulse fire."""

    hook = None

    def append(self, item):
        list.append(self, item)
        if self.hook is not None:
            self.hook(item)


def build_network(fault_plan=None, received=None):
    kernel = SimKernel()
    network = Network(
        kernel, uniform_topology(NODES, rtt_s=0.01), fault_plan=fault_plan
    )
    network.pulse_batching = True
    if received is None:
        received = []

    def register(name):
        def typed_sink(kind, item, payload, _name=name):
            received.append((_name, kind, item))

        def single(target, message, _name=name, _kind=KIND_DGC_MESSAGE):
            received.append((_name, _kind, target))

        def single_resp(target, message, _name=name):
            received.append((_name, KIND_DGC_RESPONSE, target))

        def batch(targets, messages, _name=name):
            for target in targets:
                received.append((_name, KIND_DGC_MESSAGE, target))

        def batch_resp(targets, messages, _name=name):
            for target in targets:
                received.append((_name, KIND_DGC_RESPONSE, target))

        network.register_node(
            name,
            lambda env: received.append(
                (name, env.kind, env.payload[0]
                 if isinstance(env.payload, tuple) else env.payload)
            ),
            typed_sink,
            dgc_sinks={
                KIND_DGC_MESSAGE: (single, batch),
                KIND_DGC_RESPONSE: (single_resp, batch_resp),
            },
        )

    for index in range(NODES):
        register(f"site-{index}")
    return kernel, network, received


message_strategy = st.tuples(
    st.integers(min_value=0, max_value=NODES - 1),  # source
    st.integers(min_value=0, max_value=NODES - 1),  # dest
    st.sampled_from(KINDS),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(message_strategy, min_size=1, max_size=60))
def test_every_staged_message_is_delivered_exactly_once_in_order(sends):
    kernel, network, received = build_network()
    expected = {}
    for index, (src, dst, kind) in enumerate(sends):
        source, dest = f"site-{src}", f"site-{dst}"
        if kind == "app.request":
            network.send_typed(source, dest, kind, 10, index)
        else:
            network.send_dgc_single(source, dest, kind, 10, index, object())
        expected.setdefault((source, dest), []).append(index)
    kernel.run()
    # Exactly once, and per-channel FIFO (stage order) holds.
    assert sorted(item for __, __, item in received) == sorted(
        range(len(sends))
    )
    seen = {}
    order = {index: pos for pos, (__, __, index) in enumerate(received)}
    for (source, dest), items in expected.items():
        positions = [order[item] for item in items]
        assert positions == sorted(positions), (source, dest)
        seen[(source, dest)] = items
    # The pool holds only empty records.
    assert all(len(record) == 0 for record in network._pulse_pool)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(message_strategy, min_size=1, max_size=30),
    st.lists(message_strategy, min_size=1, max_size=30),
)
def test_restaging_the_same_instant_from_a_fire_does_not_leak(first, second):
    """Stage, fire, and stage the same instant again (from inside the
    pulse fire): the recycled record must not leak either wave."""
    received = HookedList()
    kernel, network, received = build_network(received=received)
    total = len(first) + len(second)
    fired_into = {"done": False}

    def stage(wave, offset):
        for index, (src, dst, kind) in enumerate(wave):
            source, dest = f"site-{src}", f"site-{dst}"
            if kind == "app.request":
                network.send_typed(source, dest, kind, 10, offset + index)
            else:
                network.send_dgc_single(
                    source, dest, kind, 10, offset + index, object()
                )

    # The first delivery stages the second wave — while the first pulse
    # is mid-fire, targeting the same (and nearby) instants.
    def on_delivery(entry):
        if not fired_into["done"]:
            fired_into["done"] = True
            stage(second, len(first))

    received.hook = on_delivery
    stage(first, 0)
    kernel.run()
    delivered = sorted(item for __, __, item in received)
    assert delivered == sorted(range(total))
    assert all(len(record) == 0 for record in network._pulse_pool)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(message_strategy, min_size=1, max_size=40),
    st.integers(min_value=0, max_value=NODES - 1),
    st.integers(min_value=0, max_value=NODES - 1),
)
def test_fault_plan_fallback_interleaving_keeps_fifo_and_pool_clean(
    sends, delayed_src, delayed_dst
):
    """Delay rules force some channels onto the per-envelope path;
    interleaved pulse/fallback traffic still delivers exactly once and
    per-channel FIFO holds (the fallback keeps channel order)."""
    plan = FaultPlan()
    kernel, network, received = build_network(fault_plan=plan)
    plan.add_delay(0.05, kind=None)  # every channel: variable latency
    for index, (src, dst, kind) in enumerate(sends):
        source, dest = f"site-{src}", f"site-{dst}"
        if kind == "app.request":
            network.send_typed(source, dest, kind, 10, index)
        else:
            network.send_dgc_single(source, dest, kind, 10, index, object())
    kernel.run()
    items = [item for __, __, item in received]
    # Envelope fallback wraps paired kinds; unwrap already done in sink.
    assert sorted(items) == sorted(range(len(sends)))
    assert all(len(record) == 0 for record in network._pulse_pool)
