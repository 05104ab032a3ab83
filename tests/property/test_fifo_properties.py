"""Property-based tests: per-pair FIFO delivery under arbitrary latency
sequences (the ordering guarantee of paper Sec. 3.2).

Each message gets its own latency from a delay rule whose item
predicate matches only that message, so every send rides the fabric's
per-message lane behind the channel's FIFO clamp, on both cores."""

from hypothesis import given, strategies as st

from repro.net.faults import FaultPlan
from repro.net.kinds import ALL_KINDS, KIND_APP_REQUEST
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.kernel import SimKernel


def fabric(latencies, batching):
    """A two-node network whose ``site-0 -> site-1`` message ``index``
    takes ``latencies[index]`` on top of a zero base latency; returns
    the kernel, the network and the ``(item, arrival)`` log."""
    kernel = SimKernel()
    plan = FaultPlan()
    for index, latency in enumerate(latencies):
        plan.add_delay(
            latency, predicate=lambda item, _index=index: item[0] == _index
        )
    network = Network(kernel, uniform_topology(2, rtt_s=0.0), fault_plan=plan)
    network.pulse_batching = batching
    received = []
    network.register_node(
        "site-0", {kind: lambda item, payload: None for kind in ALL_KINDS}
    )
    network.register_node("site-1", {
        kind: lambda item, payload: received.append((item, kernel.now))
        for kind in ALL_KINDS
    })
    return kernel, network, received


def send(kernel, network, index):
    """Send message ``index``, stamped with its send time."""
    network.send_typed(
        "site-0", "site-1", KIND_APP_REQUEST, 1, (index, kernel.now)
    )


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_fifo_order_for_any_latency_sequence(latencies):
    for batching in (False, True):
        kernel, network, received = fabric(latencies, batching)
        for index in range(len(latencies)):
            send(kernel, network, index)
        kernel.run()
        assert [item[0] for item, __ in received] == list(
            range(len(latencies))
        )


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fifo_order_with_interleaved_send_times(items):
    """Sends spread over simulated time still deliver in send order."""
    for batching in (False, True):
        kernel, network, received = fabric(
            [latency for __, latency in items], batching
        )
        send_time = 0.0
        for index, (gap, __) in enumerate(items):
            send_time += gap
            kernel.schedule_at(send_time, send, kernel, network, index)
        kernel.run()
        assert [item[0] for item, __ in received] == list(range(len(items)))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_delivery_never_before_send(latencies):
    for batching in (False, True):
        kernel, network, received = fabric(latencies, batching)
        for index in range(len(latencies)):
            send(kernel, network, index)
        kernel.run()
        assert len(received) == len(latencies)
        for (__, sent_at), delivered_at in received:
            assert delivered_at >= sent_at
