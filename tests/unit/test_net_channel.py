"""Unit tests for FIFO channels."""

import pytest

from repro.net.channel import FifoChannel
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
)
from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.kernel import SimKernel


def make_envelope(index: int = 0) -> Envelope:
    return Envelope(
        source_node="a",
        dest_node="b",
        kind="app.request",
        size_bytes=10,
        payload=index,
        deliver=lambda payload: None,
    )


def test_delivery_after_latency():
    kernel = SimKernel()
    received = []
    channel = FifoChannel(kernel, "a", "b", lambda env: 0.5)
    channel.send(make_envelope(1), lambda env: received.append(kernel.now))
    kernel.run()
    assert received == [0.5]


def test_fifo_preserved_under_decreasing_latency():
    kernel = SimKernel()
    received = []
    latencies = iter([1.0, 0.1])
    channel = FifoChannel(kernel, "a", "b", lambda env: next(latencies))
    channel.send(make_envelope(1), lambda env: received.append(env.payload))
    channel.send(make_envelope(2), lambda env: received.append(env.payload))
    kernel.run()
    assert received == [1, 2]
    # The second delivery was clamped to the first one's time.
    assert kernel.now == 1.0


def test_negative_latency_clamped_to_zero():
    kernel = SimKernel()
    received = []
    channel = FifoChannel(kernel, "a", "b", lambda env: -5.0)
    channel.send(make_envelope(), lambda env: received.append(kernel.now))
    kernel.run()
    assert received == [0.0]


def test_counters_and_sent_at():
    kernel = SimKernel()
    channel = FifoChannel(kernel, "a", "b", lambda env: 0.25)
    envelope = make_envelope()
    kernel.schedule(1.0, lambda: channel.send(envelope, lambda env: None))
    kernel.run()
    assert channel.sent_count == 1
    assert channel.delivered_count == 1
    assert envelope.sent_at == 1.0


def test_many_messages_keep_order():
    kernel = SimKernel()
    received = []
    rng_latencies = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]
    latencies = iter(rng_latencies)
    channel = FifoChannel(kernel, "a", "b", lambda env: next(latencies))
    for index in range(len(rng_latencies)):
        channel.send(
            make_envelope(index), lambda env: received.append(env.payload)
        )
    kernel.run()
    assert received == list(range(len(rng_latencies)))


def test_stage_send_n_matches_n_individual_stage_sends():
    def build():
        kernel = SimKernel()
        return kernel, FifoChannel(
            kernel, "a", "b", lambda env: 0.25, base_latency=0.25
        )

    __, one = build()
    times_one = [one.stage_send() for __ in range(5)]
    __, many = build()
    time_many = many.stage_send_n(5)
    assert times_one == [time_many] * 5
    assert one.sent_count == many.sent_count == 5
    assert one._last_delivery_time == many._last_delivery_time


# ----------------------------------------------------------------------
# Every copy of the FIFO clamp computes the same thing
# ----------------------------------------------------------------------
#
# The clamp of ``FifoChannel._reserve_slot`` is inlined in the fabric's
# hot lanes (its docstring lists the sites).  One send schedule goes
# through each site; delivery times and channel state must not differ.

#: ``(send time, messages)`` steps; ``"slow"`` sends one envelope a
#: delay rule holds back by a second, so the bursts behind it are
#: FIFO-clamped to its delivery time until the clock overtakes it.
CLAMPED_SCHEDULE = [(0.0, 1), (0.001, "slow"), (0.002, 3), (0.5, 2), (2.0, 1)]
CLAMPED_DELIVERIES = [0.005] + [1.006] * 6 + [2.005]
NEGATIVE_SCHEDULE = [(0.0, 2), (1.0, 1)]
NEGATIVE_DELIVERIES = [0.0, 0.0, 1.0]

CLAMP_SITES = ("send", "stage_send", "stage_send_n", "send_typed",
               "send_dgc_single", "send_dgc_run")


def drive_clamp_site(site, schedule, base_latency=None):
    """Run ``schedule`` through one clamp site of a two-node network;
    return the lane's delivery times in send order and the channel."""
    kernel = SimKernel()
    plan = FaultPlan()
    if any(count == "slow" for __, count in schedule):
        plan.add_delay(1.0, kind=KIND_APP_REPLY)
    network = Network(kernel, uniform_topology(2, rtt_s=0.01), fault_plan=plan)
    network.pulse_batching = True
    deliveries = []

    def arrived(*_):
        deliveries.append(kernel.now)

    def arrived_batch(targets, messages):
        deliveries.extend([kernel.now] * len(targets))

    # The fabric lanes record arrivals at the sinks (the slow envelope's
    # included); the bare channel lanes record the times they reserve.
    bare = site in ("send", "stage_send", "stage_send_n")
    for name in ("site-0", "site-1"):
        network.register_node(
            name, (lambda env: None) if bare else arrived, arrived,
            dgc_sinks={
                KIND_DGC_MESSAGE: (arrived, arrived_batch),
                KIND_DGC_RESPONSE: (arrived, arrived_batch),
            },
        )
    channel = network._channel("site-0", "site-1")
    if base_latency is not None:
        channel._base_latency = base_latency

    def one():
        if site == "send":
            request = Envelope(
                "site-0", "site-1", KIND_APP_REQUEST, 10, "r",
                lambda payload: None,
            )
            deliveries.append(channel.send(request, lambda env: None))
        elif site == "stage_send":
            deliveries.append(channel.stage_send())
        elif site == "stage_send_n":
            deliveries.append(channel.stage_send_n(1))
        elif site == "send_typed":
            network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "r")
        else:
            network.send_dgc_single(
                "site-0", "site-1", KIND_DGC_MESSAGE, 10, "ao", "beat"
            )

    def slow():
        slow_envelope = Envelope(
            "site-0", "site-1", KIND_APP_REPLY, 10, None, lambda payload: None
        )
        network.send(slow_envelope)
        if bare:
            deliveries.append(channel._last_delivery_time)

    def step(count):
        if count == "slow":
            slow()
        elif site == "send_dgc_run":
            # One run per burst: n >= 2 takes the run lane's own inlined
            # clamp (a run of one is handed to the single lane).
            network.send_dgc_run(
                "site-0", "site-1", KIND_DGC_MESSAGE, 10,
                ["ao"] * count, ["beat"] * count,
            )
        else:
            for __ in range(count):
                one()

    for time, count in schedule:
        kernel.schedule(time, step, count)
    kernel.run()
    return deliveries, channel


@pytest.mark.parametrize("schedule, base_latency, expected", [
    (CLAMPED_SCHEDULE, None, CLAMPED_DELIVERIES),
    (NEGATIVE_SCHEDULE, -0.5, NEGATIVE_DELIVERIES),
])
def test_every_clamp_site_agrees(schedule, base_latency, expected):
    outcomes = {}
    for site in CLAMP_SITES:
        deliveries, channel = drive_clamp_site(site, schedule, base_latency)
        outcomes[site] = (
            deliveries, channel.sent_count, channel._last_delivery_time
        )
    reference = outcomes["send"]
    assert reference[0] == pytest.approx(expected, abs=1e-12)
    assert reference[1] == len(expected)
    for site in CLAMP_SITES[1:]:
        # Exact equality: the copies must agree to the last bit.
        assert outcomes[site] == reference, site
