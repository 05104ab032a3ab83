"""Unit tests for FIFO channels."""

import pytest

from repro.net.channel import FifoChannel
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


def make_channel() -> FifoChannel:
    return FifoChannel(SimKernel(), "a", "b", 0.25)


def test_delivery_after_latency():
    channel = make_channel()
    assert channel._reserve_slot(0.5) == 0.5


def test_fifo_preserved_under_decreasing_latency():
    channel = make_channel()
    first = channel._reserve_slot(1.0)
    # The second delivery is clamped to the first one's time.
    assert channel._reserve_slot(0.1) == first == 1.0


def test_negative_latency_clamped_to_zero():
    channel = make_channel()
    assert channel._reserve_slot(-5.0) == 0.0


def test_counters_follow_the_kernel_clock():
    kernel = SimKernel()
    channel = FifoChannel(kernel, "a", "b", 0.25)
    reserved = []
    kernel.schedule(
        1.0, lambda: reserved.append(channel._reserve_slot(0.25))
    )
    kernel.run()
    assert reserved == [1.25]
    assert channel.sent_count == 1
    # Delivery events are the network's: it bumps delivered_count.
    assert channel.delivered_count == 0


def test_many_messages_keep_order():
    channel = make_channel()
    deliveries = [
        channel._reserve_slot(latency)
        for latency in [0.9, 0.1, 0.5, 0.3, 0.7, 0.2]
    ]
    assert deliveries == [0.9] * 6
    assert channel.sent_count == 6


# ----------------------------------------------------------------------
# Every copy of the FIFO clamp computes the same thing
# ----------------------------------------------------------------------
#
# The clamp of ``FifoChannel._reserve_slot`` is inlined in the fabric's
# hot lanes (its docstring lists the sites).  One send schedule goes
# through each site; delivery times and channel state must not differ.

#: ``(send time, messages)`` steps; ``"slow"`` sends one message a
#: delay rule holds back by a second, so the bursts behind it are
#: FIFO-clamped to its delivery time until the clock overtakes it.
CLAMPED_SCHEDULE = [(0.0, 1), (0.001, "slow"), (0.002, 3), (0.5, 2), (2.0, 1)]
CLAMPED_DELIVERIES = [0.005] + [1.006] * 6 + [2.005]
NEGATIVE_SCHEDULE = [(0.0, 2), (1.0, 1)]
NEGATIVE_DELIVERIES = [0.0, 0.0, 1.0]

#: ``_reserve_slot`` is reached through the per-message lane: every
#: message of the per-event core.
CLAMP_SITES = ("_reserve_slot", "send_typed", "send_dgc_single",
               "send_dgc_run")


def drive_clamp_site(site, schedule, base_latency=None):
    """Run ``schedule`` through one clamp site of a two-node network;
    return the delivery times in send order and the channel."""
    kernel = SimKernel()
    plan = FaultPlan()
    if any(count == "slow" for __, count in schedule):
        plan.add_delay(1.0, kind=KIND_APP_REPLY)
    network = Network(kernel, uniform_topology(2, rtt_s=0.01), fault_plan=plan)
    network.pulse_batching = site != "_reserve_slot"
    deliveries = []

    def arrived(*_):
        deliveries.append(kernel.now)

    def arrived_batch(targets, messages):
        deliveries.extend([kernel.now] * len(targets))

    # Every lane records arrivals at the destination, the slow
    # message's included.
    for name in ("site-0", "site-1"):
        network.register_node(
            name, {kind: arrived for kind in ALL_KINDS},
            dgc_batch_sinks={
                KIND_DGC_MESSAGE: arrived_batch,
                KIND_DGC_RESPONSE: arrived_batch,
            },
        )
    channel = network._channel("site-0", "site-1")
    if base_latency is not None:
        channel._base_latency = base_latency

    def one():
        if site in ("_reserve_slot", "send_typed"):
            network.send_typed("site-0", "site-1", KIND_APP_REQUEST, 10, "r")
        else:
            network.send_dgc_single(
                "site-0", "site-1", KIND_DGC_MESSAGE, 10, "ao", "beat"
            )

    def step(count):
        if count == "slow":
            network.send_typed("site-0", "site-1", KIND_APP_REPLY, 10, None)
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
    reference = outcomes["_reserve_slot"]
    assert reference[0] == pytest.approx(expected, abs=1e-12)
    assert reference[1] == len(expected)
    for site in CLAMP_SITES[1:]:
        # Exact equality: the copies must agree to the last bit.
        assert outcomes[site] == reference, site
