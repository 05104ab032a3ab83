"""Unit tests for the per-activity DGC engine (clock occasions, doomed
state, message counters) on minimal worlds."""

import pytest

from repro.core import events
from repro.core.config import DgcConfig
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.workloads.app import Peer, link


@pytest.fixture
def world(make_world):
    return make_world(2)


def get(world, proxy):
    return world.find_activity(proxy.activity_id)


def test_every_activity_gets_a_collector(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="a")
    assert get(world, proxy).collector is not None
    assert driver.collector is not None


@pytest.mark.parametrize("aggregation", ["per-event", "exact", "relaxed"])
def test_only_the_per_event_core_runs_without_the_steady_state_lane(
    make_world, fast_dgc, aggregation
):
    """``aggregation`` alone decides: the reference core takes
    Algorithms 3/4 for every delivery on a per-event timer, the batched
    cores get the receive diet, the touch-write skip and the wheel."""
    world = make_world(2, dgc=fast_dgc.with_overrides(aggregation=aggregation))
    collector = world.create_driver().collector
    batched = aggregation != "per-event"
    assert collector._receive_diet is batched
    assert collector.state.referencers.touch_skip is batched
    # A wheel-scheduled timer holds a beat handle, a per-event one its
    # own kernel event.
    assert (collector._timer._handle is not None) is batched
    assert (collector._timer._event is None) is batched
    assert world.network.pulse_batching is batched


def test_clock_increments_on_becoming_idle(world):
    class Work(Behavior):
        def do_work(self, ctx, request, proxies):
            yield ctx.sleep(1.0)

    driver = world.create_driver()
    proxy = driver.context.create(Work(), name="a")
    collector = get(world, proxy).collector
    value_before = collector.clock.value
    driver.context.call(proxy, "work")
    world.run_for(3.0)
    assert collector.clock.value == value_before + 1
    assert collector.clock.owner == proxy.activity_id


def test_deserialization_creates_referenced_record(world):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(0.5)
    collector = get(world, a).collector
    assert b.activity_id in collector.state.referenced


def test_needs_send_satisfied_by_first_broadcast(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(0.2)
    record = get(world, a).collector.state.referenced.get(b.activity_id)
    world.run_for(2 * fast_dgc.ttb)
    assert record.needs_send is False
    assert record.messages_sent >= 1


def test_referencer_learned_from_heartbeat(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(2 * fast_dgc.ttb)
    b_collector = get(world, b).collector
    assert a.activity_id in b_collector.state.referencers


def test_clock_increment_on_referenced_loss(world):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(3.0)
    a_collector = get(world, a).collector
    value_before = a_collector.clock.value
    driver.context.call(a, "drop", data=[b.activity_id])
    world.run_for(4.0)
    assert b.activity_id not in a_collector.state.referenced
    increments = world.tracer.events(
        kind=events.DGC_CLOCK_INCREMENT, subject=a.activity_id
    )
    reasons = [event.details["reason"] for event in increments]
    assert "referenced_loss" in reasons
    assert a_collector.clock.value > value_before


def test_clock_increment_on_referencer_loss(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(3 * fast_dgc.ttb)
    b_collector = get(world, b).collector
    # a vanishes without protocol (explicit termination).
    get(world, a).terminate("explicit")
    world.run_for(3 * fast_dgc.tta)
    increments = world.tracer.events(
        kind=events.DGC_CLOCK_INCREMENT, subject=b.activity_id
    )
    reasons = [event.details["reason"] for event in increments]
    assert "referencer_loss" in reasons
    assert a.activity_id not in b_collector.state.referencers


def test_doomed_activity_stops_heartbeating(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    link(driver, a, a, key="self")
    world.run_for(1.0)
    driver.context.drop(a)
    a_collector = get(world, a).collector

    # Wait until it becomes doomed (1-cycle consensus with itself).
    deadline = 30 * fast_dgc.ttb
    world.kernel.run_until_quiescent(
        lambda: a_collector.doomed or get(world, a) is None, 0.5, deadline
    )
    assert a_collector.doomed
    sent_at_doom = a_collector.messages_sent
    world.run_for(fast_dgc.ttb * 2)
    assert a_collector.messages_sent == sent_at_doom


def test_doomed_terminates_after_tta(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    link(driver, a, a, key="self")
    world.run_for(1.0)
    driver.context.drop(a)
    a_collector = get(world, a).collector
    world.kernel.run_until_quiescent(
        lambda: a_collector.doomed, 0.5, 30 * fast_dgc.ttb
    )
    world.kernel.run_until_quiescent(
        lambda: get(world, a) is None, 0.2, 3 * fast_dgc.tta
    )
    doomed_event = world.tracer.last(events.DGC_DOOMED)
    terminated_event = world.tracer.last(events.ACTIVITY_TERMINATED)
    assert terminated_event.details["reason"] == "cyclic"
    assert terminated_event.time == pytest.approx(
        doomed_event.time + fast_dgc.tta
    )


def test_collector_counters_increase(world, fast_dgc):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(4 * fast_dgc.ttb)
    a_collector = get(world, a).collector
    b_collector = get(world, b).collector
    assert a_collector.messages_sent >= 2
    assert b_collector.messages_received >= 2
    assert a_collector.responses_received >= 2


def test_start_jitter_desynchronises_beats(make_world):
    config = DgcConfig(ttb=1.0, tta=3.0, start_jitter=True)
    world = make_world(2, dgc=config)
    driver = world.create_driver()
    proxies = [driver.context.create(Peer(), name=f"p{i}") for i in range(8)]
    delays = set()
    for proxy in proxies:
        collector = world.find_activity(proxy.activity_id).collector
        delays.add(round(collector._timer.next_fire_time, 6))
    assert len(delays) > 1


def test_no_start_jitter_when_disabled(make_world):
    config = DgcConfig(ttb=1.0, tta=3.0, start_jitter=False)
    world = make_world(2, dgc=config)
    driver = world.create_driver()
    proxies = [driver.context.create(Peer(), name=f"p{i}") for i in range(4)]
    delays = {
        world.find_activity(p.activity_id).collector._timer.next_fire_time
        for p in proxies
    }
    assert len(delays) == 1
