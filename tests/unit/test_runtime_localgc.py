"""Unit tests for the simulated local GC (tag-death notification)."""

import pytest

from repro.runtime.behaviors import Behavior, SinkBehavior


class CollectorSpy:
    """Stands in for a DGC collector; records dropped tags."""

    def __init__(self):
        self.dropped = []

    def on_reference_dropped(self, tag):
        self.dropped.append(tag)

    def on_reference_deserialized(self, proxy):
        pass

    def on_became_idle(self):
        pass

    def on_terminated(self):
        pass


def test_tag_death_notifies_collector(make_world):
    world = make_world(1, dgc=None)
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    spy = CollectorSpy()
    driver.collector = spy
    driver.context.drop(target)
    world.run_for(1.0)
    assert len(spy.dropped) == 1
    assert spy.dropped[0].target == target.activity_id


def test_no_notification_while_other_stubs_alive(make_world):
    world = make_world(1, dgc=None)
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    duplicate = driver.context.acquire(target.ref)
    spy = CollectorSpy()
    driver.collector = spy
    driver.context.drop(target)
    world.run_for(1.0)
    assert spy.dropped == []
    driver.context.drop(duplicate)
    world.run_for(1.0)
    assert len(spy.dropped) == 1


def test_gc_delay_defers_notification(make_world):
    world = make_world(1, dgc=None, gc_delay=5.0)
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    spy = CollectorSpy()
    driver.collector = spy
    local_gc = driver.node.local_gc
    scheduled = world.kernel.scheduled_count
    driver.context.drop(target)
    # A holder with a collector still waits for its sweep.
    assert world.kernel.scheduled_count == scheduled + 1
    world.run_for(1.0)
    assert spy.dropped == [] and local_gc.collected_tags == 0
    world.run_for(10.0)
    assert len(spy.dropped) == 1 and local_gc.collected_tags == 1


def test_notifications_for_terminated_holder_are_skipped(make_world):
    world = make_world(1, dgc=None, gc_delay=2.0)
    driver = world.create_driver()
    holder = driver.context.create(SinkBehavior(), name="h")
    target = driver.context.create(SinkBehavior(), name="t")
    holder_activity = world.find_activity(holder.activity_id)
    proxy = holder_activity.node.deserialize_ref(holder_activity, target.ref)
    spy = CollectorSpy()
    holder_activity.collector = spy
    holder_activity.release_proxy(proxy)
    holder_activity.terminate("explicit")
    world.run_for(5.0)
    assert spy.dropped == []


def test_collected_tags_counter(make_world):
    world = make_world(1, dgc=None)
    driver = world.create_driver()
    targets = [
        driver.context.create(SinkBehavior(), name=f"t{i}") for i in range(3)
    ]
    for proxy in targets:
        driver.context.drop(proxy)
    world.run_for(1.0)
    assert world.nodes[driver.node.name].local_gc.collected_tags == 3


def test_collector_less_drop_schedules_no_event(make_world):
    """A holder without a DGC collector has nobody to notify: its dead tag
    is counted at once and no sweep reaches the kernel."""
    world = make_world(1, dgc=None, gc_delay=5.0)
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    assert driver.collector is None
    local_gc = driver.node.local_gc
    scheduled = world.kernel.scheduled_count
    driver.context.drop(target)
    assert world.kernel.scheduled_count == scheduled
    assert world.kernel.pending_count == 0
    assert local_gc.collected_tags == 1
