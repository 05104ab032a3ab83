"""Unit tests for the activity service loop (through a real world)."""

import pytest

from repro.errors import RuntimeModelError
from repro.runtime.activeobject import ActivityState
from repro.runtime.behaviors import Behavior, FunctionBehavior, SinkBehavior
from repro.runtime.node import ReplyPayload
from repro.sim.kernel import SimKernel


class Recorder(Behavior):
    def __init__(self):
        self.calls = []

    def do_note(self, ctx, request, proxies):
        self.calls.append((ctx.now, request.data))
        return None

    def do_slow(self, ctx, request, proxies):
        yield ctx.sleep(5.0)
        self.calls.append(("slow-done", ctx.now))
        return "result"

    def do_ask(self, ctx, request, proxies):
        future = ctx.call(
            proxies[0], "slow", expect_reply=True
        )
        value = yield future
        self.calls.append(("reply", value.value))
        return None


@pytest.fixture
def world(make_world):
    return make_world(2, dgc=None)


def test_activity_starts_idle_after_on_start(world):
    activity = world.create_activity(SinkBehavior(), name="a")
    assert activity.state is ActivityState.IDLE
    assert activity.is_idle()


def test_root_is_never_idle(world):
    driver = world.create_driver()
    assert driver.state is ActivityState.IDLE
    assert not driver.is_idle()


def test_requests_served_in_fifo_order(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    for index in range(3):
        driver.context.call(target, "note", data=index)
    world.run_for(1.0)
    assert [data for __, data in behavior.calls] == [0, 1, 2]


def test_busy_while_sleeping(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    driver.context.call(target, "slow")
    world.run_for(1.0)
    activity = world.find_activity(target.activity_id)
    assert activity.state is ActivityState.BUSY
    assert not activity.is_idle()
    world.run_for(10.0)
    assert activity.is_idle()


def test_waiting_on_future_keeps_activity_busy(world):
    """Paper Sec. 4.1: an activity waiting for a future is busy."""
    asker_behavior = Recorder()
    server_behavior = Recorder()
    driver = world.create_driver()
    asker = driver.context.create(asker_behavior, name="asker")
    server = driver.context.create(server_behavior, name="server")
    driver.context.call(asker, "ask", refs=[server])
    world.run_for(1.0)
    asker_activity = world.find_activity(asker.activity_id)
    assert asker_activity.state is ActivityState.BUSY
    world.run_for(10.0)
    assert asker_activity.is_idle()
    assert ("reply", "result") in asker_behavior.calls


def test_reply_payload_controls_reply(world):
    driver = world.create_driver()

    def serve(ctx, request, proxies):
        return ReplyPayload("data", payload_bytes=500)

    target = driver.context.create(FunctionBehavior(serve), name="t")
    future = driver.context.call(target, "anything", expect_reply=True)
    world.run_for(1.0)
    assert future.resolved
    assert future.value == "data"


def test_unknown_method_raises(world):
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    # SinkBehavior accepts everything; use a Behavior without the handler.
    target2 = driver.context.create(Recorder(), name="t2")
    driver.context.call(target2, "missing_method")
    with pytest.raises(RuntimeModelError):
        world.run_for(1.0)


def test_unkept_request_proxies_are_auto_released(world):
    class Inspect(Behavior):
        def do_take(self, ctx, request, proxies):
            return None

    driver = world.create_driver()
    a = driver.context.create(Inspect(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    driver.context.call(a, "take", refs=[b])
    world.run_for(1.0)
    activity = world.find_activity(a.activity_id)
    assert not activity.proxies.holds(b.activity_id)


def test_kept_request_proxies_survive(world):
    class Take(Behavior):
        def do_take(self, ctx, request, proxies):
            ctx.keep(proxies[0])
            return None

    driver = world.create_driver()
    a = driver.context.create(Take(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    driver.context.call(a, "take", refs=[b])
    world.run_for(1.0)
    activity = world.find_activity(a.activity_id)
    assert activity.proxies.holds(b.activity_id)


def test_terminated_activity_ignores_requests(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    activity = world.find_activity(target.activity_id)
    activity.terminate("explicit")
    driver.context.call(target, "note", data=1)
    world.run_for(1.0)
    assert behavior.calls == []
    assert world.nodes[activity.node.name].dead_letter_count == 1


def test_wakeups_ride_the_event_less_kernel_lane(world, monkeypatch):
    """A sleep resume and a local-GC sweep are never cancelled, so they
    are scheduled without an ``Event`` handle; a resume that outlives
    its activity is dropped by the in-flight-handler check instead."""
    handles = []
    schedule_at = SimKernel.schedule_at

    def spy(kernel, *args, **kwargs):
        handles.append(args)
        return schedule_at(kernel, *args, **kwargs)

    monkeypatch.setattr(SimKernel, "schedule_at", spy)
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    activity = world.find_activity(target.activity_id)
    driver.context.call(target, "slow")
    world.run_for(10.0)
    assert [call[0] for call in behavior.calls] == ["slow-done"]
    driver.context.call(target, "slow")
    world.run_for(1.0)
    activity.terminate("explicit")
    driver.context.drop(target)
    world.run_for(10.0)
    assert [call[0] for call in behavior.calls] == ["slow-done"]
    assert driver.node.local_gc.collected_tags == 1
    assert handles == []


def test_terminate_is_idempotent(world):
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    activity = world.find_activity(target.activity_id)
    activity.terminate("explicit")
    activity.terminate("explicit")
    assert world.stats.terminated_explicit == 1


def test_queue_length_visible(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    driver.context.call(target, "slow")
    driver.context.call(target, "note", data=1)
    driver.context.call(target, "note", data=2)
    world.run_for(1.0)
    activity = world.find_activity(target.activity_id)
    assert activity.queue_length == 2


def test_long_queue_of_instant_requests_no_recursion(world):
    """Regression: draining hundreds of queued no-op requests must not
    blow the Python stack (the pump loop is iterative)."""
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    driver.context.call(target, "slow")
    for index in range(2000):
        driver.context.call(target, "note", data=index)
    world.run_for(30.0)
    assert len(behavior.calls) == 2001


def test_on_idle_listener_fires_on_transition(world):
    driver = world.create_driver()
    target = driver.context.create(Recorder(), name="t")
    activity = world.find_activity(target.activity_id)
    transitions = []
    activity.on_idle(lambda a: transitions.append(world.kernel.now))
    driver.context.call(target, "slow")
    world.run_for(10.0)
    assert len(transitions) == 1
