"""Unit tests for the activity service loop (through a real world)."""

import gc
import typing
import weakref
from collections.abc import Generator

import pytest

from repro.errors import RuntimeModelError
from repro.runtime.activeobject import ActivityState, Sleep
from repro.runtime.behaviors import Behavior, FunctionBehavior, SinkBehavior
from repro.runtime.future import Future
from repro.runtime.node import ReplyPayload
from repro.runtime.request import Request
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


def test_a_lost_kept_stub_does_not_shield_a_later_one(world):
    """``keep`` holds the stub itself, not its address: a kept stub the
    behavior loses without ``drop`` must not make a later stub allocated
    at the same address look kept (it would never be auto-released, a
    leaked edge the DGC could not collect)."""

    class Take(Behavior):
        def do_keep(self, ctx, request, proxies):
            ctx.keep(proxies[0])  # then lost: stored nowhere

        def do_use(self, ctx, request, proxies):
            return None

    driver = world.create_driver()
    a = driver.context.create(Take(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    activity = world.find_activity(a.activity_id)
    rounds = 50
    for _ in range(rounds):
        driver.context.call(a, "keep", refs=[b])
        driver.context.call(a, "use", refs=[b])
    world.run_for(1.0)
    assert activity.requests_served == 2 * rounds
    # Only the kept stubs are still live: every "use" stub was released.
    assert activity.proxies.live_count(b.activity_id) == rounds


class SendOnly:
    """A generator only by registration: it has ``send`` (all the
    service loop calls) but not the protocol ``__subclasshook__`` checks."""

    def send(self, value):
        raise StopIteration("stepped")


Generator.register(SendOnly)


def _stepped_generator(ctx):
    yield ctx.sleep(0.5)
    return "stepped"


@pytest.mark.parametrize(
    "make_result, stepped",
    [
        (lambda ctx: None, False),
        (lambda ctx: 7, False),
        (lambda ctx: [1, 2], False),
        (lambda ctx: iter((1, 2)), False),
        (_stepped_generator, True),
        (lambda ctx: SendOnly(), True),
    ],
    ids=["none", "value", "list", "iterator", "generator", "registered"],
)
def test_handler_result_dispatch(world, make_result, stepped):
    """A generator, real or registered with ``collections.abc.Generator``
    (which ``typing.Generator`` delegates to), is stepped and its return
    value is the reply; anything else, iterators included, finishes at
    once and is the reply itself."""
    returned = []

    def serve(ctx, request, proxies):
        result = make_result(ctx)
        returned.append(result)
        return result

    driver = world.create_driver()
    target = driver.context.create(FunctionBehavior(serve), name="t")
    activity = world.find_activity(target.activity_id)
    future = driver.context.call(target, "any", expect_reply=True)
    world.run_for(1.0)
    assert future.resolved and activity.is_idle()
    (result,) = returned
    assert isinstance(result, typing.Generator) is stepped
    if stepped:
        assert future.value == "stepped"
    else:
        assert future.value is result


class LateFuture(Future):
    """A :class:`Future` subclass: ``_step`` must serve it through the
    ``isinstance`` fallback, as it serves a plain future."""

    __slots__ = ()


class LongSleep(Sleep):
    __slots__ = ()


def test_step_serves_yielded_subclasses_of_future_and_sleep(world):
    pending = LateFuture()
    trace = []

    def serve(ctx, request, proxies):
        start = ctx.now
        yield LongSleep(2.0)
        trace.append(("slept", ctx.now - start))
        ready = yield LateFuture("now")
        trace.append(("ready", ready.value))
        later = yield pending
        trace.append(("later", later.value))
        return "done"

    driver = world.create_driver()
    target = driver.context.create(FunctionBehavior(serve), name="t")
    activity = world.find_activity(target.activity_id)
    future = driver.context.call(target, "any", expect_reply=True)
    world.run_for(5.0)
    assert trace == [("slept", 2.0), ("ready", "now")]
    assert activity.state is ActivityState.BUSY
    pending.resolve("late")
    world.run_for(1.0)
    assert trace[-1] == ("later", "late")
    assert future.value == "done" and activity.is_idle()


def test_step_rejects_an_unsupported_yield(world):
    def serve(ctx, request, proxies):
        yield "neither a Sleep nor a Future"

    driver = world.create_driver()
    target = driver.context.create(FunctionBehavior(serve), name="t")
    driver.context.call(target, "any")
    with pytest.raises(RuntimeModelError, match="unsupported"):
        world.run_for(1.0)


# ----------------------------------------------------------------------
# The context verbs: their engines, bound on first use
# ----------------------------------------------------------------------


def test_context_verbs_are_bound_on_first_use_and_kept(world):
    driver = world.create_driver()
    ctx = driver.context
    assert not {"lookup", "bind", "unbind", "drop", "acquire"} & set(vars(ctx))
    assert ctx.drop == driver.release_proxy
    assert ctx.lookup is ctx.lookup
    assert set(vars(ctx)) >= {"drop", "lookup"}
    assert ctx.sleep is Sleep
    assert "sleep" not in vars(ctx)
    # The registry verbs are one engine bound positionally: a keyword
    # partial would merge its keywords on every call.
    assert ctx.bind.func == ctx.unbind.func == world.registry.bind_from
    assert ctx.bind.args == ctx.unbind.args == (driver.node, driver)
    assert not any(
        getattr(ctx, verb).keywords
        for verb in ("call", "lookup", "bind", "unbind", "acquire")
    )


def test_drop_of_a_released_stub_still_raises(world):
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    driver.context.drop(target)
    assert not driver.context.holds(target.activity_id)
    with pytest.raises(RuntimeModelError, match="released twice"):
        driver.context.drop(target)


def test_an_unknown_context_attribute_still_raises_attribute_error(world):
    ctx = world.create_driver().context
    with pytest.raises(AttributeError, match="no_such_verb"):
        ctx.no_such_verb
    assert not hasattr(ctx, "release_proxy")
    assert "no_such_verb" not in vars(ctx)


def test_a_collected_activity_takes_its_random_stream_with_it(make_world):
    class Drawer(Behavior):
        def on_start(self, ctx):
            ctx.rng.random()
            self.stream = weakref.ref(ctx.rng)

    world = make_world(2)
    driver = world.create_driver()
    behavior = Drawer()
    target = driver.context.create(behavior, name="drawer")
    driver.context.drop(target)
    assert world.run_until_collected(30.0)
    assert world.find_activity(target.activity_id) is None
    del target
    gc.collect()
    assert behavior.stream() is None
    assert not [
        name for name in world.rng_registry._streams
        if name.startswith("activity:")
    ]


def test_call_is_the_send_engine_bound_on_first_use(world):
    driver = world.create_driver()
    ctx = driver.context
    assert "call" not in vars(ctx)
    call = ctx.call
    assert ctx.call is call and vars(ctx)["call"] is call
    assert call.func == driver.node.send_request
    assert call.args == (driver,) and not call.keywords


# ----------------------------------------------------------------------
# The service loop: served in the delivering frame, drained in order
# ----------------------------------------------------------------------


def test_a_request_to_an_idle_activity_is_served_before_deliver_returns(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    activity = world.find_activity(target.activity_id)
    transitions = []
    activity.on_idle(transitions.append)
    request = Request("note", driver.id, activity.id, data="now")
    activity.deliver(request, ())
    assert behavior.calls == [(0.0, "now")]
    assert activity.requests_served == 1
    assert activity.queue_length == 0
    assert activity.is_idle()
    assert transitions == [activity]


def test_requests_behind_a_suspended_handler_are_served_in_order(world):
    behavior = Recorder()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    activity = world.find_activity(target.activity_id)
    transitions = []
    activity.on_idle(lambda a: transitions.append(world.kernel.now))
    driver.context.call(target, "slow")
    world.run_for(1.0)
    for index in range(5):
        driver.context.call(target, "note", data=index)
    world.run_for(1.0)
    assert activity.queue_length == 5
    assert behavior.calls == []
    world.run_for(10.0)
    done_at = behavior.calls[0][1]
    assert behavior.calls == [("slow-done", done_at)] + [
        (done_at, index) for index in range(5)
    ]
    assert activity.requests_served == 6
    assert transitions == [done_at]


def test_every_method_reaches_an_overridden_handle(world):
    class Catchall(Behavior):
        def __init__(self):
            self.methods = []

        def handle(self, ctx, request, proxies):
            self.methods.append(request.method)

        def do_named(self, ctx, request, proxies):  # shadowed by handle
            raise AssertionError("do_named reached past handle")

    behavior = Catchall()
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    for method in ("named", "other", "named", "third"):
        driver.context.call(target, method)
    world.run_for(1.0)
    assert behavior.methods == ["named", "other", "named", "third"]


def test_an_unknown_method_names_the_class_and_the_method(world):
    driver = world.create_driver()
    for name in ("t1", "t2"):  # raised for each request, not only the first
        target = driver.context.create(Recorder(), name=name)
        driver.context.call(target, "missing_method")
        with pytest.raises(
            RuntimeModelError, match=r"Recorder .*'missing_method'"
        ):
            world.run_for(1.0)


class Suicidal(Recorder):
    def __init__(self, world):
        super().__init__()
        self.world = world

    def do_die(self, ctx, request, proxies):
        self.world.find_activity(ctx.id).terminate("explicit")
        return "too late"

    def do_die_later(self, ctx, request, proxies):
        yield ctx.sleep(1.0)
        self.world.find_activity(ctx.id).terminate("explicit")
        return "too late"


@pytest.mark.parametrize("method", ["die", "die_later"])
def test_a_handler_that_ends_its_activity_answers_nothing(world, method):
    behavior = Suicidal(world)
    driver = world.create_driver()
    target = driver.context.create(behavior, name="t")
    activity = world.find_activity(target.activity_id)
    driver.context.call(target, "slow")
    world.run_for(1.0)
    future = driver.context.call(target, method, expect_reply=True)
    driver.context.call(target, "note", data=1, refs=[target])
    driver.context.call(target, "note", data=2)
    world.run_for(1.0)
    assert activity.queue_length == 3
    world.run_for(10.0)
    assert activity.terminated
    assert not future.resolved
    assert world.replies_sent == 0
    assert [call[0] for call in behavior.calls] == ["slow-done"]
    assert activity.requests_served == 2
    assert activity.queue_length == 0
