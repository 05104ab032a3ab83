"""Resident state of a waiting request, and the shapes deliveries take.

An activity serves one request at a time from a FIFO queue (paper
Sec. 2), so an all-to-all exchange parks many requests in callee queues
at once.  A request that carries no references waits as the bare
:class:`Request` and its handler receives the shared empty tuple; stubs
deserialized from a request's or a reply's references travel as one
tuple.
"""

import gc
import tracemalloc

import pytest

from repro.runtime.behaviors import Behavior, FunctionBehavior, SinkBehavior
from repro.runtime.node import ReplyPayload
from repro.runtime.proxy import Proxy
from repro.runtime.request import Request

#: Bytes one queued ref-less ping may retain: the Request (96 B), its id
#: (28 B) and the queue slot (8 B) come to 132 B on CPython 3.11.
PING_BUDGET_BYTES = 140


class Sleeper(Behavior):
    """Sleeps through its first request; records what later ones get."""

    def __init__(self):
        self.seen = []

    def do_sleep(self, ctx, request, proxies):
        yield ctx.sleep(1e6)

    def do_ping(self, ctx, request, proxies):
        self.seen.append(proxies)


@pytest.fixture
def world(make_world):
    return make_world(2, dgc=None)


def sleeping_callee(world):
    driver = world.create_driver()
    behavior = Sleeper()
    callee = driver.context.create(behavior, node="site-1", name="callee")
    driver.context.call(callee, "sleep")
    world.run_for(1.0)
    return driver, callee, behavior, world.find_activity(callee.activity_id)


def test_queued_ref_less_pings_fit_the_resident_budget(world):
    driver, callee, _, activity = sleeping_callee(world)
    count = 20_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(count):
            driver.context.call(callee, "ping")
        world.run_for(1.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert activity.queue_length == count
    assert retained / count <= PING_BUDGET_BYTES


def test_a_ref_less_request_waits_as_the_request_itself(world):
    driver, callee, _, activity = sleeping_callee(world)
    target = driver.context.create(SinkBehavior(), name="target")
    driver.context.call(callee, "ping", data="bare")
    driver.context.call(callee, "ping", data="with-refs", refs=[target])
    world.run_for(1.0)
    bare, with_refs = activity._queue
    assert type(bare) is Request and bare.data == "bare"
    request, proxies = with_refs
    assert type(request) is Request and request.data == "with-refs"
    assert type(proxies) is tuple
    assert [proxy.activity_id for proxy in proxies] == [target.activity_id]


def test_handlers_get_the_empty_tuple_or_a_tuple_of_stubs(world):
    driver = world.create_driver()
    behavior = Sleeper()
    callee = driver.context.create(behavior, node="site-1", name="callee")
    first = driver.context.create(SinkBehavior(), name="first")
    second = driver.context.create(SinkBehavior(), name="second")
    driver.context.call(callee, "ping")
    driver.context.call(callee, "ping", refs=[first, second, first])
    world.run_for(1.0)
    bare, carried = behavior.seen
    assert type(bare) is tuple and bare == ()
    assert type(carried) is tuple
    assert all(type(proxy) is Proxy for proxy in carried)
    assert [proxy.activity_id for proxy in carried] == [
        first.activity_id, second.activity_id, first.activity_id,
    ]
    # Not kept by the handler: every delivered stub was auto-released.
    assert all(proxy.released for proxy in carried)
    activity = world.find_activity(callee.activity_id)
    assert not activity.proxies.holds(first.activity_id)


def test_a_reply_with_refs_resolves_with_the_deserialized_stubs(world):
    driver = world.create_driver()
    first = driver.context.create(SinkBehavior(), name="first")
    second = driver.context.create(SinkBehavior(), name="second")
    handed = [first.ref, second.ref, first.ref]

    def serve(ctx, request, proxies):
        if request.method == "refs":
            return ReplyPayload("data", refs=handed)
        return "plain"

    server = driver.context.create(FunctionBehavior(serve), node="site-1", name="s")
    with_refs = driver.context.call(server, "refs", expect_reply=True)
    plain = driver.context.call(server, "plain", expect_reply=True)
    world.run_for(1.0)
    assert with_refs.value == "data"
    stubs = with_refs.refs
    assert type(stubs) is tuple
    assert [stub.ref for stub in stubs] == handed
    # Acquired in the caller's table, in order, sharing one tag per target.
    assert all(stub.tag.holder == driver.id and not stub.released for stub in stubs)
    assert stubs[0].tag is stubs[2].tag is first.tag
    assert driver.proxies.live_count(first.activity_id) == 3
    assert driver.proxies.live_count(second.activity_id) == 2
    assert plain.value == "plain" and plain.refs == ()
