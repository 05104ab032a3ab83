"""Resident state of a waiting request, and the shapes deliveries take.

An activity serves one request at a time from a FIFO queue (paper
Sec. 2), so an all-to-all exchange parks many requests in callee queues
at once.  A request that carries no references waits as the bare
:class:`Request` and its handler receives the shared empty tuple; stubs
deserialized from a request's or a reply's references travel as one
tuple.  A request is a value: a sender's repeated ref-less, data-less,
reply-less ping to one target is one shared object
(``Activity._sent``), so a queue of them costs only its slots.
"""

import gc
import tracemalloc

import pytest

from repro.net.topology import uniform_topology
from repro.runtime.activeobject import Activity
from repro.runtime.behaviors import Behavior, FunctionBehavior, SinkBehavior
from repro.runtime.node import ReplyPayload
from repro.runtime.proxy import Proxy
from repro.runtime.request import Request
from repro.shard.coordinator import build_single_process, run_phases

#: Bytes one queued repeat of an identical ref-less ping may retain:
#: the request is shared, so only the queue slot (8 B, plus a share of
#: the deque's block) is left on CPython 3.11.
PING_BUDGET_BYTES = 16

#: Bytes a ref-less ping to a target of its own may retain: the Request
#: (88 B) and its memo entry (about 21 B at this many targets' dict
#: load) on CPython 3.11 — a request id (28 B) would not fit.
DISTINCT_PING_BUDGET_BYTES = 112
DISTINCT_TARGETS = 5_000


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


def test_pings_to_distinct_targets_fit_the_resident_budget(world):
    """Nothing is shared between targets: each ping is one request plus
    one memo entry, and no per-request id."""
    driver = world.create_driver()
    callees = [
        driver.context.create(Sleeper(), node="site-1")
        for _ in range(DISTINCT_TARGETS)
    ]
    for callee in callees:
        driver.context.call(callee, "sleep")
    world.run_for(1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for callee in callees:
            driver.context.call(callee, "ping")
        world.run_for(1.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(driver._sent) == DISTINCT_TARGETS
    assert retained / DISTINCT_TARGETS <= DISTINCT_PING_BUDGET_BYTES


def queued(activity):
    """The requests waiting in ``activity``'s queue, in order."""
    return [entry if type(entry) is Request else entry[0] for entry in activity._queue]


def test_an_identical_ping_reuses_the_request(world):
    driver, callee, _, activity = sleeping_callee(world)
    for _ in range(3):
        driver.context.call(callee, "ping", payload_bytes=64)
    world.run_for(1.0)
    first, second, third = queued(activity)
    assert first is second is third
    assert driver._sent == {callee.activity_id: first}
    assert (first.method, first.payload_bytes) == ("ping", 64)
    assert world.requests_sent == world.requests_delivered == 4


def test_a_different_method_or_payload_rebuilds_the_request(world):
    driver, callee, _, activity = sleeping_callee(world)
    driver.context.call(callee, "ping", payload_bytes=64)
    driver.context.call(callee, "ping", payload_bytes=128)
    driver.context.call(callee, "pong", payload_bytes=128)
    driver.context.call(callee, "pong", payload_bytes=128)
    world.run_for(1.0)
    small, large, pong, again = queued(activity)
    assert [(r.method, r.payload_bytes) for r in (small, large, pong)] == [
        ("ping", 64), ("ping", 128), ("pong", 128),
    ]
    assert small is not large and large is not pong and pong is again
    # The memo keeps the last request per target, not one per shape.
    assert driver._sent == {callee.activity_id: pong}


@pytest.mark.parametrize(
    "extra",
    [
        lambda driver: dict(refs=[driver.context.self_ref()]),
        lambda driver: dict(data="x"),
        lambda driver: dict(expect_reply=True),
    ],
    ids=["refs", "data", "expect_reply"],
)
def test_refs_data_or_a_reply_never_reuse(world, extra):
    driver, callee, _, activity = sleeping_callee(world)
    driver.context.call(callee, "ping")
    for _ in range(2):
        driver.context.call(callee, "ping", **extra(driver))
    world.run_for(1.0)
    plain, one, two = queued(activity)
    assert len({id(plain), id(one), id(two)}) == 3
    assert driver._sent == {callee.activity_id: plain}


def test_the_memo_is_cleared_at_terminate(world):
    driver, callee, _, activity = sleeping_callee(world)
    other = driver.context.create(SinkBehavior(), name="other")
    driver.context.call(callee, "ping")
    driver.context.call(other, "ping")
    assert set(driver._sent) == {callee.activity_id, other.activity_id}
    driver.terminate("explicit")
    assert driver._sent == {}


def test_ft_queues_at_the_peak_hold_one_request_per_pair(monkeypatch):
    """FT's all-to-all parks every iteration's pings in callee queues
    (each worker stays inside its ``run`` handler): at the peak the
    queues hold several times ``ao_count * (ao_count - 1)`` entries but
    no more distinct requests than sender/target pairs."""
    ao_count = 16
    world, env = build_single_process(
        uniform_topology(4), "nas",
        dict(kernel="FT", ao_count=ao_count, iterations=4,
             iter_time_s=1.0, payload_bytes=2_048),
    )
    peak = {"entries": 0, "distinct": 0}
    real_deliver = Activity.deliver

    def deliver(self, request, proxies):
        real_deliver(self, request, proxies)
        queues = [
            waiting
            for activity in world.live_non_roots()
            for waiting in queued(activity)
        ]
        if len(queues) > peak["entries"]:
            peak["entries"] = len(queues)
            peak["distinct"] = len({id(request) for request in queues})

    monkeypatch.setattr(Activity, "deliver", deliver)
    run_phases(world, env, "nas")
    pairs = ao_count * (ao_count - 1)
    assert peak["entries"] > 2 * pairs
    assert peak["distinct"] <= pairs


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
