"""Unit tests for node-level dispatch, replies and dead letters."""

import pytest

from repro.errors import NoSuchActivityError, RuntimeModelError
from repro.net.kinds import KIND_APP_REPLY, KIND_APP_REQUEST
from repro.net.message import WireSizeModel
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.node import ReplyPayload


class Echo(Behavior):
    def do_echo(self, ctx, request, proxies):
        return request.data


@pytest.fixture
def world(make_world):
    return make_world(3, dgc=None)


def test_round_robin_placement(world):
    driver = world.create_driver()  # takes the first slot
    proxies = [
        driver.context.create(SinkBehavior(), name=f"p{i}") for i in range(3)
    ]
    nodes = [proxy.node for proxy in proxies]
    assert nodes == ["site-1", "site-2", "site-0"]


def test_explicit_placement(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), node="site-2", name="x")
    assert proxy.node == "site-2"


def test_get_activity_raises_for_unknown(world):
    node = world.nodes["site-0"]
    with pytest.raises(NoSuchActivityError):
        node.get_activity("ao-nope")


def test_cross_node_call_reply_roundtrip(world):
    driver = world.create_driver()
    target = driver.context.create(Echo(), node="site-2", name="echo")
    future = driver.context.call(
        target, "echo", data="hello", expect_reply=True
    )
    world.run_for(1.0)
    assert future.resolved
    assert future.value == "hello"


def test_reply_to_terminated_caller_is_dropped(world):
    class SlowEcho(Behavior):
        def do_echo(self, ctx, request, proxies):
            yield ctx.sleep(2.0)
            return request.data

    driver = world.create_driver()
    caller = driver.context.create(SinkBehavior(), name="caller")
    caller_activity = world.find_activity(caller.activity_id)
    target = driver.context.create(SlowEcho(), node="site-2", name="echo")
    target_proxy = caller_activity.node.deserialize_ref(
        caller_activity, target.ref
    )
    caller_activity.context.call(
        target_proxy, "echo", data="x", expect_reply=True
    )
    world.run_for(1.0)
    caller_activity.terminate("explicit")
    world.run_for(5.0)
    # Reply arrived after the caller died: dropped, counted, no crash.
    assert world.nodes[caller_activity.node.name].dead_letter_count >= 1


def test_calling_through_released_proxy_rejected(world):
    driver = world.create_driver()
    target = driver.context.create(SinkBehavior(), name="t")
    driver.context.drop(target)
    with pytest.raises(RuntimeModelError):
        driver.context.call(target, "anything")


def test_sending_released_proxy_as_ref_rejected(world):
    driver = world.create_driver()
    a = driver.context.create(SinkBehavior(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    driver.context.drop(b)
    with pytest.raises(RuntimeModelError):
        driver.context.call(a, "hold", refs=[b])


def test_dgc_message_to_missing_activity_is_silently_dropped(world):
    from repro.runtime.proxy import RemoteRef

    node = world.nodes["site-0"]
    node.send_dgc_message(RemoteRef("ao-ghost", "site-1"), object())
    world.run_for(1.0)  # no exception


def test_request_refs_are_deserialized_for_receiver(world):
    held = {}

    class Keep(Behavior):
        def do_take(self, ctx, request, proxies):
            held["proxy"] = ctx.keep(proxies[0])
            return None

    driver = world.create_driver()
    receiver = driver.context.create(Keep(), node="site-1", name="r")
    passed = driver.context.create(SinkBehavior(), node="site-2", name="p")
    driver.context.call(receiver, "take", refs=[passed])
    world.run_for(1.0)
    receiver_activity = world.find_activity(receiver.activity_id)
    assert receiver_activity.proxies.holds(passed.activity_id)
    assert held["proxy"].node == "site-2"


@pytest.mark.parametrize("ref_count", [0, 1, 2, 3])
def test_app_message_bytes_follow_the_size_model(make_world, ref_count):
    """The node prices requests and replies inline; the accountant must
    read exactly what :class:`WireSizeModel` says (odd sizes, so a
    swapped term shows)."""
    sizes = WireSizeModel(
        request_header_bytes=91, reply_header_bytes=67, reference_bytes=129,
    )
    world = make_world(3, dgc=None, wire_sizes=sizes)

    class Return(Behavior):
        def do_take(self, ctx, request, proxies):
            return ReplyPayload("ok", payload_bytes=33, refs=proxies)

    driver = world.create_driver(node="site-0")
    target = driver.context.create(Return(), node="site-1", name="t")
    refs = [
        driver.context.create(SinkBehavior(), node="site-2", name=f"r{i}")
        for i in range(ref_count)
    ]
    future = driver.context.call(
        target, "take", payload_bytes=500, refs=refs, expect_reply=True
    )
    assert len(world.inflight_pinned()) == 1 + ref_count
    world.run_for(1.0)
    assert future.value == "ok" and len(future.refs) == ref_count
    summary = world.accountant.summary()
    for kind, size in (
        (KIND_APP_REQUEST, sizes.request_size(500, ref_count)),
        (KIND_APP_REPLY, sizes.reply_size(33, ref_count)),
    ):
        assert (summary[kind].messages, summary[kind].bytes) == (1, size)
    assert world.requests_sent == world.requests_delivered == 1
    assert world.replies_sent == world.replies_delivered == 1
    assert not world.inflight_pinned()
