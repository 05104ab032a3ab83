"""The fused typed-message lane: its frame budget and its accounting.

Two deterministic gates, no timing:

* **Frame budget** — on the production core, once the routes are cached,
  a cross-node ``registry.lookup`` round trip costs the fabric one
  Python frame per send (:meth:`Network.send_typed`) and one per
  delivery instant (the pulse firing); nothing runs in ``net/channel.py``,
  ``net/accounting.py`` or ``net/message.py`` — the fire loop calls the
  kind handlers itself, and for the ``registry.*`` kinds those are the
  bound methods of the node's :class:`RegistryShard`.  Above the fabric the
  whole resolve (``ctx.lookup`` to resolved future) is at most seven
  frames over all of ``runtime/*.py``, none of them the context's (its
  verbs are their engines, bound once), and a delivered replica push
  or invalidation is one.  An application request is pinned frame by
  frame the same way: the send is ``Node.send_request`` (``ctx.call``
  is its partial), the delivery ``Node._on_request`` into the service
  loop, which serves the request in the delivering frame, with no world
  bookkeeping frame, no size-model call and, for a handler that returns
  ``None``, no ``typing`` or ``abc`` frame.  A naming client's burst is
  pinned the same way: the stub is acquired and released in one frame
  each, and the name pick enters no ``random.py`` frame.  The per-event
  core enters the same handlers through the fabric's per-message lane.
  On the write side under beat coherence, staging a ``replicated``
  update costs the same frames at any node count and nothing in the
  fabric, and one flush is one send per (replica, kind) of one shared
  message object.
* **Accounting parity** — the lane charges the accountant through
  memoized categories and lent pair boxes instead of
  ``observe_sized``; per-kind bytes and messages and every pair's bytes
  must equal what the per-event core (which does call ``observe_sized``)
  records for the same traffic: app, registry and partition-dropped
  messages, and the per-message lane under a kind-filtered and an
  item-predicate delay rule.
"""

import cProfile
import os
from functools import partial

import pytest

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_PUSH,
    KIND_REGISTRY_REPLY,
)
from repro.net.topology import uniform_topology
from repro.runtime.activeobject import ActivityContext
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.workloads.naming import NamingClient
from repro.world import World

FABRIC_FILES = ("network.py", "channel.py", "accounting.py", "message.py")
RUNTIME_FILES = (
    "activeobject.py", "behaviors.py", "future.py", "node.py", "proxy.py",
    "request.py", "serialization.py", "world.py",
)


def external(world, node, name):
    """A collector-less root (paper Sec. 4.1's external code): it causes
    registry traffic and nothing else — no beat, no DGC message."""
    return world.create_activity(
        SinkBehavior(), node=node, name=name, root=True, dgc_enabled=False
    )


def profile_code(run):
    """``(result, stats)``: what ``run()`` returns, and cProfile's
    ``{(filename, line, function): (cc, ncalls, tt, ct, callers)}`` of
    every frame (stdlib and C calls included) entered while it runs."""
    profiler = cProfile.Profile()
    result = profiler.runcall(run)
    profiler.create_stats()
    return result, profiler.stats


def profile_stats(run):
    """``(result, stats)``: what ``run()`` returns, and
    ``{(file, package, function): calls}`` of every frame (stdlib and C
    calls included) entered while it executes; same-named functions of
    one file (two classes' ``__init__``) are summed."""
    result, code_stats = profile_code(run)
    return result, by_function(code_stats)


def by_function(code_stats):
    """cProfile's code-keyed stats as ``{(file, package, function):
    calls}``."""
    stats = {}
    for (filename, _, function), (_, ncalls, _, _, _) in code_stats.items():
        key = (os.path.basename(filename),
               os.path.basename(os.path.dirname(filename)), function)
        stats[key] = stats.get(key, 0) + ncalls
    return stats


def profiled_frames(run):
    """``(fabric, runtime)``: ``{(file, function): calls}`` of every
    Python frame entered in ``repro.net``'s send path and in
    ``runtime/*.py`` while ``run()`` executes.  Dataclass-generated
    ``__init__``s live in ``<string>`` and are in neither."""
    fabric, runtime = {}, {}
    for (base, package, function), calls in profile_stats(run)[1].items():
        if package == "net" and base in FABRIC_FILES:
            fabric[(base, function)] = calls
        elif package == "runtime":
            runtime[(base, function)] = calls
    return fabric, runtime


def warm_resolve_frames(dgc, registry=None):
    """Frames of one warm cross-node resolve, ``ctx.lookup`` to resolved
    future, in a two-node world without collectors."""
    world = World(
        uniform_topology(2), dgc=dgc, registry=registry or RegistryConfig(),
        trace=False,
    )
    authority = world.registry.home_node
    remote = next(name for name in world.nodes if name != authority)
    service = external(world, authority, "svc")
    world.registry.bind("service", service.context.self_ref())
    client = external(world, remote, "client")
    # Warm-up round trip: builds both routes, both channels, the two
    # per-kind categories and the client's stub tag for the service.
    warm = client.context.lookup("service")
    world.run_for(1.0)
    assert warm.value.activity_id == service.id
    before = world.accountant.summary()

    def round_trip():
        future = client.context.lookup("service")
        world.run_for(1.0)
        return future

    fabric, runtime = profiled_frames(round_trip)
    after = world.accountant.summary()
    for kind in (KIND_REGISTRY_LOOKUP, KIND_REGISTRY_REPLY):
        assert after[kind].messages == before[kind].messages + 1
    return world, fabric, runtime


def test_lookup_round_trip_call_budget():
    world, fabric, runtime = warm_resolve_frames(DgcConfig(ttb=1.0, tta=3.0))
    assert world.network.pulse_batching
    assert fabric == {
        # One frame per send, one per delivery instant; channel.py,
        # accounting.py and message.py (the size model) never run.
        ("network.py", "send_typed"): 2,
        ("network.py", "_fire_pulse"): 2,
    }
    # One frame per hop: the service's request side (``ctx.lookup`` is
    # its bound engine), the authority's shard, the caller's node — then
    # the stub and the future.
    assert runtime[("registry.py", "lookup_from")] == 1
    assert runtime[("registry.py", "on_lookup")] == 1
    assert runtime[("node.py", "_on_registry_reply")] == 1
    assert ("node.py", "_on_typed") not in runtime
    assert not [key for key in runtime if key[0] == "activeobject.py"]
    assert sum(runtime.values()) <= 7, runtime


class Service(Behavior):
    def do_ping(self, ctx, request, proxies):
        return None

    def do_echo(self, ctx, request, proxies):
        return request.data


def warm_request_stats(expect_reply):
    """``{(file, function): calls}`` of every frame (stdlib included)
    entered by one warm cross-node ``ping`` (or ``echo`` round trip when
    ``expect_reply``), ``ctx.call`` through delivery (and the resolved
    future), between two collector-less roots."""
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0), trace=False,
    )
    caller_node, service_node = world.nodes
    service = world.create_activity(
        Service(), node=service_node, name="svc", root=True,
        dgc_enabled=False,
    )
    caller = external(world, caller_node, "caller")
    proxy = caller.context.acquire(service.context.self_ref())
    method = "echo" if expect_reply else "ping"
    # Warm-up: builds the routes, channels and per-kind categories.
    caller.context.call(proxy, method, data=1, expect_reply=expect_reply)
    world.run_for(1.0)
    before = world.accountant.summary()

    def hop():
        future = caller.context.call(
            proxy, method, data=2, expect_reply=expect_reply
        )
        world.run_for(1.0)
        return future

    future, stats = profile_stats(hop)
    after = world.accountant.summary()
    kinds = [KIND_APP_REQUEST] + ([KIND_APP_REPLY] if expect_reply else [])
    for kind in kinds:
        assert after[kind].messages == before[kind].messages + 1
    assert future is None or future.value == 2
    assert world.requests_sent == world.requests_delivered == 2
    assert not world.inflight_pinned()
    frames = {}
    for (base, _, function), calls in stats.items():
        frames[(base, function)] = frames.get((base, function), 0) + calls
    return frames


#: The service loop's frames for one request served on an idle
#: activity: served in the delivering frame (the ``do_<method>`` it
#: calls is the test's own), then the busy->idle transition.  A request
#: with a ``reply_to`` adds one ``_finish`` (see below); nothing is
#: queued, no handler run is built and ``Behavior.handle`` is not entered.
SERVE_FRAMES = {
    ("activeobject.py", "deliver"): 1,
    ("activeobject.py", "_become_idle"): 1,
}


@pytest.mark.parametrize("expect_reply", [False, True], ids=["ping", "echo"])
def test_request_lane_call_budget(expect_reply):
    stats = warm_request_stats(expect_reply)
    hops = 2 if expect_reply else 1
    fabric = {
        (base, function): calls for (base, function), calls in stats.items()
        if base in FABRIC_FILES
    }
    # One send and one delivery instant per hop; the fire loop calls the
    # node's kind handler itself and the node prices the message inline.
    assert fabric == {
        ("network.py", "send_typed"): hops,
        ("network.py", "_fire_pulse"): hops,
    }
    runtime = {
        (base, function): calls for (base, function), calls in stats.items()
        if base in RUNTIME_FILES
    }
    expected = {
        ("world.py", "run_for"): 1,  # the drive itself
        ("node.py", "send_request"): 1,  # ``ctx.call`` is its partial
        ("node.py", "_on_request"): 1,
        **SERVE_FRAMES,
    }
    if expect_reply:
        expected.update({
            ("future.py", "__init__"): 1,
            ("activeobject.py", "_finish"): 1,
            ("node.py", "send_reply"): 1,
            ("node.py", "_on_reply"): 1,
            ("future.py", "resolve"): 1,
        })
    assert runtime == expected
    for gone in ("send_call", "note_request_sent", "note_request_delivered",
                 "note_reply_sent", "note_reply_delivered", "_dec",
                 "serialize_refs", "request_size", "reply_size",
                 "released", "resolved"):
        assert not [key for key in stats if key[1] == gone], gone
    # ``ping`` returns None: its dispatch runs no ABC check at all.  A
    # plain value pays one ``collections.abc.Generator`` check (the
    # virtual-subclass test), never the typing alias's delegation.
    assert not [key for key in stats if key[0] == "typing.py"]
    abc_frames = {
        function: calls for (base, function), calls in stats.items()
        if base in ("abc.py", "<frozen abc>")
    }
    assert abc_frames == ({"__instancecheck__": 1} if expect_reply else {})


def warm_burst_stats():
    """cProfile's code-keyed stats (:func:`profile_code`) of one warm
    burst of a collector-less :class:`NamingClient` (one lookup per
    burst) on the node that is not the registry's authority."""
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0), trace=False,
    )
    authority = world.registry.home_node
    remote = next(name for name in world.nodes if name != authority)
    service = external(world, authority, "svc")
    world.registry.bind("service", service.context.self_ref())
    client = NamingClient(["service"], deadline=100.0, period=1.0, burst=1)
    world.create_activity(
        client, node=remote, name="client", root=True, dgc_enabled=False
    )
    # Warm-up bursts build the routes, channels and per-kind categories.
    world.run_for(5.0)
    assert client.hits == client.issued > 0
    issued = client.issued
    # The next event is the client's wake; the one after it is at least
    # half a period later, so this window holds exactly one burst.
    wake = world.kernel.next_event_time()
    _, stats = profile_code(partial(world.kernel.run, until=wake + 0.25))
    assert client.issued == client.hits == issued + 1
    return stats


def test_resolve_lane_call_budget():
    """One warm burst of a collector-less :class:`NamingClient` — wake,
    uniform name pick, remote resolve, stub acquired at the reply,
    consumed and dropped — pinned frame by frame in ``repro.runtime``
    and the driver.  The stub lifecycle is one frame each way
    (``Node.deserialize_ref``, ``Activity.release_proxy``), the context
    verbs enter their engines directly, the resolved future calls the
    consumer itself, and the pick enters no ``random.py`` frame."""
    stats = by_function(warm_burst_stats())
    frames = {
        (base, function): calls
        for (base, package, function), calls in stats.items()
        if package in ("runtime", "workloads")
    }
    assert frames == {
        # the wake: resume the driver, pick, issue, go back to sleep
        ("activeobject.py", "_step"): 1,
        ("naming.py", "on_start"): 1,
        ("activeobject.py", "now"): 3,  # the deadline, the burst, the reply
        ("registry.py", "lookup_from"): 1,  # ``ctx.lookup``
        ("future.py", "__init__"): 1,
        ("future.py", "on_resolve"): 1,
        ("activeobject.py", "__init__"): 1,  # ``ctx.sleep``: the Sleep
        # the authority's shard, then the reply at the client's node
        ("registry.py", "on_lookup"): 1,
        ("node.py", "_on_registry_reply"): 1,
        ("node.py", "deserialize_ref"): 1,
        ("proxy.py", "__init__"): 2,  # a fresh StubTag, its Proxy
        ("future.py", "resolve"): 1,
        # the driver's consumer drops the stub (``ctx.drop``): the tag
        # dies at once
        ("naming.py", "_consume"): 1,
        ("future.py", "value"): 1,
        ("activeobject.py", "release_proxy"): 1,
    }
    for gone in (("proxy.py", "acquire"), ("proxy.py", "release"),
                 ("localgc.py", "notify_tag_dead")):
        assert not [key for key in stats if (key[0], key[2]) == gone], gone
    assert not [key for key in stats
                if key[2] == "randrange" or key[2].startswith("_randbelow")]
    assert not [key for key in stats if key[0] == "random.py"]


def test_a_resolve_enters_no_context_frame_and_no_lambda():
    """``ctx.lookup``, ``ctx.sleep`` and ``ctx.drop`` are their engines
    (``NamingService.lookup_from``, ``Sleep``, ``Activity.release_proxy``):
    a warm burst, cross-node resolve included, enters no
    :class:`ActivityContext` frame but its ``now`` clock, and the
    resolved future calls the client's consumer with no ``<lambda>``
    in between."""
    context = {}
    for name, member in vars(ActivityContext).items():
        for function in (member, getattr(member, "fget", None),
                         getattr(member, "func", None)):
            code = getattr(function, "__code__", None)
            if code is not None:
                context[
                    (code.co_filename, code.co_firstlineno, code.co_name)
                ] = name
    stats = warm_burst_stats()
    entered = {
        context[key]: calls for key, (_, calls, _, _, _) in stats.items()
        if key in context
    }
    assert entered == {"now": 3}
    assert not [key for key in stats if key[2] == "<lambda>"]


def test_resolve_edge_reaches_a_collector():
    """A holder *with* a DGC collector still sees the Sec. 2.2 edge: a
    resolve is one ``on_reference_deserialized``, and dropping the stub
    one ``notify_tag_dead`` whose sweep tells the collector."""
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0), trace=False,
    )
    authority = world.registry.home_node
    remote = next(name for name in world.nodes if name != authority)
    service = external(world, authority, "svc")
    world.registry.bind("service", service.context.self_ref())
    holder = world.create_activity(
        SinkBehavior(), node=remote, name="holder", root=True
    )
    assert holder.collector is not None

    def resolve_and_drop():
        future = holder.context.lookup("service")
        world.run_for(0.5)
        assert holder.proxies.holds(service.id)
        holder.context.drop(future.value)
        world.run_for(0.5)

    _, stats = profile_stats(resolve_and_drop)
    assert not holder.proxies.holds(service.id)
    calls = {
        function: stats.get((base, package, function), 0)
        for base, package, function in (
            ("collector.py", "core", "on_reference_deserialized"),
            ("localgc.py", "runtime", "notify_tag_dead"),
            ("collector.py", "core", "on_reference_dropped"),
        )
    }
    assert calls == {
        "on_reference_deserialized": 1,
        "notify_tag_dead": 1,
        "on_reference_dropped": 1,
    }


def test_per_event_core_enters_the_same_shard_handlers():
    world, _, runtime = warm_resolve_frames(
        DgcConfig(ttb=1.0, tta=3.0, aggregation="per-event")
    )
    assert not world.network.pulse_batching
    assert runtime[("registry.py", "on_lookup")] == 1
    assert runtime[("node.py", "_on_registry_reply")] == 1


def test_replica_update_delivery_is_one_runtime_frame():
    """The write side: under ``replicated`` placement every bind fans a
    push out and every unbind an invalidation; delivering one is one
    frame above the fabric — the destination shard's handler."""
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0),
        registry=RegistryConfig(placement="replicated", coherence="eager"),
        trace=False,
    )
    primary = world.registry.home_node
    replica = next(name for name in world.nodes if name != primary)
    service = external(world, primary, "svc")
    ref = service.context.self_ref()
    shard = world.registry.shard(replica)
    for kind, update, handler in (
        (KIND_REGISTRY_BIND, lambda: world.registry.bind("service", ref),
         "on_bind"),
        (KIND_REGISTRY_INVALIDATE, lambda: world.registry.unbind("service"),
         "on_invalidate"),
    ):
        update()
        sent = world.accountant.summary()[kind].messages
        fabric, runtime = profiled_frames(lambda: world.run_for(1.0))
        assert sent == 1
        assert fabric == {("network.py", "_fire_pulse"): 1}
        assert runtime == {("registry.py", handler): 1}
        assert ("service" in shard.replica) == (handler == "on_bind")


def beat_write_world(nodes):
    """A ``replicated`` world under the default (beat) coherence, with
    one binding flushed to every replica at t=1 s by the flush beat
    (period 1 s, still registered) and the clock at 1.5 s; returns
    ``(world, ref)``."""
    world = World(
        uniform_topology(nodes), dgc=DgcConfig(ttb=1.0, tta=3.0),
        registry=RegistryConfig(placement="replicated", lease_beat_s=1.0),
        trace=False,
    )
    ref = external(world, world.registry.home_node, "svc").context.self_ref()
    world.registry.bind("warm", ref)
    world.run_for(1.5)
    for node in world.nodes:
        if node != world.registry.home_node:
            assert world.registry.shard(node).replica == {"warm": ref}
    assert world.registry.shard(world.registry.home_node).egress_handle is not None
    return world, ref


def test_beat_staging_frames_do_not_grow_with_the_node_count():
    """Staging a ``replicated`` bind is one fan-out-log store, not one
    stage per replica: the same runtime frames at 2, 4 and 8 nodes, and
    nothing in the fabric until the flush."""
    budgets = []
    for nodes in (2, 4, 8):
        world, ref = beat_write_world(nodes)
        fabric, runtime = profiled_frames(
            lambda: world.registry.bind("service", ref)
        )
        assert fabric == {}
        # The store is made in the apply's own frame: no staging helper.
        assert runtime[("registry.py", "_apply_update")] == 1
        assert ("registry.py", "_send_replica_update") not in runtime
        channel = world.registry.shard(world.registry.home_node).channel
        assert channel.pending() == nodes - 1
        budgets.append(runtime)
    assert budgets[0] == budgets[1] == budgets[2], budgets


def test_beat_flush_sends_one_shared_message_per_replica_and_kind():
    """One flush of a bind and an unbind: one ``send_typed`` per
    (replica, kind), in node order, each kind's message the *same*
    object for every replica, and one ``on_push`` / ``on_invalidate``
    per replica."""
    nodes = 4
    world, ref = beat_write_world(nodes)
    world.registry.bind("service", ref)
    world.registry.unbind("warm")
    sent = []
    send_typed = world.network.send_typed

    def record(source, dest, kind, size, message, payload=None):
        sent.append((dest, kind, message))
        return send_typed(source, dest, kind, size, message, payload)

    world.network.send_typed = record
    fabric, runtime = profiled_frames(lambda: world.run_for(1.0))
    assert fabric[("network.py", "send_typed")] == 2 * (nodes - 1)
    assert runtime[("registry.py", "_flush_coherence")] == 1
    assert runtime[("registry.py", "on_push")] == nodes - 1
    assert runtime[("registry.py", "on_invalidate")] == nodes - 1
    replicas = [node for node in world.nodes if node != world.registry.home_node]
    assert [dest for dest, _, _ in sent] == [
        dest for dest in replicas for _ in range(2)
    ]
    for kind in (KIND_REGISTRY_INVALIDATE, KIND_REGISTRY_PUSH):
        messages = {id(message) for _, k, message in sent if k == kind}
        assert len(messages) == 1, kind
    for node in replicas:
        assert world.registry.shard(node).replica == {"service": ref}


# ----------------------------------------------------------------------
# Accounting parity with observe_sized
# ----------------------------------------------------------------------


class Echo(Behavior):
    def do_echo(self, ctx, request, proxies):
        return request.data


#: The delay rule each parity drive runs under.  Either way the
#: matched stream rides the per-message lane on the batched core; every
#: other stream keeps the fused lane.
DELAY_RULES = {
    # Every reply (a kind filter).
    "kind": lambda plan: plan.add_delay(0.05, kind=KIND_APP_REPLY),
    # One echo request (an item predicate over the request).
    "item": lambda plan: plan.add_delay(
        0.05, kind=KIND_APP_REQUEST,
        predicate=lambda request: request.data == 2,
    ),
}


def drive_mixed_traffic(dgc: DgcConfig, rule: str):
    """App, registry, partition-dropped and delay-rule traffic over
    three nodes; returns the world."""
    reset_id_counter()
    plan = FaultPlan()
    DELAY_RULES[rule](plan)
    world = World(
        uniform_topology(3), dgc=dgc, registry=RegistryConfig(),
        fault_plan=plan, trace=False,
    )
    authority = world.registry.home_node
    others = [name for name in world.nodes if name != authority]
    driver = world.create_driver(node=others[0])
    echo = driver.context.create(Echo(), node=others[1], name="echo")
    client = external(world, others[1], "client")
    futures = [driver.context.bind("echo", echo)]
    world.run_for(1.0)
    for index in range(4):
        futures.append(driver.context.call(
            echo, "echo", data=index, payload_bytes=100 * index,
            expect_reply=True,
        ))
        futures.append(client.context.lookup("echo"))
        futures.append(driver.context.lookup("echo"))
    world.run_for(1.0)
    assert all(future.resolved for future in futures)
    # Dropped on the floor: never accounted, on any core.
    plan.partition(others[0], others[1])
    driver.context.call(echo, "echo", data="lost")
    plan.partition(others[1], authority)
    client.context.lookup("echo")
    world.run_for(1.0)
    assert plan.dropped_count >= 2
    return world


def accounting_snapshot(world):
    accountant = world.accountant
    names = list(world.nodes)
    return (
        # Per-kind bytes and messages, in first-seen order.
        [(kind, cat.bytes, cat.messages)
         for kind, cat in accountant.summary().items()],
        {(a, b): accountant.pair_bytes((a, b)) for a in names for b in names},
        accountant.total_bytes,
        accountant.total_messages,
    )


@pytest.mark.parametrize("rule", sorted(DELAY_RULES))
def test_fused_lane_accounting_equals_observe_sized(rule):
    per_event = drive_mixed_traffic(
        DgcConfig(ttb=1.0, tta=3.0, aggregation="per-event"), rule
    )
    assert not per_event.network.pulse_batching
    reference = accounting_snapshot(per_event)
    kinds = {kind for kind, _, messages in reference[0] if messages}
    assert {
        KIND_APP_REQUEST, KIND_APP_REPLY, KIND_REGISTRY_BIND,
        KIND_REGISTRY_LOOKUP, KIND_REGISTRY_REPLY,
    } <= kinds
    world = drive_mixed_traffic(DgcConfig(ttb=1.0, tta=3.0), rule)
    assert world.network.pulse_batching
    assert accounting_snapshot(world) == reference
    assert (
        world.network.fault_plan.dropped_count
        == per_event.network.fault_plan.dropped_count
    )
