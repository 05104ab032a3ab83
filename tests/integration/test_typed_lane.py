"""The fused typed-message lane: its frame budget and its accounting.

Two deterministic gates, no timing:

* **Frame budget** — on the production core, once the routes are cached,
  a cross-node ``registry.lookup`` round trip costs the fabric one
  Python frame per send (:meth:`Network.send_typed`) and one per
  delivery instant (the pulse firing); nothing runs in ``net/channel.py``,
  ``net/accounting.py`` or ``net/message.py`` and the node's typed sink
  (``_on_typed``) is never entered — the fire loop calls the kind
  handlers itself, and for the ``registry.*`` kinds those are the bound
  methods of the node's :class:`RegistryShard`.  Above the fabric the
  whole resolve (``ctx.lookup`` to resolved future) is at most ten
  frames over all of ``runtime/*.py``, and a delivered replica push or
  invalidation is one.  The per-event core enters the same handlers
  through ``_on_typed``.
* **Accounting parity** — the lane charges the accountant through
  memoized categories and lent pair boxes instead of
  ``observe_sized``; per-kind bytes and messages and every pair's bytes
  must equal what the per-event core (which does call ``observe_sized``)
  records for the same traffic: app, registry, partition-dropped and
  delay-rule-fallback messages.
"""

import cProfile
import os

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_REPLY,
)
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.world import World

FABRIC_FILES = ("network.py", "channel.py", "accounting.py", "message.py")


def external(world, node, name):
    """A collector-less root (paper Sec. 4.1's external code): it causes
    registry traffic and nothing else — no beat, no DGC message."""
    return world.create_activity(
        SinkBehavior(), node=node, name=name, root=True, dgc_enabled=False
    )


def profiled_frames(run):
    """``(fabric, runtime)``: ``{(file, function): calls}`` of every
    Python frame entered in ``repro.net``'s send path and in
    ``runtime/*.py`` while ``run()`` executes.  Dataclass-generated
    ``__init__``s live in ``<string>`` and are in neither."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    profiler.create_stats()
    fabric, runtime = {}, {}
    for (filename, _, function), (_, ncalls, _, _, _) in profiler.stats.items():
        head, base = os.path.split(filename)
        package = os.path.basename(head)
        if package == "net" and base in FABRIC_FILES:
            fabric[(base, function)] = ncalls
        elif package == "runtime":
            runtime[(base, function)] = ncalls
    return fabric, runtime


def warm_resolve_frames(dgc, registry=None):
    """Frames of one warm cross-node resolve, ``ctx.lookup`` to resolved
    future, in a two-node world without collectors."""
    world = World(
        uniform_topology(2), dgc=dgc, registry=registry or RegistryConfig(),
        trace=False,
    )
    authority = world.registry_node
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
    # One frame per hop: the context, the service's request side, the
    # authority's shard, the caller's node — then the stub and the future.
    assert runtime[("activeobject.py", "lookup")] == 1
    assert runtime[("registry.py", "lookup_from")] == 1
    assert runtime[("registry.py", "on_lookup")] == 1
    assert runtime[("node.py", "_on_registry_reply")] == 1
    assert ("node.py", "_on_typed") not in runtime
    assert sum(runtime.values()) <= 10, runtime


def test_per_event_core_enters_the_same_shard_handlers():
    world, _, runtime = warm_resolve_frames(
        DgcConfig(ttb=1.0, tta=3.0, aggregation="per-event")
    )
    assert not world.network.pulse_batching
    assert runtime[("node.py", "_on_typed")] == 2
    assert runtime[("registry.py", "on_lookup")] == 1
    assert runtime[("node.py", "_on_registry_reply")] == 1


def test_replica_update_delivery_is_one_runtime_frame():
    """The write side: under ``replicated`` placement every bind fans a
    push out and every unbind an invalidation; delivering one is one
    frame above the fabric — the destination shard's handler."""
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0),
        registry=RegistryConfig(placement="replicated"), trace=False,
    )
    primary = world.registry_node
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


# ----------------------------------------------------------------------
# Accounting parity with observe_sized
# ----------------------------------------------------------------------


class Echo(Behavior):
    def do_echo(self, ctx, request, proxies):
        return request.data


def drive_mixed_traffic(dgc: DgcConfig):
    """App, registry, partition-dropped and delay-rule-fallback traffic
    over three nodes; returns the world."""
    reset_id_counter()
    plan = FaultPlan()
    # Replies ride the per-envelope fallback on the batched cores (the
    # rule can match them); every other kind keeps the fused lane.
    plan.add_delay(0.05, kind=KIND_APP_REPLY)
    world = World(
        uniform_topology(3), dgc=dgc, registry=RegistryConfig(),
        fault_plan=plan, trace=False,
    )
    authority = world.registry_node
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


def test_fused_lane_accounting_equals_observe_sized():
    per_event = drive_mixed_traffic(
        DgcConfig(ttb=1.0, tta=3.0, aggregation="per-event")
    )
    assert not per_event.network.pulse_batching
    reference = accounting_snapshot(per_event)
    kinds = {kind for kind, _, messages in reference[0] if messages}
    assert {
        KIND_APP_REQUEST, KIND_APP_REPLY, KIND_REGISTRY_BIND,
        KIND_REGISTRY_LOOKUP, KIND_REGISTRY_REPLY,
    } <= kinds
    world = drive_mixed_traffic(DgcConfig(ttb=1.0, tta=3.0))
    assert world.network.pulse_batching
    assert accounting_snapshot(world) == reference
    assert (
        world.network.fault_plan.dropped_count
        == per_event.network.fault_plan.dropped_count
    )
