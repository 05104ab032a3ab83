"""The fused typed-message lane: its call budget and its accounting.

Two deterministic gates, no timing:

* **Call budget** — on the production core, once the routes are cached,
  a cross-node ``registry.lookup`` round trip costs the fabric one
  Python frame per send (:meth:`Network.send_typed`) and one per
  delivery instant (the pulse firing); nothing runs in ``net/channel.py``
  or ``net/accounting.py`` and the node's typed sink (``_on_typed``) is
  never entered — the fire loop calls the kind handlers itself.
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
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_REPLY,
)
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.world import World

FABRIC_FILES = ("network.py", "channel.py", "accounting.py")


def external_client(world, node):
    """A collector-less root (paper Sec. 4.1's external code): its
    lookups cause registry traffic and nothing else."""
    return world.create_activity(
        SinkBehavior(), node=node, name="client", root=True, dgc_enabled=False
    )


def profiled_calls(run):
    """``{(file, function): calls}`` for ``repro.net``'s send path and
    ``runtime/node.py`` while ``run()`` executes."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    profiler.create_stats()
    calls = {}
    for (filename, _, function), (_, ncalls, _, _, _) in profiler.stats.items():
        head, base = os.path.split(filename)
        package = os.path.basename(head)
        if (package == "net" and base in FABRIC_FILES) or (
            package == "runtime" and base == "node.py"
        ):
            calls[(base, function)] = ncalls
    return calls


def test_lookup_round_trip_call_budget():
    world = World(
        uniform_topology(2), dgc=DgcConfig(ttb=1.0, tta=3.0),
        registry=RegistryConfig(), trace=False,
    )
    assert world.network.pulse_batching
    authority = world.registry_node
    remote = next(name for name in world.nodes if name != authority)
    service = world.create_activity(
        SinkBehavior(), node=authority, name="svc", root=True
    )
    world.registry.bind("service", service.context.self_ref())
    client = external_client(world, remote)
    # Warm-up round trip: builds both routes, both channels and the two
    # per-kind categories.
    warm = client.context.lookup("service")
    world.run_for(1.0)
    assert warm.value.activity_id == service.id
    before = world.accountant.summary()

    def round_trip():
        future = client.context.lookup("service")
        world.run_for(1.0)
        return future

    calls = profiled_calls(round_trip)
    after = world.accountant.summary()
    for kind in (KIND_REGISTRY_LOOKUP, KIND_REGISTRY_REPLY):
        assert after[kind].messages == before[kind].messages + 1
    fabric = {key: n for key, n in calls.items() if key[0] in FABRIC_FILES}
    assert fabric == {
        # One frame per send, one per delivery instant; channel.py and
        # accounting.py never run.
        ("network.py", "send_typed"): 2,
        ("network.py", "_fire_pulse"): 2,
    }
    node = {key[1]: n for key, n in calls.items() if key[0] == "node.py"}
    assert "_on_typed" not in node
    assert node["_on_registry_lookup"] == 1
    assert node["_on_registry_reply"] == 1


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
    client = external_client(world, others[1])
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
