"""The registry's root pins under random bind/unbind/rebind schedules.

The same schedule runs in two fresh worlds: once through the control
plane (:meth:`NamingService.bind` / :meth:`~NamingService.unbind`,
where a rejection raises) and once through ``ctx.bind`` /
``ctx.unbind`` of a driver standing at each name's authority, which
applies the update at the call site and answers with a shared resolved
future.  After every step both worlds must agree on the verdicts, each
target's ``pin_count`` and ``is_root``, the authority tables, the
coherence channel's fan-out log and counters, and the traffic sent.
Both must also match a plain-dict model of the pin contract.  Targets
alias (more names than targets); one is dead from the start and a
``kill`` step terminates another, bound or not, so a bind to it is
rejected and its names still unbind.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.config import RegistryConfig
from repro.errors import RegistryError
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.world import World

NAMES = 4
#: Live targets; index ``TARGETS`` is the dead one.
TARGETS = 3

CONFIGS = {
    "replicated-beat": RegistryConfig(placement="replicated", lease_beat_s=1.0),
    "replicated-eager": RegistryConfig(
        placement="replicated", coherence="eager", lease_beat_s=1.0
    ),
    "home-leased": RegistryConfig(lease_ttb=4, lease_beat_s=1.0),
    "hashed": RegistryConfig(placement="hashed", lease_beat_s=1.0),
}

_name = st.integers(0, NAMES - 1)
_target = st.integers(0, TARGETS)
SCHEDULES = st.lists(
    st.one_of(
        st.tuples(st.just("bind"), _name, _target),
        st.tuples(st.just("unbind"), _name, st.just(0)),
        st.tuples(st.just("rebind"), _name, _target),
        st.tuples(st.just("kill"), st.just(0), _target),
    ),
    max_size=30,
)


class Arm:
    """One world, its drivers (one per node) and its targets; a step
    returns its verdicts and the state after it."""

    def __init__(self, config: RegistryConfig, via_context: bool) -> None:
        reset_id_counter()
        world = self.world = World(
            uniform_topology(3), dgc=None, registry=config, trace=False
        )
        self.via_context = via_context
        self.drivers = {
            node: world.create_driver(node=node, name=f"driver-{node}")
            for node in world.nodes
        }
        nodes = world.topology.nodes
        creator = self.drivers[nodes[0]].context
        self.refs = [
            creator.create(
                SinkBehavior(), node=nodes[index % len(nodes)],
                name=f"t{index}",
            ).ref
            for index in range(TARGETS + 1)
        ]
        world.find_activity(self.refs[TARGETS].activity_id).terminate(
            "explicit"
        )

    def apply(self, name: str, ref) -> bool:
        naming = self.world.registry
        if self.via_context:
            ctx = self.drivers[naming.authority_node(name)].context
            future = ctx.unbind(name) if ref is None else ctx.bind(name, ref)
            assert future.resolved
            return future.value
        try:
            if ref is None:
                naming.unbind(name)
            else:
                naming.bind(name, ref)
        except RegistryError:
            return False
        return True

    def step(self, op: str, name_index: int, target: int) -> tuple:
        name = f"name-{name_index}"
        ref = self.refs[target]
        if op == "bind":
            verdicts = (self.apply(name, ref),)
        elif op == "unbind":
            verdicts = (self.apply(name, None),)
        elif op == "rebind":
            verdicts = (self.apply(name, None), self.apply(name, ref))
        else:
            activity = self.world.find_activity(ref.activity_id)
            verdicts = (activity is not None,)
            if activity is not None:
                activity.terminate("explicit")
        return verdicts, self.snapshot()

    def snapshot(self) -> tuple:
        world = self.world
        naming = world.registry
        pins = tuple(naming.pin_count(ref.activity_id) for ref in self.refs)
        roots = tuple(
            activity.is_root if activity is not None else None
            for activity in map(world.find_activity,
                                (ref.activity_id for ref in self.refs))
        )
        shards = tuple(
            (
                tuple(shard.authority.items()),
                tuple(shard.channel.log.items()),
                tuple((dest, tuple(queue.items()))
                      for dest, queue in shard.channel.queues.items()),
            )
            for shard in map(naming.shard, world.topology.nodes)
        )
        counters = (
            naming.binds_applied, naming.unbinds_applied,
            naming.coherence_staged, naming.coherence_coalesced,
            naming.invalidations_sent,
            world.accountant.total_messages, world.accountant.total_bytes,
        )
        return pins, roots, shards, counters


class Model:
    """The pin contract in plain dicts: a name binds at most one target,
    a live target is pinned once per name binding it, and it is a root
    exactly while pinned."""

    def __init__(self) -> None:
        self.bound = {}
        self.dead = {TARGETS}

    def apply(self, name: str, target) -> bool:
        if target is None:
            return self.bound.pop(name, None) is not None
        if name in self.bound or target in self.dead:
            return False
        self.bound[name] = target
        return True

    def step(self, op: str, name_index: int, target: int) -> tuple:
        name = f"name-{name_index}"
        if op == "bind":
            verdicts = (self.apply(name, target),)
        elif op == "unbind":
            verdicts = (self.apply(name, None),)
        elif op == "rebind":
            verdicts = (self.apply(name, None), self.apply(name, target))
        else:
            verdicts = (target not in self.dead,)
            self.dead.add(target)
        pins = tuple(
            list(self.bound.values()).count(index)
            for index in range(TARGETS + 1)
        )
        roots = tuple(
            None if index in self.dead else count > 0
            for index, count in enumerate(pins)
        )
        return verdicts, pins, roots


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(schedule=SCHEDULES)
def test_call_site_updates_match_the_control_plane(config, schedule):
    plane = Arm(CONFIGS[config], via_context=False)
    context = Arm(CONFIGS[config], via_context=True)
    model = Model()
    assert plane.snapshot() == context.snapshot()
    for op in schedule:
        verdicts, snapshot = context.step(*op)
        assert plane.step(*op) == (verdicts, snapshot), op
        assert model.step(*op) == (verdicts,) + snapshot[:2], op
    plane.world.run_for(3.0)
    context.world.run_for(3.0)
    assert plane.snapshot() == context.snapshot()
