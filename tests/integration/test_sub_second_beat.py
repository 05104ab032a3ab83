"""The protocol stack at a sub-second beat (TTB = 50 ms, TTA = 250 ms)
on a caller-built :class:`SimKernel` passed as ``World(kernel=...)``.

Nothing in the collector, the fabric or the runtime may assume a beat of
whole seconds: acyclic and cyclic garbage is collected, referenced
activities survive many TTA periods, and requests, replies and modelled
compute time all read the one kernel clock.
"""

import pytest

from repro.core.config import DgcConfig
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import Behavior
from repro.sim.kernel import SimKernel
from repro.workloads.app import Peer, link, release_all
from repro.world import World

SHORT = DgcConfig(ttb=0.05, tta=0.25)


def short_world(kernel=None, seed=1):
    kernel = SimKernel() if kernel is None else kernel
    world = World(
        uniform_topology(2), dgc=SHORT, kernel=kernel, seed=seed,
        safety_checks=True,
    )
    assert world.kernel is kernel
    return world


@pytest.fixture
def world():
    return short_world()


def test_acyclic_garbage_is_collected(world):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    world.run_for(0.2)
    driver.context.drop(a)
    assert world.run_until_collected(10.0)
    assert world.stats.collected_acyclic == 1
    assert world.stats.safety_violations == 0


def test_a_cycle_is_collected(world):
    driver = world.create_driver()
    ring = [driver.context.create(Peer(), name=f"r{i}") for i in range(3)]
    for index, source in enumerate(ring):
        link(driver, source, ring[(index + 1) % 3], key="next")
    world.run_for(0.3)
    release_all(driver, ring)
    assert world.run_until_collected(20.0)
    assert world.stats.collected_total == 3
    assert world.stats.collected_cyclic >= 2
    assert world.stats.safety_violations == 0


def test_a_referenced_activity_survives_many_tta_periods(world):
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(0.3)
    driver.context.drop(b)
    world.run_for(2.0)  # eight TTA periods
    assert world.find_activity(a.activity_id) is not None
    assert world.find_activity(b.activity_id) is not None
    assert world.stats.safety_violations == 0


class Doubler(Behavior):
    def __init__(self, clocks):
        self.clocks = clocks

    def do_double(self, ctx, request, proxies):
        started = ctx.now
        yield ctx.sleep(0.05)
        self.clocks.append((started, ctx.now))
        return request.data * 2


def test_a_request_is_served_and_answered(world):
    clocks = []
    driver = world.create_driver()
    target = driver.context.create(Doubler(clocks), name="doubler")
    future = driver.context.call(target, "double", data=21, expect_reply=True)
    assert world.kernel.run_until_quiescent(lambda: future.resolved, 0.02, 5.0)
    assert future.value == 42
    # Modelled compute time moves the handler's clock by exactly the
    # sleep, and the reply cannot precede it.
    [(started, finished)] = clocks
    assert finished == pytest.approx(started + 0.05)
    assert world.kernel.now >= finished


def test_handlers_read_the_clock_at_delivery(world):
    seen = []

    class Clocked(Behavior):
        def do_tick(self, ctx, request, proxies):
            seen.append((ctx.now, world.kernel.now))

    driver = world.create_driver()
    target = driver.context.create(Clocked(), name="clocked")
    world.run_for(0.1)
    driver.context.call(target, "tick")
    world.run_for(0.1)
    driver.context.call(target, "tick")
    world.run_for(0.1)
    assert len(seen) == 2
    assert all(ctx_now == kernel_now for ctx_now, kernel_now in seen)
    assert 0.1 < seen[0][0] < 0.2 < seen[1][0] < 0.3


def test_a_world_joins_a_kernel_whose_clock_already_ran():
    kernel = SimKernel()
    kernel.run(until=5.0)
    world = short_world(kernel, seed=2)
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    world.run_for(0.2)
    driver.context.drop(a)
    assert world.run_until_collected(10.0)
    collected_at = world.stats.collected_by_id[a.activity_id]
    assert 5.2 < collected_at == world.kernel.now < 15.0
