"""The live (wall-clock) kernel: the identical protocol stack collects
real garbage in real time.

Timings are kept small (TTB of tens of milliseconds) so the whole module
runs in a few seconds; assertions use generous timeouts because wall
clocks jitter.
"""

import pytest

from repro.core.config import DgcConfig
from repro.live import LiveKernel
from repro.net.topology import uniform_topology
from repro.workloads.app import Peer, link, release_all
from repro.world import World

LIVE = DgcConfig(ttb=0.05, tta=0.25)


@pytest.fixture
def live_world():
    kernel = LiveKernel()
    world = World(
        uniform_topology(2),
        dgc=LIVE,
        kernel=kernel,
        seed=1,
        safety_checks=True,
    )
    yield world
    kernel.shutdown()


def test_live_acyclic_collection(live_world):
    world = live_world
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    world.run_for(0.2)
    driver.context.drop(a)
    assert world.run_until_collected(10.0)
    assert world.stats.collected_acyclic == 1
    assert world.stats.safety_violations == 0


def test_live_cycle_collection(live_world):
    world = live_world
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


def test_live_referenced_activity_survives(live_world):
    world = live_world
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(0.3)
    driver.context.drop(b)
    world.run_for(2.0)  # many TTA periods of real time
    assert world.find_activity(a.activity_id) is not None
    assert world.find_activity(b.activity_id) is not None
    assert world.stats.safety_violations == 0


def test_live_requests_and_replies():
    kernel = LiveKernel()
    try:
        world = World(
            uniform_topology(2), dgc=LIVE, kernel=kernel, seed=2
        )
        driver = world.create_driver()

        from repro.runtime.behaviors import Behavior

        class Doubler(Behavior):
            def do_double(self, ctx, request, proxies):
                yield ctx.sleep(0.05)
                return request.data * 2

        target = driver.context.create(Doubler(), name="doubler")
        future = driver.context.call(
            target, "double", data=21, expect_reply=True
        )
        assert kernel.run_until_quiescent(
            lambda: future.resolved, 0.02, 5.0
        )
        assert future.value == 42
    finally:
        kernel.shutdown()


def test_live_kernel_interface():
    kernel = LiveKernel()
    try:
        fired = []
        kernel.schedule(0.02, fired.append, "x")
        assert kernel.run_until_quiescent(lambda: bool(fired), 0.01, 2.0)
        assert fired == ["x"]
        assert kernel.fired_count >= 1
        assert kernel.scheduled_count >= 1
        event = kernel.schedule(0.2, fired.append, "never")
        event.cancel()
        kernel.run(until=kernel.now + 0.3)
        assert "never" not in fired
    finally:
        kernel.shutdown()


def test_live_kernel_fire_at_is_event_less():
    """``schedule_fire_at`` honours its event-less contract: no
    cancellable Event is allocated, the callback simply fires."""
    kernel = LiveKernel()
    try:
        fired = []
        handle = kernel.schedule_fire_at(kernel.now + 0.02, fired.append, ("x",))
        assert handle is None
        assert kernel.run_until_quiescent(lambda: bool(fired), 0.01, 2.0)
        assert fired == ["x"]
    finally:
        kernel.shutdown()


def test_live_kernel_request_stop_wakes_run():
    """The event-driven quiescence path: ``request_stop`` (fired from
    the scheduler thread) wakes a blocked ``run`` through the condition
    variable, long before the timeout."""
    import time as _time

    kernel = LiveKernel()
    try:
        kernel.schedule(0.05, kernel.request_stop)
        start = _time.monotonic()
        kernel.run(until=kernel.now + 30.0)
        assert _time.monotonic() - start < 5.0
    finally:
        kernel.shutdown()


def test_live_kernel_schedule_periodic_beats():
    """The live kernel implements the beat-wheel protocol on its
    scheduler thread."""
    kernel = LiveKernel()
    try:
        fired = []
        handles = [
            kernel.schedule_periodic(
                0.03, (lambda i: lambda: fired.append(i))(index),
                first_delay=0.03,
            )
            for index in range(3)
        ]
        assert kernel.run_until_quiescent(lambda: len(fired) >= 9, 0.01, 5.0)
        for handle in handles:
            handle.stop()
        settled = len(fired)
        kernel.run(until=kernel.now + 0.15)
        assert len(fired) <= settled + 3  # at most one in-flight bucket
        # Registration order is preserved within each beat.
        assert fired[:3] == [0, 1, 2]
    finally:
        kernel.shutdown()


def test_live_world_run_until_collected_is_event_driven(live_world):
    """``World.run_until_collected`` returns promptly on the live
    kernel (no polling fallback): the termination hook stops the run
    through the kernel's condition variable."""
    import time as _time

    world = live_world
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    world.run_for(0.2)
    driver.context.drop(a)
    start = _time.monotonic()
    # Generous timeout: a polling-free return must not need it.
    assert world.run_until_collected(60.0)
    assert _time.monotonic() - start < 30.0
    assert world.stats.collected_acyclic == 1


def test_live_kernel_rejects_negative_delay():
    from repro.errors import SchedulingInPastError

    kernel = LiveKernel()
    try:
        with pytest.raises(SchedulingInPastError):
            kernel.schedule(-1.0, lambda: None)
    finally:
        kernel.shutdown()


def test_live_kernel_shutdown_rejects_new_work():
    from repro.errors import SimulationError

    kernel = LiveKernel()
    kernel.shutdown()
    with pytest.raises(SimulationError):
        kernel.schedule(0.01, lambda: None)
