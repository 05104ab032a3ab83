"""Kernel hot-path additions: maintained pending counter, the
fire-and-forget fast path, and the event-driven stop."""

from __future__ import annotations

import pytest

from repro.net.topology import uniform_topology
from repro.runtime.behaviors import SinkBehavior
from repro.sim.kernel import SimKernel
from repro.workloads.app import release_all
from repro.workloads.synthetic import build_ring
from repro.world import World


def test_pending_count_is_maintained_through_fire_and_cancel():
    kernel = SimKernel()
    assert kernel.pending_count == 0
    first = kernel.schedule(1.0, lambda: None)
    second = kernel.schedule(2.0, lambda: None)
    kernel.schedule_fire_at(3.0, lambda: None)
    assert kernel.pending_count == 3
    assert kernel.peak_pending_count == 3
    second.cancel()
    assert kernel.pending_count == 2
    second.cancel()  # double-cancel must not double-decrement
    assert kernel.pending_count == 2
    kernel.run()
    assert kernel.pending_count == 0
    assert kernel.fired_count == 2
    assert kernel.peak_pending_count == 3
    assert first.cancelled is False


def test_cancel_after_fire_does_not_corrupt_pending_count():
    kernel = SimKernel()
    event = kernel.schedule(1.0, lambda: None)
    kernel.run(until=2.0)
    assert kernel.pending_count == 0
    event.cancel()  # post-fire cancel must be a no-op
    assert kernel.pending_count == 0
    # Same through advance(): it detaches the event's owner too.
    advanced = kernel.schedule(1.0, lambda: None)
    assert kernel.advance(4.0) == 1
    advanced.cancel()
    assert kernel.pending_count == 0


def test_schedule_fire_at_orders_with_regular_events():
    kernel = SimKernel()
    order = []
    kernel.schedule(1.0, order.append, "event")
    kernel.schedule_fire_at(1.0, order.append, ("fast",))
    kernel.schedule_fire_at(0.5, order.append, ("early",))
    kernel.run()
    assert order == ["early", "event", "fast"]


def test_schedule_fire_at_rejects_past_times():
    kernel = SimKernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    from repro.errors import SchedulingInPastError

    with pytest.raises(SchedulingInPastError):
        kernel.schedule_fire_at(0.5, lambda: None)


def test_request_stop_halts_run_at_the_stopping_event():
    kernel = SimKernel()
    fired = []

    def stopper():
        fired.append("stopper")
        kernel.request_stop()

    kernel.schedule(1.0, stopper)
    kernel.schedule(2.0, fired.append, "later")
    kernel.run(until=10.0)
    assert fired == ["stopper"]
    # The clock stays at the stopping event, not the run deadline.
    assert kernel.now == 1.0
    # A fresh run proceeds normally.
    kernel.run(until=10.0)
    assert fired == ["stopper", "later"]
    assert kernel.now == 10.0


def test_run_until_collected_is_event_driven_on_sim_kernel(fast_dgc):
    world = World(uniform_topology(2), dgc=fast_dgc, seed=3)
    driver = world.create_driver()
    ring = build_ring(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, ring)
    assert world.live_non_root_count == 3
    assert world.run_until_collected(100 * fast_dgc.tta)
    assert world.all_collected()
    assert world.live_non_root_count == 0
    # The kernel stopped at the exact instant of the last termination.
    assert world.kernel.now == max(world.stats.collected_by_id.values())


def test_live_non_root_count_tracks_creation_and_termination(fast_dgc):
    world = World(uniform_topology(2), dgc=fast_dgc, seed=4)
    assert world.live_non_root_count == 0
    driver = world.create_driver()
    assert world.live_non_root_count == 0  # roots are not counted
    driver.context.create(SinkBehavior())
    assert world.live_non_root_count == 1
    world.run_for(1.0)
    assert world.live_non_root_count == len(world.live_non_roots())
