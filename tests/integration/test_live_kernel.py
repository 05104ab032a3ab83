"""LiveKernel unit coverage alongside the live runtime suite.

Two concerns:

* **stats parity with SimKernel** — ``pending_count`` /
  ``peak_pending_count`` / ``fired_count`` / ``scheduled_count`` follow
  the same accounting rules (increment on schedule, decrement on fire
  and on cancel), so the benchmarks read either kernel uniformly;
* **teardown** — ``shutdown`` drains the beat wheel, so a stopped
  kernel never fires a periodic callback into a torn-down world
  (regression for the beat-wheel teardown bug).

The caller-paced ``advance`` the shard workers run on is
:class:`SimKernel`'s; its tests live in ``tests/unit/test_sim_kernel.py``.
"""

import threading
import time

from repro.live import LiveKernel
from repro.sim.kernel import SimKernel


def parity_script(kernel, start):
    """Drive identical scheduling traffic through either kernel and
    return the counter snapshots taken at the same protocol points."""
    fired = []
    keep = kernel.schedule_at(start + 0.01, fired.append, "a")
    doomed = kernel.schedule_at(start + 0.02, fired.append, "b")
    kernel.schedule_fire_at(start + 0.03, fired.append, ("c",))
    after_schedule = (kernel.pending_count, kernel.peak_pending_count,
                      kernel.scheduled_count, kernel.fired_count)
    doomed.cancel()
    after_cancel = (kernel.pending_count, kernel.peak_pending_count)
    return keep, fired, after_schedule, after_cancel


def test_stats_parity_with_sim_kernel():
    sim = SimKernel()
    live = LiveKernel()
    try:
        _, sim_fired, sim_sched, sim_cancel = parity_script(sim, sim.now)
        # A full second ahead: the snapshots are taken long before the
        # scheduler thread may fire anything.
        _, live_fired, live_sched, live_cancel = parity_script(
            live, live.now + 1.0
        )
        assert live_sched == sim_sched == (3, 3, 3, 0)
        assert live_cancel == sim_cancel == (2, 3)
        sim.run(until=1.0)
        assert live.run_until_quiescent(
            lambda: len(live_fired) == 2 and live.pending_count == 0,
            0.01, 10.0,
        )
        assert sim_fired == live_fired == ["a", "c"]
        for kernel in (sim, live):
            assert kernel.pending_count == 0
            assert kernel.peak_pending_count == 3
            assert kernel.fired_count == 2
            assert kernel.scheduled_count == 3
    finally:
        live.shutdown()


def test_wall_clock_counters_drain():
    kernel = LiveKernel()
    try:
        done = threading.Event()
        kernel.schedule(0.0, done.set)
        assert done.wait(2.0)
        deadline = time.monotonic() + 2.0
        while kernel.pending_count and time.monotonic() < deadline:
            time.sleep(0.001)
        assert kernel.pending_count == 0
        assert kernel.fired_count >= 1
        assert kernel.peak_pending_count >= 1
    finally:
        kernel.shutdown()


# ----------------------------------------------------------------------
# Teardown (regression: beat wheel must not outlive the kernel)
# ----------------------------------------------------------------------


def test_shutdown_drains_live_periodic_timers():
    kernel = LiveKernel()
    ticks = []
    kernel.schedule_periodic(0.005, lambda: ticks.append(1), first_delay=0.0)
    kernel.schedule_periodic(10.0, lambda: ticks.append(2))
    deadline = time.monotonic() + 2.0
    while not ticks and time.monotonic() < deadline:
        time.sleep(0.001)
    assert ticks, "fast timer never ticked"
    kernel.shutdown()
    # Every registered member is stopped and every bucket dropped: the
    # joined scheduler thread plus the drained wheel mean no callback
    # can ever reach a torn-down world.
    assert kernel.beat_wheel.member_count() == 0
    assert kernel.beat_wheel.live_bucket_count == 0
    count = len(ticks)
    time.sleep(0.05)
    assert len(ticks) == count
