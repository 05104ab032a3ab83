"""Unit tests for periodic timers."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import SimKernel
from repro.sim.timers import PeriodicTimer


def test_fires_every_period():
    kernel = SimKernel()
    times = []
    PeriodicTimer(kernel, 2.0, lambda: times.append(kernel.now))
    kernel.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_initial_delay_overrides_first_fire():
    kernel = SimKernel()
    times = []
    PeriodicTimer(
        kernel, 2.0, lambda: times.append(kernel.now), initial_delay=0.5
    )
    kernel.run(until=5.0)
    assert times == [0.5, 2.5, 4.5]


def test_stop_halts_firing():
    kernel = SimKernel()
    times = []
    timer = PeriodicTimer(kernel, 1.0, lambda: times.append(kernel.now))
    kernel.run(until=2.5)
    timer.stop()
    kernel.run(until=10.0)
    assert times == [1.0, 2.0]
    assert timer.stopped


def test_stop_from_callback():
    kernel = SimKernel()
    timer_box = {}

    def callback():
        timer_box["timer"].stop()

    timer_box["timer"] = PeriodicTimer(kernel, 1.0, callback)
    kernel.run(until=10.0)
    assert timer_box["timer"].ticks == 1


def test_tick_counter():
    kernel = SimKernel()
    timer = PeriodicTimer(kernel, 1.0, lambda: None)
    kernel.run(until=5.5)
    assert timer.ticks == 5


def test_zero_period_rejected():
    kernel = SimKernel()
    with pytest.raises(SimulationError):
        PeriodicTimer(kernel, 0.0, lambda: None)


def test_zero_initial_delay_fires_immediately():
    kernel = SimKernel()
    times = []
    PeriodicTimer(
        kernel, 3.0, lambda: times.append(kernel.now), initial_delay=0.0
    )
    kernel.run(until=4.0)
    assert times == [0.0, 3.0]


def test_per_event_mode_fires_on_the_wheel_schedule():
    times = {}
    for per_event in (False, True):
        kernel = SimKernel()
        fired = times[per_event] = []
        PeriodicTimer(
            kernel, 2.0, lambda: fired.append(kernel.now),
            initial_delay=0.5, per_event=per_event,
        )
        kernel.run(until=9.0)
    assert times[True] == times[False] == [0.5, 2.5, 4.5, 6.5, 8.5]


def test_per_event_stop_cancels_the_armed_tick():
    kernel = SimKernel()
    timer = PeriodicTimer(kernel, 1.0, lambda: None, per_event=True)
    kernel.run(until=2.5)
    assert timer.ticks == 2
    assert timer.next_fire_time == 3.0
    timer.stop()
    assert timer.stopped
    assert timer.next_fire_time is None
    assert kernel.pending_count == 0
    kernel.run(until=10.0)
    assert timer.ticks == 2


def test_per_event_set_period_applies_from_the_next_rearm():
    kernel = SimKernel()
    times = []
    timer = PeriodicTimer(
        kernel, 1.0, lambda: times.append(kernel.now), per_event=True
    )
    kernel.run(until=1.5)
    timer.set_period(2.0)
    assert timer.period == 2.0
    kernel.run(until=7.0)
    # Same semantics as the wheel: the armed tick at t=2 keeps its time.
    assert times == [1.0, 2.0, 4.0, 6.0]
    with pytest.raises(SimulationError):
        timer.set_period(0.0)


def test_per_event_stop_from_callback():
    kernel = SimKernel()
    box = {}

    def callback():
        box["timer"].stop()

    box["timer"] = PeriodicTimer(kernel, 1.0, callback, per_event=True)
    kernel.run(until=10.0)
    assert box["timer"].ticks == 1
    assert kernel.pending_count == 0


def test_wheel_timers_sharing_period_and_phase_ride_one_kernel_event():
    kernel = SimKernel()
    for _ in range(3):
        PeriodicTimer(kernel, 1.0, lambda: None, initial_delay=0.25)
    assert kernel.pending_count == 1
    reference = SimKernel()
    for _ in range(3):
        PeriodicTimer(
            reference, 1.0, lambda: None, initial_delay=0.25, per_event=True
        )
    assert reference.pending_count == 3
