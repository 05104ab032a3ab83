"""Unit tests for the discrete-event kernel."""

import sys

import pytest

from repro.errors import SchedulingInPastError, SimulationError
from repro.sim.kernel import SimKernel


def test_initial_time_is_zero():
    assert SimKernel().now == 0.0


def test_the_clock_is_one_slotted_attribute():
    # Every hot path reads ``kernel.now``; it must be a plain slot, not
    # a property, so a read enters no Python frame.
    assert "now" in SimKernel.__slots__
    kernel = SimKernel()
    kernel.schedule(2.5, lambda: None)
    kernel.run()
    frames = []
    sys.setprofile(lambda frame, event, arg: frames.append(event))
    try:
        now = kernel.now
    finally:
        sys.setprofile(None)
    assert now == 2.5
    assert "call" not in frames


def test_schedule_and_fire_in_time_order():
    kernel = SimKernel()
    fired = []
    kernel.schedule(2.0, fired.append, "b")
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(3.0, fired.append, "c")
    kernel.run()
    assert fired == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    kernel = SimKernel()
    fired = []
    for label in "abcde":
        kernel.schedule(1.0, fired.append, label)
    kernel.run()
    assert fired == list("abcde")


def test_negative_delay_rejected():
    kernel = SimKernel()
    with pytest.raises(SchedulingInPastError):
        kernel.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    kernel = SimKernel()
    kernel.schedule(5.0, lambda: None)
    kernel.run()
    with pytest.raises(SchedulingInPastError):
        kernel.schedule_at(4.0, lambda: None)


def test_cancel_prevents_firing():
    kernel = SimKernel()
    fired = []
    event = kernel.schedule(1.0, fired.append, "x")
    event.cancel()
    kernel.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(10.0, fired.append, "b")
    kernel.run(until=5.0)
    assert fired == ["a"]
    assert kernel.now == 5.0
    kernel.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    kernel = SimKernel()
    kernel.run(until=42.0)
    assert kernel.now == 42.0


def test_max_events_bound():
    kernel = SimKernel()
    fired = []
    for index in range(10):
        kernel.schedule(float(index + 1), fired.append, index)
    kernel.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_fires_exactly_one_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")
    kernel.schedule(2.0, fired.append, "b")
    assert kernel.advance(1.5) == 1
    assert fired == ["a"]
    assert kernel.advance(2.5) == 1
    assert kernel.advance(3.5) == 0
    assert fired == ["a", "b"]


# ----------------------------------------------------------------------
# Caller-paced advance (the shard worker's drive)
# ----------------------------------------------------------------------


def test_advance_is_exclusive_and_sets_clock():
    kernel = SimKernel()
    times = []
    kernel.schedule_at(1.0, lambda: times.append(kernel.now))
    kernel.schedule_at(2.0, lambda: times.append(kernel.now))
    assert kernel.next_event_time() == 1.0
    # The horizon is exclusive: the event at exactly 2.0 must hold.
    assert kernel.advance(2.0) == 1
    assert times == [1.0]
    assert kernel.now == 2.0
    assert kernel.next_event_time() == 2.0
    assert kernel.advance(2.5) == 1
    assert times == [1.0, 2.0]
    assert kernel.next_event_time() is None


def test_next_event_time_skips_cancelled_heads():
    kernel = SimKernel()
    kernel.schedule_at(1.0, lambda: None).cancel()
    kernel.schedule_fire_at(3.0, lambda: None)
    assert kernel.next_event_time() == 3.0
    assert kernel.pending_count == 1


def test_advance_runs_nested_schedules_in_window():
    kernel = SimKernel()
    order = []

    def first():
        order.append(("first", kernel.now))
        kernel.schedule(0.5, second)

    def second():
        order.append(("second", kernel.now))

    kernel.schedule_at(1.0, first)
    assert kernel.advance(3.0) == 2
    assert order == [("first", 1.0), ("second", 1.5)]


def test_advance_rejects_a_backwards_horizon():
    kernel = SimKernel()
    kernel.advance(5.0)
    assert kernel.advance(5.0) == 0  # re-granting the current time
    with pytest.raises(SchedulingInPastError):
        kernel.advance(4.0)
    assert kernel.now == 5.0


def test_events_scheduled_during_run_are_executed():
    kernel = SimKernel()
    fired = []

    def reschedule():
        fired.append(kernel.now)
        if len(fired) < 3:
            kernel.schedule(1.0, reschedule)

    kernel.schedule(1.0, reschedule)
    kernel.run()
    assert fired == [1.0, 2.0, 3.0]


def test_counters():
    kernel = SimKernel()
    event = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    event.cancel()
    assert kernel.scheduled_count == 2
    assert kernel.pending_count == 1
    kernel.run()
    assert kernel.fired_count == 1


def test_run_is_not_reentrant():
    kernel = SimKernel()
    errors = []

    def nested():
        try:
            kernel.run()
        except SimulationError as exc:
            errors.append(exc)

    kernel.schedule(1.0, nested)
    kernel.run()
    assert len(errors) == 1


def test_run_until_quiescent_returns_on_predicate():
    kernel = SimKernel()
    state = {"done": False}
    kernel.schedule(3.0, lambda: state.update(done=True))
    assert kernel.run_until_quiescent(lambda: state["done"], 1.0, 10.0)
    assert kernel.now <= 10.0


def test_run_until_quiescent_times_out():
    kernel = SimKernel()
    assert not kernel.run_until_quiescent(lambda: False, 1.0, 5.0)


def test_max_events_never_moves_the_clock_past_pending_events():
    kernel = SimKernel()
    times = []
    for index in range(5):
        kernel.schedule(float(index + 1), lambda: times.append(kernel.now))
    assert kernel.run(until=10.0, max_events=2) == 2
    # Events at 3, 4 and 5 are still due: the clock stays at the last
    # fired event instead of jumping to the deadline.
    assert kernel.now == 2.0
    kernel.run(until=10.0)
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert kernel.now == 10.0


def test_advance_skips_cancelled_events_and_fires_event_less_ones():
    kernel = SimKernel()
    fired = []
    kernel.schedule_at(1.0, fired.append, "kept")
    kernel.schedule_at(1.5, fired.append, "cancelled").cancel()
    kernel.schedule_fire_at(2.0, fired.append, ("fast",))
    kernel.schedule_fire_at(3.0, fired.append, ("held",))
    assert kernel.advance(3.0) == 2
    assert fired == ["kept", "fast"]
    assert (kernel.fired_count, kernel.pending_count) == (2, 1)
    assert kernel.next_event_time() == 3.0


def test_beats_fire_alike_under_advance_and_run():
    times = {}
    for drive in ("run", "advance"):
        kernel = SimKernel()
        fired = times[drive] = []
        kernel.schedule_periodic(1.0, lambda: fired.append(kernel.now),
                                 first_delay=0.5)
        if drive == "run":
            kernel.run(until=4.0)
        else:
            for horizon in (0.7, 2.5, 2.5, 4.0):
                kernel.advance(horizon)
        assert kernel.now == 4.0
    assert times["advance"] == times["run"] == [0.5, 1.5, 2.5, 3.5]
