"""Unit tests for the beat-bucket scheduler (the timer wheel)."""

import pytest

from repro.errors import SchedulingInPastError, SimulationError
from repro.sim.kernel import SimKernel


def wheel_of(kernel):
    return kernel.beat_wheel


def test_members_sharing_period_and_phase_share_one_bucket_event():
    kernel = SimKernel()
    fired = []
    for name in ("a", "b", "c"):
        kernel.schedule_periodic(
            2.0,
            (lambda n: (lambda: fired.append((kernel.now, n))))(name),
            first_delay=1.0,
        )
    kernel.run(until=4.0)
    # Three members, two ticks each — but only one bucket event per
    # beat period ever hit the kernel heap.
    assert fired == [
        (1.0, "a"), (1.0, "b"), (1.0, "c"),
        (3.0, "a"), (3.0, "b"), (3.0, "c"),
    ]
    assert wheel_of(kernel).bucket_event_count == 3  # t=1, t=3, t=5 armed
    assert wheel_of(kernel).registered_count == 3


def test_intra_bucket_order_is_registration_order():
    kernel = SimKernel()
    order = []
    kernel.schedule_periodic(1.0, lambda: order.append("first"))
    kernel.schedule_periodic(1.0, lambda: order.append("second"))
    kernel.schedule_periodic(1.0, lambda: order.append("third"))
    kernel.run(until=1.0)
    assert order == ["first", "second", "third"]


def test_different_phases_use_different_buckets():
    kernel = SimKernel()
    fired = []
    kernel.schedule_periodic(2.0, lambda: fired.append(("a", kernel.now)),
                             first_delay=0.5)
    kernel.schedule_periodic(2.0, lambda: fired.append(("b", kernel.now)),
                             first_delay=1.5)
    kernel.run(until=3.0)
    assert fired == [("a", 0.5), ("b", 1.5), ("a", 2.5)]
    assert wheel_of(kernel).live_bucket_count == 2


def test_deregister_is_o1_and_leaves_no_heap_garbage():
    kernel = SimKernel()
    fired = []
    handle = kernel.schedule_periodic(1.0, lambda: fired.append("x"))
    keeper = kernel.schedule_periodic(1.0, lambda: fired.append("y"))
    kernel.run(until=1.5)
    handle.stop()
    assert handle.stopped
    assert handle.next_fire_time is None
    kernel.run(until=3.5)
    assert fired == ["x", "y", "y", "y"]
    # The shared bucket keeps ticking for the survivor; no cancelled
    # events pile up (the wheel never allocates cancellable events).
    assert keeper.ticks == 3
    assert wheel_of(kernel).member_count() == 1


def test_emptied_bucket_dies_without_rearming():
    kernel = SimKernel()
    handle = kernel.schedule_periodic(1.0, lambda: None)
    handle.stop()
    kernel.run(until=5.0)
    assert wheel_of(kernel).live_bucket_count == 0
    # Only the first bucket event was ever scheduled.
    assert wheel_of(kernel).bucket_event_count == 1


def test_stop_from_own_callback_cancels_next_tick():
    kernel = SimKernel()
    box = {}

    def callback():
        box["handle"].stop()

    box["handle"] = kernel.schedule_periodic(1.0, callback)
    kernel.run(until=10.0)
    assert box["handle"].ticks == 1


def test_member_can_stop_a_later_member_of_the_same_bucket():
    kernel = SimKernel()
    fired = []
    box = {}

    def stopper():
        fired.append("stopper")
        box["victim"].stop()

    kernel.schedule_periodic(1.0, stopper)
    box["victim"] = kernel.schedule_periodic(
        1.0, lambda: fired.append("victim")
    )
    kernel.run(until=1.0)
    # The victim was registered after the stopper, shares its bucket,
    # and must not fire once stopped mid-bucket.
    assert fired == ["stopper"]


def test_set_period_rebuckets_at_next_fire():
    kernel = SimKernel()
    times = []
    handle = kernel.schedule_periodic(1.0, lambda: times.append(kernel.now))
    kernel.run(until=1.5)
    handle.set_period(2.0)
    assert handle.period == 2.0
    kernel.run(until=7.0)
    # The already-armed tick at t=2 fires on the old schedule; the new
    # period applies from its re-arm (PeriodicTimer semantics).
    assert times == [1.0, 2.0, 4.0, 6.0]


def test_rebucketed_member_joins_existing_bucket():
    kernel = SimKernel()
    fired = []
    kernel.schedule_periodic(2.0, lambda: fired.append("slow"))
    fast = kernel.schedule_periodic(1.0, lambda: fired.append("fast"))
    kernel.run(until=1.5)
    fast.set_period(2.0)
    kernel.run(until=6.5)
    # fast re-arms at 2, then every 2 — phase-aligned with slow at even
    # times; both keep firing (coalesced into one bucket from t=4 on).
    assert fired == [
        "fast", "slow", "fast", "slow", "fast", "slow", "fast",
    ]
    assert wheel_of(kernel).live_bucket_count == 1


def test_registration_during_bucket_fire_joins_future_bucket():
    kernel = SimKernel()
    fired = []
    box = {}

    def parent():
        fired.append(("parent", kernel.now))
        if "child" not in box:
            box["child"] = kernel.schedule_periodic(
                1.0, lambda: fired.append(("child", kernel.now))
            )

    kernel.schedule_periodic(1.0, parent)
    kernel.run(until=2.0)
    assert fired == [
        ("parent", 1.0), ("parent", 2.0), ("child", 2.0),
    ]


def test_invalid_arguments_rejected():
    kernel = SimKernel()
    with pytest.raises(SimulationError):
        kernel.schedule_periodic(0.0, lambda: None)
    with pytest.raises(SchedulingInPastError):
        kernel.schedule_periodic(1.0, lambda: None, first_delay=-0.5)
    handle = kernel.schedule_periodic(1.0, lambda: None)
    with pytest.raises(SimulationError):
        handle.set_period(-1.0)


def test_failing_member_does_not_silence_bucket_mates():
    kernel = SimKernel()
    fired = []

    def bad():
        raise RuntimeError("boom")

    kernel.schedule_periodic(1.0, bad)
    survivor = kernel.schedule_periodic(1.0, lambda: fired.append(kernel.now))
    with pytest.raises(RuntimeError):
        kernel.run(until=1.0)
    # The survivor fired this tick despite its bucket mate's crash, and
    # both members were re-armed for the next beat.
    assert fired == [1.0]
    assert survivor.next_fire_time == 2.0


def test_double_stop_is_idempotent():
    kernel = SimKernel()
    handle = kernel.schedule_periodic(1.0, lambda: None)
    handle.stop()
    handle.stop()
    assert handle.stopped


def test_bucket_events_are_o_buckets_not_o_members():
    kernel = SimKernel()
    members = 50
    counts = [0] * members
    for index in range(members):
        def make(i):
            return lambda: counts.__setitem__(i, counts[i] + 1)

        kernel.schedule_periodic(1.0, make(index), first_delay=0.5)
    kernel.run(until=10.0)
    assert all(count == 10 for count in counts)
    # 50 members x 10 ticks = 500 member fires, but only 10 bucket
    # events (plus the one pending re-arm) ever touched the heap.
    assert wheel_of(kernel).bucket_event_count == 11



def test_stopping_every_member_leaves_the_kernel_quiescent():
    kernel = SimKernel()
    ticks = []
    fast = kernel.schedule_periodic(0.5, lambda: ticks.append("fast"),
                                    first_delay=0.0)
    slow = kernel.schedule_periodic(10.0, lambda: ticks.append("slow"))
    kernel.run(until=1.2)
    assert ticks == ["fast", "fast", "fast"]
    fast.stop()
    slow.stop()
    # Each emptied bucket dies when its one pending event fires, so the
    # heap drains and no callback reaches a torn-down caller.
    kernel.run(until=20.0)
    assert ticks == ["fast", "fast", "fast"]
    assert wheel_of(kernel).member_count() == 0
    assert wheel_of(kernel).live_bucket_count == 0
    assert kernel.pending_count == 0


def test_an_emptied_key_refilled_before_its_fire_keeps_its_one_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule_periodic(1.0, lambda: fired.append("gone")).stop()
    kernel.schedule_periodic(1.0, lambda: fired.append("new"))
    # The emptied bucket is still keyed: the newcomer joins it instead of
    # arming a second event for the same (period, fire time).
    assert wheel_of(kernel).bucket_event_count == 1
    assert kernel.pending_count == 1
    kernel.run(until=2.0)
    assert fired == ["new", "new"]


def test_a_key_refilled_after_its_bucket_died_arms_a_fresh_event():
    kernel = SimKernel()
    fired = []
    kernel.schedule_periodic(1.0, lambda: fired.append("gone")).stop()
    kernel.run(until=1.0)
    assert wheel_of(kernel).live_bucket_count == 0
    # Same key (period 1.0, fire time 1.0) as the bucket that just died.
    handle = kernel.schedule_periodic(
        1.0, lambda: fired.append(kernel.now), first_delay=0.0
    )
    assert wheel_of(kernel).bucket_event_count == 2
    kernel.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert handle.next_fire_time == 3.0


def test_aligned_members_beat_in_registration_order_until_stopped():
    kernel = SimKernel()
    fired = []
    handles = [
        kernel.schedule_periodic(
            0.03, (lambda i: lambda: fired.append(i))(index), first_delay=0.03
        )
        for index in range(3)
    ]
    kernel.run(until=0.1)
    assert fired == [0, 1, 2] * 3
    for handle in handles:
        handle.stop()
    kernel.run(until=0.3)
    assert fired == [0, 1, 2] * 3
    assert wheel_of(kernel).bucket_event_count == 4
