"""The beat-bucket scheduler: a timer wheel for periodic callbacks.

The DGC gives every active object a heartbeat (the TTB broadcast, paper
Alg. 2).  Scheduling each heartbeat as its own kernel event means the
event heap permanently holds O(activities) timer entries and churns
through thousands of independent heartbeat events per beat period at
paper scale (6401 activities, Fig. 10).

The :class:`BeatWheel` coalesces every periodic callback sharing a
``(period, fire_time)`` bucket into **one** heap event per bucket per
tick:

* callbacks whose phases land in the same bucket (e.g. start jitter
  quantized to a slot grid — :attr:`repro.core.config.DgcConfig.beat_slots`)
  ride a single kernel event, turning heartbeat scheduling from
  O(activities) heap traffic into O(buckets);
* register/deregister are O(1) dict operations — no heap surgery when a
  doomed activity stops beating, and a bucket whose members all left is
  skipped lazily when its event fires (the kernel's cancelled-event
  idiom, without allocating cancellable events at all);
* intra-bucket order is deterministic: members are seq-stamped at
  registration and kept in insertion order, which is exactly the order
  the equivalent per-event timers would fire in (FIFO among same-time
  events), so fixed-seed simulations are bit-identical with per-event
  scheduling;
* a member may change period (:meth:`BeatHandle.set_period`, the
  dynamic-TTB extension of paper Sec. 7.1); it is re-bucketed at its
  next fire, matching the per-event timer's re-arm semantics.

The wheel is hierarchical in the sense of a classic hashed timer wheel:
the outer level is the kernel's time-ordered heap (one entry per live
bucket), the inner level is the bucket's ordered member table; the
kernel only ever sees the outer level.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SchedulingInPastError, SimulationError


class BeatHandle:
    """One periodic registration; returned by :meth:`BeatWheel.register`.

    Mirrors the :class:`repro.sim.timers.PeriodicTimer` surface
    (``ticks``, ``stopped``, ``period``, ``stop``, ``set_period``) so the
    layers above can treat wheel-batched and per-event scheduling
    interchangeably.
    """

    __slots__ = ("_wheel", "seq", "callback", "_period", "label", "ticks",
                 "_stopped", "_bucket")

    def __init__(
        self,
        wheel: "BeatWheel",
        seq: int,
        callback: Callable[[], None],
        period: float,
        label: str,
    ) -> None:
        self._wheel = wheel
        self.seq = seq
        self.callback = callback
        self._period = period
        self.label = label
        self.ticks = 0
        self._stopped = False
        self._bucket: Optional["_Bucket"] = None

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def next_fire_time(self) -> Optional[float]:
        """When this member next ticks (``None`` once stopped)."""
        bucket = self._bucket
        return bucket.fire_at if bucket is not None else None

    def stop(self) -> None:
        """Deregister in O(1); the callback never fires again.

        Unlike cancelling a per-event timer, nothing is left behind in
        the kernel heap: the member is removed from its bucket and the
        bucket's event simply finds one fewer member when it fires.
        """
        self._wheel._deregister(self)

    def set_period(self, period: float) -> None:
        """Change the period; takes effect from the *next* re-arm,
        exactly like :meth:`PeriodicTimer.set_period` — the member is
        re-bucketed under the new period when it next fires (dynamic-TTB,
        paper Sec. 7.1)."""
        if period <= 0:
            raise SimulationError(
                f"beat period must be positive, got {period}"
            )
        self._period = period


class _Bucket:
    """All members sharing one (period, fire_time) coordinate."""

    __slots__ = ("fire_at", "period", "members")

    def __init__(self, fire_at: float, period: float) -> None:
        self.fire_at = fire_at
        self.period = period
        #: seq -> handle, in registration order (deterministic firing).
        self.members: Dict[int, BeatHandle] = {}


class BeatWheel:
    """Coalesces periodic callbacks into one kernel event per bucket.

    ``kernel`` needs ``now`` and ``schedule_fire_at(time, callback,
    args)``; it is single-threaded, so registrations never race a fire.
    """

    __slots__ = (
        "_kernel", "_seq", "_buckets", "_registered", "_bucket_events",
    )

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self._seq = itertools.count()
        self._buckets: Dict[Tuple[float, float], _Bucket] = {}
        self._registered = 0
        self._bucket_events = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def registered_count(self) -> int:
        """Total registrations ever made."""
        return self._registered

    @property
    def bucket_event_count(self) -> int:
        """Kernel events scheduled on behalf of buckets — the heap
        traffic this wheel generates (compare with ``registered_count``
        times ticks for the per-event equivalent)."""
        return self._bucket_events

    @property
    def live_bucket_count(self) -> int:
        return len(self._buckets)

    def member_count(self) -> int:
        """Live members across all buckets (O(buckets))."""
        return sum(len(b.members) for b in self._buckets.values())

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        label: str = "beat",
    ) -> BeatHandle:
        """Register ``callback`` to fire every ``period`` seconds, first
        in ``first_delay`` seconds (default: one full period)."""
        if period <= 0:
            raise SimulationError(
                f"beat period must be positive, got {period}"
            )
        if first_delay is not None and first_delay < 0:
            raise SchedulingInPastError(
                f"cannot register {label!r} with negative first delay "
                f"{first_delay}"
            )
        handle = BeatHandle(self, next(self._seq), callback, period, label)
        first = period if first_delay is None else first_delay
        self._add(handle, period, self._kernel.now + first)
        self._registered += 1
        return handle

    def _add(self, handle: BeatHandle, period: float, fire_at: float) -> None:
        key = (period, fire_at)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(fire_at, period)
            self._buckets[key] = bucket
            self._kernel.schedule_fire_at(fire_at, self._fire, (key,))
            self._bucket_events += 1
        bucket.members[handle.seq] = handle
        handle._bucket = bucket

    def _deregister(self, handle: BeatHandle) -> None:
        if handle._stopped:
            return
        handle._stopped = True
        bucket = handle._bucket
        if bucket is not None:
            bucket.members.pop(handle.seq, None)
            handle._bucket = None
        # An emptied bucket stays keyed until its event fires (the
        # event is fire-and-forget); the fire finds it empty and lets
        # it die without re-arming.

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _fire(self, key: Tuple[float, float]) -> None:
        # Every key has exactly one pending bucket event: the one
        # scheduled when the key was created, which pops it here.
        bucket = self._buckets.pop(key)
        if not bucket.members:
            return
        fire_at = bucket.fire_at
        # Snapshot: a member's callback may stop (or re-period) any
        # other member of this same bucket mid-iteration.
        members = list(bucket.members.values())
        error: Optional[Exception] = None
        for handle in members:
            if handle._stopped:
                continue
            # Re-arm before the callback (matching PeriodicTimer): a
            # callback that stops its own timer must cancel the *next*
            # tick, and the period change of dynamic TTB takes effect
            # here, at the re-arm — re-bucketing the member in O(1).
            period = handle._period
            self._add(handle, period, fire_at + period)
            handle.ticks += 1
            try:
                handle.callback()
            except Exception as exc:
                # One member's failure must not silence its bucket
                # mates (per-event timers were isolated): keep
                # re-arming and firing the rest, then surface the first
                # error to the kernel.
                if error is None:
                    error = exc
        if error is not None:
            raise error
