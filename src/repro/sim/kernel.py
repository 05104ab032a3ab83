"""Discrete-event simulation kernel.

The kernel is a classic heap-ordered event queue with a simulated clock
measured in seconds (floats).  Everything in the reproduction — network
latency, request service times, the TTB heartbeat, TTA expiry — is driven
by this single clock, which makes every run fully deterministic for a given
seed and schedule.

Determinism matters here because the DGC algorithm is specified in terms of
physical-time bounds (``TTA > 2*TTB + MaxComm``); a deterministic clock lets
the test-suite probe exactly the boundary cases the paper reasons about.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import itertools
# Bound as module globals: ``heapq.heappush`` resolves an attribute per
# call, and the schedule/step paths run once per staged delivery — at
# pulse-fabric scale (millions of events) the attribute walk is real.
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SchedulingInPastError, SimulationError


class Event:
    """A scheduled callback; returned by :meth:`SimKernel.schedule`.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    kernel skips it when popped.  This avoids an O(n) heap removal.

    ``owner`` is the kernel that keeps a maintained pending-event count;
    cancellation notifies it so :attr:`SimKernel.pending_count` stays
    exact without scanning the heap; fired (detached) events leave
    ``owner`` ``None``.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "label", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        label: str,
        owner: Optional["SimKernel"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        self.owner = owner

    def cancel(self) -> None:
        """Mark the event so the kernel never fires it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._on_event_cancelled()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, label={self.label!r}, {state})"


class SimKernel:
    """Heap-based discrete-event scheduler with a simulated clock.

    Ties are broken by scheduling order (FIFO among same-time events), which
    is essential for the per-connection FIFO guarantee the DGC relies on.

    The heap holds ``(time, seq, event, callback, args)`` tuples rather
    than bare events: tuple comparison runs in C, whereas ``Event.__lt__``
    was the single hottest function on large runs (one Python call per
    heap sift step).  ``event`` is ``None`` for the fire-and-forget fast
    path (:meth:`schedule_fire_at`), which skips the :class:`Event`
    allocation entirely for callbacks that are never cancelled — message
    deliveries, the bulk of all events on big runs.

    ``now`` is the current simulated time, in seconds: a plain slotted
    attribute, so every clock read on the hot paths is one attribute
    load and no call.
    """

    __slots__ = (
        "now", "_heap", "_seq", "_fired", "_scheduled", "_pending",
        "_peak_pending", "_running", "_stop_requested", "_beat_wheel",
    )

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, Optional[Event], Callable[..., None], Tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self._fired = 0
        self._scheduled = 0
        self._pending = 0
        self._peak_pending = 0
        self._running = False
        self._stop_requested = False
        self._beat_wheel = None

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events.

        Maintained incrementally (O(1)): incremented on schedule,
        decremented on fire and on :meth:`Event.cancel`.
        """
        return self._pending

    @property
    def peak_pending_count(self) -> int:
        """High-water mark of the pending-event queue depth."""
        return self._peak_pending

    @property
    def fired_count(self) -> int:
        """Total number of events that have executed."""
        return self._fired

    @property
    def scheduled_count(self) -> int:
        """Total number of events ever scheduled."""
        return self._scheduled

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback!r} with negative delay {delay}"
            )
        return self.schedule_at(self.now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback!r} at {time} < now {self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, args, label, owner=self)
        heappush(self._heap, (time, seq, event, callback, args))
        self._scheduled += 1
        self._pending += 1
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending
        return event

    def schedule_fire_at(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Fire-and-forget fast path: schedule a callback that will never
        be cancelled, without allocating an :class:`Event`.

        Used by the network fabric for message deliveries; the past-time
        check still applies, but no handle is returned.
        """
        if time < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {callback!r} at {time} < now {self.now}"
            )
        heappush(self._heap, (time, next(self._seq), None, callback, args))
        self._scheduled += 1
        self._pending += 1
        if self._pending > self._peak_pending:
            self._peak_pending = self._pending

    def _on_event_cancelled(self) -> None:
        self._pending -= 1

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        label: str = "beat",
    ):
        """Register a periodic callback on the kernel's beat wheel.

        Callbacks sharing a ``(period, phase)`` bucket ride one heap
        event per tick (see :mod:`repro.sim.beats`), so N aligned
        heartbeats cost O(buckets) heap traffic instead of O(N).  The
        returned :class:`repro.sim.beats.BeatHandle` supports O(1)
        ``stop()`` (bucket-aware cancel: no dead event is left in the
        heap) and ``set_period()`` (re-buckets at the next fire).
        """
        return self.beat_wheel.register(
            period, callback, first_delay=first_delay, label=label
        )

    @property
    def beat_wheel(self):
        """The kernel's (lazily created) beat-bucket scheduler."""
        wheel = self._beat_wheel
        if wheel is None:
            from repro.sim.beats import BeatWheel

            wheel = self._beat_wheel = BeatWheel(self)
        return wheel

    def request_stop(self) -> None:
        """Ask a :meth:`run` in progress to return after the current event.

        The event-driven quiescence path: a callback that detects the
        condition it was waiting for (e.g. the world's live non-root
        counter hitting zero) stops the kernel immediately instead of the
        caller polling a predicate at a fixed interval.
        """
        self._stop_requested = True

    def next_event_time(self) -> Optional[float]:
        """The earliest live event's time, or ``None`` when the heap is
        empty — the per-round bid a shard worker reports so the
        coordinator can compute its next horizon."""
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event is not None and event.cancelled:
                heappop(heap)
                continue
            return head[0]
        return None

    def advance(self, horizon: float) -> int:
        """Fire every event strictly before ``horizon``, in heap order,
        then move the clock to ``horizon``.  Returns the number of events
        fired.

        The shard worker's drive shaft.  The horizon is *exclusive*: an
        event at exactly ``horizon`` stays pending, because the granting
        coordinator only guarantees that no cross-shard frame can arrive
        strictly before it.  Callbacks may schedule freely; new events
        inside the window fire in this same call.  Re-granting the
        current time is a no-op.
        """
        if horizon < self.now:
            raise SchedulingInPastError(
                f"cannot advance backwards to {horizon} (now={self.now})"
            )
        heap = self._heap
        fired = 0
        while heap:
            head = heap[0]
            if head[0] >= horizon:
                break
            heappop(heap)
            event = head[2]
            if event is not None:
                if event.cancelled:
                    continue
                # Detach so a cancel() after firing is a no-op instead of
                # double-decrementing the pending counter.
                event.owner = None
            self.now = head[0]
            self._fired += 1
            self._pending -= 1
            head[3](*head[4])
            fired += 1
        self.now = horizon
        return fired

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, mirroring "run for N seconds";
        a run cut short by ``max_events`` leaves it at the last fired
        event, so the events still due before ``until`` never see it run
        backwards.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        fired = 0
        heap = self._heap
        try:
            while heap:
                if self._stop_requested:
                    break
                if max_events is not None and fired >= max_events:
                    until = None
                    break
                head = heap[0]
                event = head[2]
                if event is not None and event.cancelled:
                    heappop(heap)
                    continue
                if until is not None and head[0] > until:
                    break
                heappop(heap)
                if event is not None:
                    # Detach so a cancel() after firing is a no-op instead
                    # of double-decrementing the pending counter.
                    event.owner = None
                self.now = head[0]
                self._fired += 1
                self._pending -= 1
                head[3](*head[4])
                fired += 1
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stop_requested:
            # A stop request leaves the clock at the stopping event so the
            # caller can observe exactly when the condition was met.
            self.now = until
        return fired

    def run_until_quiescent(
        self,
        predicate: Callable[[], bool],
        check_interval: float,
        timeout: float,
    ) -> bool:
        """Run, polling ``predicate`` every ``check_interval`` simulated
        seconds; return ``True`` as soon as it holds, ``False`` at timeout.
        """
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.run(until=min(self.now + check_interval, deadline))
            if not self._heap and predicate():
                return True
            if not self._heap:
                return predicate()
        return predicate()
