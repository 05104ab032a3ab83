"""Periodic timers on top of the event kernel.

The DGC broadcast loop ("every TTB on every active object", paper Alg. 2)
is a periodic timer.  The timer supports an optional start jitter so that
activities created at the same instant do not broadcast in lock-step, which
is how the paper's implementation behaves (each activity starts its own
beat when created).

Since the beat-wheel refactor, :class:`PeriodicTimer` is a thin adapter
over a beat bucket (:mod:`repro.sim.beats`): the start jitter maps to the
bucket phase, and timers sharing a period and phase share one kernel
event per tick.  The pre-wheel behaviour — one cancellable kernel event
per timer per tick — is kept as the explicit ``per_event=True`` mode: it
serves the ``per-event`` reference core (see
:data:`repro.core.config.AGGREGATION_MODES`), which schedules every
heartbeat tick as its own kernel event so the equivalence suites compare
the wheel against an independent scheduler.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Event, SimKernel


class PeriodicTimer:
    """Fires ``callback()`` every ``period`` simulated seconds until stopped."""

    def __init__(
        self,
        kernel: SimKernel,
        period: float,
        callback: Callable[[], None],
        *,
        initial_delay: Optional[float] = None,
        label: str = "periodic",
        per_event: bool = False,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"timer period must be positive, got {period}")
        self._kernel = kernel
        self._callback = callback
        self._label = label
        self._handle = None
        self._event: Optional[Event] = None
        self._period = period
        self._stopped = False
        self._ticks = 0
        if not per_event:
            self._handle = kernel.schedule_periodic(
                period, callback, first_delay=initial_delay, label=label
            )
            return
        first = period if initial_delay is None else initial_delay
        self._event = kernel.schedule(first, self._fire, label=label)

    @property
    def ticks(self) -> int:
        """Number of times the timer has fired."""
        if self._handle is not None:
            return self._handle.ticks
        return self._ticks

    @property
    def stopped(self) -> bool:
        if self._handle is not None:
            return self._handle.stopped
        return self._stopped

    @property
    def period(self) -> float:
        if self._handle is not None:
            return self._handle.period
        return self._period

    @property
    def next_fire_time(self) -> Optional[float]:
        """When the timer next fires (``None`` once stopped)."""
        if self._handle is not None:
            return self._handle.next_fire_time
        return self._event.time if self._event is not None else None

    def stop(self) -> None:
        """Cancel the timer; the callback will never fire again."""
        if self._handle is not None:
            self._handle.stop()
            return
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def set_period(self, period: float) -> None:
        """Change the period; takes effect from the *next* re-arm.

        Used by the dynamic-TTB extension (paper Sec. 7.1): collectors
        speed their beat up when garbage is suspected and relax it when
        the system is loaded.  On the wheel this re-buckets the member
        at its next fire.
        """
        if self._handle is not None:
            self._handle.set_period(period)
            return
        if period <= 0:
            raise SimulationError(f"timer period must be positive, got {period}")
        self._period = period

    def _fire(self) -> None:
        if self._stopped:
            return
        self._ticks += 1
        # Re-arm before the callback so a callback that stops the timer
        # cancels the already-scheduled next tick.  ``schedule_at`` is
        # called directly: the period is validated positive, so the
        # wrapper's negative-delay check per tick is redundant.
        self._event = self._kernel.schedule_at(
            self._kernel.now + self._period, self._fire, label=self._label
        )
        self._callback()
