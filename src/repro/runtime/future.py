"""Futures for asynchronous method calls.

Paper Sec. 4.1: "Method calls on active objects are transparently
asynchronous as they return a future...  An active object waiting for a
future is busy as waiting for a future can only be done during the service
of a request."  The service loop enforces the second half: a behavior
coroutine that yields a :class:`Future` keeps its activity *busy* until
the future resolves.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Tuple

from repro.errors import RuntimeModelError

_future_ids = itertools.count(1)


def reset_future_ids() -> None:
    """Restart the process-global future-id stream (future ids ride
    reply addresses across shard frames; see
    :func:`repro.shard.worker.reset_process_counters`)."""
    global _future_ids
    _future_ids = itertools.count(1)


_PENDING: Any = object()  # "no value yet" (``None`` is a value)


class Future:
    """Placeholder for the result of an asynchronous call.

    Only a future that waits on the fabric, ``Future()``, draws an id
    (its reply address carries it back).  ``Future(value, refs)`` is an
    answer served at the call site: born resolved, ``future_id`` 0.
    """

    __slots__ = ("future_id", "resolved", "_value", "_refs", "_callbacks")

    def __init__(self, value: Any = _PENDING, refs: Tuple[Any, ...] = ()) -> None:
        pending = value is _PENDING
        self.future_id = next(_future_ids) if pending else 0
        self.resolved = not pending
        self._value: Any = None if pending else value
        self._refs = refs
        # A resolved future's on_resolve runs at once and never appends.
        self._callbacks: List[Callable[["Future"], None]] = [] if pending else ()

    @property
    def value(self) -> Any:
        """The result; only readable once resolved."""
        if not self.resolved:
            raise RuntimeModelError(
                f"future #{self.future_id} read before resolution"
            )
        return self._value

    @property
    def refs(self) -> Tuple[Any, ...]:
        """Proxies deserialized from the reply, if any."""
        if not self.resolved:
            raise RuntimeModelError(
                f"future #{self.future_id} refs read before resolution"
            )
        return self._refs

    def resolve(self, value: Any, refs: Tuple[Any, ...] = ()) -> None:
        """Deliver the result; runs queued callbacks in registration order."""
        if self.resolved:
            raise RuntimeModelError(f"future #{self.future_id} resolved twice")
        self.resolved = True
        self._value = value
        self._refs = refs
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def on_resolve(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` at resolution (immediately if resolved)."""
        if self.resolved:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"Future(#{self.future_id} {state})"
