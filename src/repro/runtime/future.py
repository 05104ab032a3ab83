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
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import RuntimeModelError

_future_ids = itertools.count(1)


def reset_future_ids() -> None:
    """Restart the process-global future-id stream (see
    :func:`repro.runtime.request.reset_request_ids`; future ids ride
    reply addresses across shard frames)."""
    global _future_ids
    _future_ids = itertools.count(1)


class Future:
    """Placeholder for the result of an asynchronous call."""

    __slots__ = ("future_id", "_resolved", "_value", "_refs", "_callbacks")

    def __init__(self) -> None:
        self.future_id = next(_future_ids)
        self._resolved = False
        self._value: Any = None
        self._refs: Tuple[Any, ...] = ()
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def resolved(self) -> bool:
        return self._resolved

    @property
    def value(self) -> Any:
        """The result; only readable once resolved."""
        if not self._resolved:
            raise RuntimeModelError(
                f"future #{self.future_id} read before resolution"
            )
        return self._value

    @property
    def refs(self) -> Tuple[Any, ...]:
        """Proxies deserialized from the reply, if any."""
        if not self._resolved:
            raise RuntimeModelError(
                f"future #{self.future_id} refs read before resolution"
            )
        return self._refs

    def resolve(self, value: Any, refs: Tuple[Any, ...] = ()) -> None:
        """Deliver the result; runs queued callbacks in registration order."""
        if self._resolved:
            raise RuntimeModelError(f"future #{self.future_id} resolved twice")
        self._resolved = True
        self._value = value
        self._refs = refs
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def on_resolve(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` at resolution (immediately if resolved)."""
        if self._resolved:
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self._resolved else "pending"
        return f"Future(#{self.future_id} {state})"
