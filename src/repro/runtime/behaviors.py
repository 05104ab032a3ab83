"""Behavior base classes for application code running inside activities.

A behavior is the "served object" of an activity.  ``handle`` dispatches
incoming requests; by default it looks up a ``do_<method>`` attribute,
which keeps workload code declarative.  ``proxies`` is the tuple of stubs
deserialized from the request's references, ``()`` when it carries none::

    class Worker(Behavior):
        def do_compute(self, ctx, request, proxies):
            yield ctx.sleep(1.5)
            return 42
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.errors import RuntimeModelError
from repro.runtime.proxy import Proxy
from repro.runtime.request import Request


class Behavior:
    """Base class: dispatches ``method`` to ``do_<method>``."""

    def on_start(self, ctx) -> Any:
        """Optional start routine (may be a generator)."""
        return None

    def handle(self, ctx, request: Request, proxies: Tuple[Proxy, ...]) -> Any:
        handler = getattr(self, f"do_{request.method}", None)
        if handler is None:
            raise RuntimeModelError(
                f"{type(self).__name__} has no handler for "
                f"method {request.method!r}"
            )
        return handler(ctx, request, proxies)


class FunctionBehavior(Behavior):
    """Wraps a single callable serving every method."""

    def __init__(self, fn: Callable[[Any, Request, Tuple[Proxy, ...]], Any]) -> None:
        self._fn = fn

    def handle(self, ctx, request: Request, proxies: Tuple[Proxy, ...]) -> Any:
        return self._fn(ctx, request, proxies)


class SinkBehavior(Behavior):
    """Accepts any request and does nothing.

    Used for dummy root activities (the paper's stand-in referencer for
    non-active code, Sec. 4.1) and as an inert cycle member in tests.
    """

    def handle(self, ctx, request: Request, proxies: Tuple[Proxy, ...]) -> Any:
        return None
