"""Behavior base classes for application code running inside activities.

A behavior is the "served object" of an activity.  ``handle`` dispatches
incoming requests; by default it looks up a ``do_<method>`` attribute,
which keeps workload code declarative.  ``proxies`` is the tuple of stubs
deserialized from the request's references, ``()`` when it carries none::

    class Worker(Behavior):
        def do_compute(self, ctx, request, proxies):
            yield ctx.sleep(1.5)
            return 42

Dispatch contract: the service loop resolves a handler once per
(behavior class, method) pair (:class:`HandlerTable`): the class's
``do_<method>``, or its ``handle`` for every method when the class
overrides :meth:`Behavior.handle` (:class:`FunctionBehavior`,
:class:`SinkBehavior`, user subclasses).  Handlers are looked up on the
class, never on the instance.  An unknown method raises
:class:`RuntimeModelError` naming the class and the method.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Tuple

from repro.errors import RuntimeModelError
from repro.runtime.proxy import Proxy
from repro.runtime.request import Request


class Behavior:
    """Base class: dispatches ``method`` to ``do_<method>``."""

    def on_start(self, ctx) -> Any:
        """Optional start routine (may be a generator)."""
        return None

    def handle(self, ctx, request: Request, proxies: Tuple[Proxy, ...]) -> Any:
        return _do_method(type(self), request.method)(self, ctx, request, proxies)


def _do_method(cls: type, method: str) -> Callable[..., Any]:
    handler = getattr(cls, f"do_{method}", None)
    if handler is None:
        raise RuntimeModelError(
            f"{cls.__name__} has no handler for method {method!r}"
        )
    return handler


class HandlerTable(dict):
    """``method -> handler(behavior, ctx, request, proxies)`` of one
    behavior class, resolved on a method's first request."""

    __slots__ = ("cls",)

    def __init__(self, cls: type) -> None:
        self.cls = cls

    def __missing__(self, method: str) -> Callable[..., Any]:
        handler = getattr(self.cls, "handle", Behavior.handle)
        if handler is Behavior.handle:
            handler = _do_method(self.cls, method)
        self[method] = handler
        return handler


#: ``handler_table(cls)``: the one :class:`HandlerTable` of a class.
handler_table = cache(HandlerTable)


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
