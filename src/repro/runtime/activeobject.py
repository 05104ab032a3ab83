"""Activities: active objects with a request queue and a service loop.

An activity serves requests one at a time.  Behavior handlers may be plain
functions (complete immediately) or generators that yield:

* :class:`Sleep` — modelled compute time; the activity stays **busy**,
* :class:`repro.runtime.future.Future` — wait for an asynchronous result;
  the activity stays **busy** (paper Sec. 4.1: waiting for a future can
  only happen during the service of a request).

A request that finds no handler in flight is served in the frame that
delivers it (:meth:`Activity.deliver`), whose loop then drains the queue;
a suspended generator handler restarts that loop when it finishes.

The *idle* predicate the DGC consumes (paper Sec. 4.1) is therefore exact:
an activity is idle iff its queue is empty and no handler is in flight.
Root activities (registered in the registry, or dummy referencers for
non-active code) are **never idle**.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Generator
from functools import cached_property, partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import RuntimeModelError
from repro.runtime.behaviors import handler_table
from repro.runtime.future import Future
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import Proxy, ProxyTable, RemoteRef
from repro.runtime.request import Request


class Sleep:
    """Yieldable: suspend the current handler for ``duration`` seconds
    of simulated compute time (the activity remains busy)."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise RuntimeModelError(f"negative sleep {duration}")
        self.duration = duration


class ActivityState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    TERMINATED = "terminated"


class ActivityContext:
    """The API surface a behavior uses to interact with the world.

    It is deliberately narrow: creating activities, calling methods,
    sleeping, and managing held references (the simulated equivalent of
    local variables / fields holding stubs).

    The send, registry and stub verbs (``call``, ``lookup``, ``bind``,
    ``unbind``, ``drop``, ``acquire``) are their engines' own callables,
    bound to this context's node and activity the first time the
    behavior uses one and then kept in the instance dict, where every
    later read finds it (a ``cached_property`` is a non-data
    descriptor).  A call enters the engine in the caller's frame, and an
    activity holds only the verbs it uses.
    """

    #: ``yield ctx.sleep(duration)`` models compute time: the class
    #: itself, so a sleep is one frame and the context keeps no state.
    sleep = Sleep

    def __init__(self, activity: "Activity") -> None:
        self._activity = activity

    @cached_property
    def lookup(self) -> Callable[[str], Future]:
        """``lookup(name)``: :meth:`NamingService.lookup_from
        <repro.runtime.registry.NamingService.lookup_from>`."""
        activity = self._activity
        node = activity.node
        return partial(node.world.registry.lookup_from, node, activity)

    @cached_property
    def bind(self) -> Callable[[str, Union[Proxy, RemoteRef]], Future]:
        """``bind(name, target)``: :meth:`NamingService.bind_from
        <repro.runtime.registry.NamingService.bind_from>`."""
        activity = self._activity
        node = activity.node
        return partial(node.world.registry.bind_from, node, activity)

    @cached_property
    def unbind(self) -> Callable[[str], Future]:
        """``unbind(name)``: :meth:`NamingService.bind_from
        <repro.runtime.registry.NamingService.bind_from>` with no target."""
        activity = self._activity
        node = activity.node
        return partial(node.world.registry.bind_from, node, activity)

    @cached_property
    def drop(self) -> Callable[[Proxy], None]:
        """``drop(proxy)``: :meth:`Activity.release_proxy`."""
        return self._activity.release_proxy

    @cached_property
    def acquire(self) -> Callable[[RemoteRef], Proxy]:
        """``acquire(ref)``: :meth:`Node.deserialize_ref
        <repro.runtime.node.Node.deserialize_ref>`."""
        activity = self._activity
        return partial(activity.node.deserialize_ref, activity)

    @property
    def id(self) -> ActivityId:
        return self._activity.id

    @property
    def now(self) -> float:
        return self._activity.node.kernel.now

    @property
    def node_name(self) -> str:
        return self._activity.node.name

    @cached_property
    def rng(self):
        """Deterministic per-activity random stream, derived once and
        kept here only: it dies with the activity."""
        return self._activity.node.rng_registry.derive(f"activity:{self.id}")

    def self_ref(self) -> RemoteRef:
        """A serializable reference to this activity (for passing around)."""
        return RemoteRef(self._activity.id, self._activity.node.name)

    def create(
        self,
        behavior: Any,
        *,
        node: Optional[str] = None,
        name: str = "",
        root: bool = False,
    ) -> Proxy:
        """Create a new activity; the creator holds a stub to it."""
        return self._activity.node.world.create_activity(
            behavior,
            node=node,
            name=name,
            root=root,
            creator=self._activity,
        )

    @cached_property
    def call(self) -> Callable[..., Optional[Future]]:
        """``call(target, method, payload_bytes=0, refs=(), data=None,
        expect_reply=False)``: :meth:`Node.send_request
        <repro.runtime.node.Node.send_request>`, which returns a
        :class:`Future` when ``expect_reply`` is set."""
        activity = self._activity
        return partial(activity.node.send_request, activity)

    def keep(self, proxy: Proxy) -> Proxy:
        """Prevent the automatic release of a request-delivered proxy."""
        self._activity._kept.add(proxy)
        return proxy

    def holds(self, target: ActivityId) -> bool:
        """Does this activity currently hold a stub to ``target``?"""
        return self._activity.proxies.holds(target)


class Activity:
    """One active object hosted on a node."""

    def __init__(
        self,
        node: "Node",  # noqa: F821 - circular, resolved at runtime
        activity_id: ActivityId,
        behavior: Any,
        *,
        root: bool = False,
    ) -> None:
        self.node = node
        self.id = activity_id
        self.behavior = behavior
        self._handlers = handler_table(type(behavior))
        self.is_root = root
        self.state = ActivityState.IDLE
        self.proxies = ProxyTable(activity_id)
        self.context = ActivityContext(self)
        self.collector: Optional[Any] = None  # attached by the world
        self.terminated_reason: Optional[str] = None
        self.requests_served = 0
        self._queue: Deque[Union[Request, Tuple[Request, Tuple[Proxy, ...]]]] = deque()
        self._run: Optional[Generator] = None  # the generator handler in flight
        self._serving = False
        self._kept: set = set()  # the kept stubs, not their ids (ids get reused)
        self._sent: Dict[ActivityId, Request] = {}  # target -> last bare ping
        self._idle_listeners: List[Callable[["Activity"], None]] = []

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------

    def is_idle(self) -> bool:
        """The DGC's idleness predicate: waiting for requests, not a root."""
        return self.state is ActivityState.IDLE and not self.is_root

    @property
    def terminated(self) -> bool:
        return self.state is ActivityState.TERMINATED

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def on_idle(self, listener: Callable[["Activity"], None]) -> None:
        """Subscribe to busy->idle transitions (used by the DGC clock)."""
        self._idle_listeners.append(listener)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run the behavior's ``on_start`` as an initial pseudo-request.

        Every activity passes through a busy->idle transition after its
        start routine, so its activity clock begins owned by itself.
        """
        self.state = ActivityState.BUSY
        self._serving = True  # a delivery during the start routine queues
        on_start = getattr(self.behavior, "on_start", None)
        result = on_start(self.context) if on_start is not None else None
        self._serving = False
        if self.state is ActivityState.TERMINATED:  # by its own start routine
            return
        if result is not None and isinstance(result, Generator):
            self._run = result
            self._step(result, None, (), None)  # its last step restarts the loop
        else:
            self._pump()

    def terminate(self, reason: str) -> None:
        """Remove the activity (DGC collection or explicit termination)."""
        if self.terminated:
            return
        self.state = ActivityState.TERMINATED
        self.terminated_reason = reason
        self._queue.clear()
        self._sent = {}
        self._run = None
        dead_tags = self.proxies.release_all()
        for tag in dead_tags:
            tag.dead = True
        if self.collector is not None:
            self.collector.on_terminated()
        self.node.on_activity_terminated(self, reason)

    # ------------------------------------------------------------------
    # Reference management
    # ------------------------------------------------------------------

    def release_proxy(self, proxy: Proxy) -> None:
        """Explicitly release a held stub: the engine behind ``ctx.drop``
        and the only release site of a :class:`ProxyTable` entry.  When
        the tag dies, tell the local GC; a stub released twice raises
        :class:`RuntimeModelError`."""
        if self.state is ActivityState.TERMINATED:
            return
        if proxy.released:
            raise RuntimeModelError(f"{proxy!r} released twice")
        proxy.released = True
        if self._kept:
            self._kept.discard(proxy)
        tag = proxy.tag
        entries = self.proxies._entries
        if tag.target not in entries or entries[tag.target] is not tag:
            return  # the tag generation was already retired
        tag.live_count -= 1
        if tag.live_count > 0:
            return
        del entries[tag.target]
        tag.dead = True
        if self.collector is None:
            self.node.local_gc.collected_tags += 1
        else:
            self.node.local_gc.notify_tag_dead(self, tag)

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------

    def deliver(self, request: Request, proxies: Tuple[Proxy, ...]) -> None:
        """Serve a request and the stubs deserialized from its references
        (``()`` for none) in this frame, then whatever queued up behind
        it, until the queue drains (the busy->idle transition) or a
        generator handler suspends.  While a handler is in flight or the
        loop drains, the request waits in the queue instead (bare when
        it has no stubs).  Iterative: a long queue must not recurse."""
        if self.state is ActivityState.TERMINATED:
            # A message reached a dead activity: visible symptom of either
            # an application bug or a wrongful collection; traced upstream.
            return
        if self._serving or self._run is not None:
            self._queue.append((request, proxies) if proxies else request)
            return
        self._serving = True
        try:
            self.state = ActivityState.BUSY
            behavior = self.behavior
            context = self.context
            handlers = self._handlers
            queue = self._queue
            while True:
                self.requests_served += 1
                result = handlers[request.method](behavior, context, request, proxies)
                if self.state is ActivityState.TERMINATED:
                    return  # the handler ended its own activity: no answer
                # ``None`` (most handlers) skips the ABC check; the class is
                # ``collections.abc.Generator``, which ``typing.Generator``
                # only delegates to through a chain of frames
                # (HOT-typing-check).
                if result is not None and isinstance(result, Generator):
                    self._run = result
                    self._step(result, request, proxies, None)
                    if self._run is not None:
                        return  # suspended: its last step restarts the loop
                elif proxies or request.reply_to is not None:
                    self._finish(request, proxies, result)
                if self.state is ActivityState.TERMINATED:
                    return
                if not queue:
                    self._become_idle()
                    return
                entry = queue.popleft()
                request, proxies = entry if type(entry) is tuple else (entry, ())
        finally:
            self._serving = False

    def _pump(self) -> None:
        """Restart :meth:`deliver`'s loop on the head of the queue, or go
        idle, after a generator handler has finished or :meth:`start`
        has returned (a no-op inside the loop)."""
        if self._serving or self._run is not None:
            return
        queue = self._queue
        if queue:
            entry = queue.popleft()
            request, proxies = entry if type(entry) is tuple else (entry, ())
            self.deliver(request, proxies)
        elif self.state is ActivityState.BUSY:
            self._become_idle()

    def _step(self, generator: Generator, request: Optional[Request],
              proxies: Tuple[Proxy, ...], send_value: Any) -> None:
        # Iterative, not recursive: a yielded future that is *already*
        # resolved (a local bind ack, a cache hit) resumes the generator
        # in this same frame.  Recursing through Future.on_resolve would
        # put one stack frame per synchronously-resolved await on the
        # call stack — a handler awaiting 10^5 local registry acks in a
        # row (the bind-heavy naming workload) overflows it.
        while True:
            if self._run is not generator:  # stale resume after termination
                return
            try:
                yielded = generator.send(send_value)
            except StopIteration as stop:
                if self._run is generator:  # not terminated by its last step
                    self._finish(request, proxies, stop.value)
                    self._run = None
                    self._pump()
                return
            # Exact types first, no ``isinstance`` call; a subclass takes
            # the same arm through the ``isinstance`` fallback.
            kind = type(yielded)
            if kind is Sleep or (
                kind is not Future and isinstance(yielded, Sleep)
            ):
                # Never cancelled (a stale resume is dropped by the
                # ``_run is not generator`` test above): no Event handle.
                kernel = self.node.kernel
                kernel.schedule_fire_at(
                    kernel.now + yielded.duration, self._step,
                    (generator, request, proxies, None),
                )
                return
            elif kind is Future or isinstance(yielded, Future):
                if yielded.resolved:
                    send_value = yielded
                    continue
                yielded.on_resolve(
                    lambda future: self._step(generator, request, proxies, future)
                )
                return
            else:
                raise RuntimeModelError(
                    f"handler of {self.id} yielded unsupported {yielded!r}"
                )

    def _finish(self, request: Optional[Request], proxies: Tuple[Proxy, ...],
                result: Any) -> None:
        """The one place a request is answered and its unkept stubs released."""
        if request is not None and request.reply_to is not None:
            self.node.send_reply(self, request, result)
        for proxy in proxies:
            if proxy not in self._kept and not proxy.released:
                self.release_proxy(proxy)

    def _become_idle(self) -> None:
        self.state = ActivityState.IDLE
        if self.node.tracer.enabled:
            self.node.tracer.record(
                self.node.kernel.now, "activity.idle", self.id
            )
        for listener in self._idle_listeners:
            listener(self)
        if self.collector is not None:
            self.collector.on_became_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Activity({self.id} {self.state.value} on {self.node.name})"
