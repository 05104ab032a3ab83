"""Activities: active objects with a request queue and a service loop.

An activity serves requests one at a time.  Behavior handlers may be plain
functions (complete immediately) or generators that yield:

* :class:`Sleep` — modelled compute time; the activity stays **busy**,
* :class:`repro.runtime.future.Future` — wait for an asynchronous result;
  the activity stays **busy** (paper Sec. 4.1: waiting for a future can
  only happen during the service of a request).

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
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import RuntimeModelError
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


#: What a behavior handler may return: a value, or a generator coroutine.
HandlerResult = Union[Any, Generator[Any, Any, Any]]


class ActivityContext:
    """The API surface a behavior uses to interact with the world.

    It is deliberately narrow: creating activities, calling methods,
    sleeping, and managing held references (the simulated equivalent of
    local variables / fields holding stubs).

    The registry and stub verbs (``lookup``, ``bind``, ``unbind``,
    ``drop``, ``acquire``) are their engines' own callables, bound to
    this context's node and activity the first time the behavior uses
    one and then kept in the instance dict, where every later read finds
    it (a ``cached_property`` is a non-data descriptor).  A call enters
    the engine in the caller's frame, and an activity holds only the
    verbs it uses.
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
        return partial(node.world.registry.bind_from, node, activity, ref=None)

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
        node = self._activity.node
        return node.kernel._now if node.fast_clock else node.kernel.now

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

    def call(
        self,
        target: Union[Proxy, RemoteRef],
        method: str,
        *,
        payload_bytes: int = 0,
        refs: Sequence[Union[Proxy, RemoteRef]] = (),
        data: Any = None,
        expect_reply: bool = False,
    ) -> Optional[Future]:
        """Asynchronously invoke ``method`` on ``target``.

        Returns a :class:`Future` when ``expect_reply`` is set, which a
        generator handler can yield to wait for the result.
        """
        activity = self._activity
        return activity.node.send_request(
            activity, target, method, payload_bytes, refs, data, expect_reply
        )

    def keep(self, proxy: Proxy) -> Proxy:
        """Prevent the automatic release of a request-delivered proxy."""
        self._activity.mark_kept(proxy)
        return proxy

    def holds(self, target: ActivityId) -> bool:
        """Does this activity currently hold a stub to ``target``?"""
        return self._activity.proxies.holds(target)


class _HandlerRun:
    """State of the in-flight handler (one per busy activity)."""

    __slots__ = ("request", "proxies", "generator")

    def __init__(
        self,
        request: Optional[Request],
        proxies: Tuple[Proxy, ...],
    ) -> None:
        self.request = request
        self.proxies = proxies
        self.generator: Optional[Generator[Any, Any, Any]] = None


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
        self.is_root = root
        self.state = ActivityState.IDLE
        self.proxies = ProxyTable(activity_id)
        self.context = ActivityContext(self)
        self.collector: Optional[Any] = None  # attached by the world
        self.terminated_reason: Optional[str] = None
        self.requests_served = 0
        self.created_at = node.kernel.now
        self._queue: Deque[Union[Request, Tuple[Request, Tuple[Proxy, ...]]]] = deque()
        self._run: Optional[_HandlerRun] = None
        self._pumping = False
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
        run = _HandlerRun(None, ())
        self._run = run
        on_start = getattr(self.behavior, "on_start", None)
        result = on_start(self.context) if on_start is not None else None
        self._begin_handler(run, result)
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

    def mark_kept(self, proxy: Proxy) -> None:
        self._kept.add(proxy)

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
        """Enqueue an incoming request and the tuple of stubs deserialized
        from its references (``()`` for none: it then waits as the bare
        request, no entry tuple); start serving if idle."""
        if self.state is ActivityState.TERMINATED:
            # A message reached a dead activity: visible symptom of either
            # an application bug or a wrongful collection; traced upstream.
            return
        self._queue.append((request, proxies) if proxies else request)
        self._pump()

    def _pump(self) -> None:
        """Serve queued requests until the queue drains or a handler
        suspends.  Iterative on purpose: long queues of instantly
        completing requests must not recurse."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while True:
                if self.state is ActivityState.TERMINATED or self._run is not None:
                    return
                if not self._queue:
                    if self.state is ActivityState.BUSY:
                        self._become_idle()
                    return
                entry = self._queue.popleft()
                request, proxies = entry if type(entry) is tuple else (entry, ())
                self.state = ActivityState.BUSY
                run = _HandlerRun(request, proxies)
                self._run = run
                self.requests_served += 1
                result = self.behavior.handle(self.context, request, proxies)
                self._begin_handler(run, result)
        finally:
            self._pumping = False

    def _begin_handler(self, run: _HandlerRun, result: HandlerResult) -> None:
        if self._run is not run:  # terminated during the handler body
            return
        # ``None`` (most handlers) skips the ABC check; the class is
        # ``collections.abc.Generator``, which ``typing.Generator`` only
        # delegates to through a chain of frames (HOT-typing-check).
        if result is not None and isinstance(result, Generator):
            run.generator = result
            self._step(run, None)
        else:
            self._finish(run, result)

    def _step(self, run: _HandlerRun, send_value: Any) -> None:
        # Iterative, not recursive: a yielded future that is *already*
        # resolved (a local bind ack, a cache hit) resumes the generator
        # in this same frame.  Recursing through Future.on_resolve would
        # put one stack frame per synchronously-resolved await on the
        # call stack — a handler awaiting 10^5 local registry acks in a
        # row (the bind-heavy naming workload) overflows it.
        while True:
            if self._run is not run:  # stale resume after termination
                return
            generator = run.generator
            assert generator is not None
            try:
                yielded = generator.send(send_value)
            except StopIteration as stop:
                self._finish(run, stop.value)
                self._pump()
                return
            # Exact types first, no ``isinstance`` call; a subclass takes
            # the same arm through the ``isinstance`` fallback.
            kind = type(yielded)
            if kind is Sleep or (
                kind is not Future and isinstance(yielded, Sleep)
            ):
                # Never cancelled (a stale resume is dropped by the
                # ``_run is not run`` test above): no Event handle.
                kernel = self.node.kernel
                kernel.schedule_fire_at(
                    kernel.now + yielded.duration, self._step, (run, None)
                )
                return
            elif kind is Future or isinstance(yielded, Future):
                if yielded.resolved:
                    send_value = yielded
                    continue
                yielded.on_resolve(lambda future: self._step(run, future))
                return
            else:
                raise RuntimeModelError(
                    f"handler of {self.id} yielded unsupported {yielded!r}"
                )

    def _finish(self, run: _HandlerRun, result: Any) -> None:
        if self._run is not run:
            return
        request = run.request
        if request is not None and request.reply_to is not None:
            self.node.send_reply(self, request, result)
        for proxy in run.proxies:
            if proxy not in self._kept and not proxy.released:
                self.release_proxy(proxy)
        self._run = None

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
