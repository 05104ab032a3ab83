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
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ActivityTerminatedError, RuntimeModelError
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
    """

    def __init__(self, activity: "Activity") -> None:
        self._activity = activity

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

    @property
    def rng(self):
        """Deterministic per-activity random stream."""
        return self._activity.node.rng_registry.stream(f"activity:{self.id}")

    def self_ref(self) -> RemoteRef:
        """A serializable reference to this activity (for passing around)."""
        return RemoteRef(self._activity.id, self._activity.node.name)

    def sleep(self, duration: float) -> Sleep:
        """Yield this from a handler to model compute time."""
        return Sleep(duration)

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
        return self._activity.send_call(
            target,
            method,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
            expect_reply=expect_reply,
        )

    def keep(self, proxy: Proxy) -> Proxy:
        """Prevent the automatic release of a request-delivered proxy."""
        self._activity.mark_kept(proxy)
        return proxy

    def drop(self, proxy: Proxy) -> None:
        """Explicitly release a held stub (local GC collects it)."""
        self._activity.release_proxy(proxy)

    def acquire(self, ref: RemoteRef) -> Proxy:
        """Acquire a stub for a reference obtained out of band.

        Also used by drivers (dummy root activities) that look up the
        registry.  Goes through the regular deserialization hook so the
        DGC sees the new edge.
        """
        return self._activity.node.deserialize_ref(self._activity, ref)

    def lookup(self, name: str) -> Future:
        """Resolve a registry name through the naming service.

        Returns a future a generator handler can yield; it resolves to a
        :class:`Proxy` for the bound activity (the stub is acquired at
        reply/hit time, creating the DGC edge) or ``None`` when the name
        is unbound at serve time.  Depending on the registry placement
        the resolve is served by the local shard, a replica, a leased
        cache entry, or a ``registry.lookup`` round trip to the
        authority — local hits return an already-resolved future.

        An unbound name is answered with a *negative reply* (``None``),
        never held open: a name bound after the lookup was issued but
        before the authority serves it resolves normally (the lookup is
        served against shard state at serve time); one bound after
        serving requires the caller to retry.
        """
        activity = self._activity
        node = activity.node
        return node.world.registry.lookup_from(node, activity, name)

    def bind(self, name: str, target: Union[Proxy, RemoteRef]) -> Future:
        """Publish ``target`` under ``name`` over the fabric
        (``registry.bind`` to the authoritative shard; the target
        becomes a DGC root there, paper Sec. 4.1).

        Returns a future resolving ``True`` when the authority applied
        the binding, ``False`` when it rejected it (name conflict or
        dead target at apply time).
        """
        ref = target.ref if isinstance(target, Proxy) else target
        activity = self._activity
        node = activity.node
        return node.world.registry.bind_from(node, activity, name, ref)

    def unbind(self, name: str) -> Future:
        """Remove a binding over the fabric, releasing the root pin at
        the authoritative shard (the target stays pinned while other
        names still bind it).  Resolves ``True``/``False`` with the
        authority's verdict."""
        activity = self._activity
        node = activity.node
        return node.world.registry.bind_from(node, activity, name, None)

    def holds(self, target: ActivityId) -> bool:
        """Does this activity currently hold a stub to ``target``?"""
        return self._activity.proxies.holds(target)


class _HandlerRun:
    """State of the in-flight handler (one per busy activity)."""

    __slots__ = ("request", "proxies", "generator")

    def __init__(
        self,
        request: Optional[Request],
        proxies: List[Proxy],
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
        self._queue: Deque[Tuple[Request, List[Proxy]]] = deque()
        self._run: Optional[_HandlerRun] = None
        self._pumping = False
        self._kept: set = set()
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
        run = _HandlerRun(None, [])
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
        self._kept.add(id(proxy))

    def release_proxy(self, proxy: Proxy) -> None:
        """Drop one stub; notifies the local GC when the tag dies."""
        if self.state is ActivityState.TERMINATED:
            return
        last = self.proxies.release(proxy)
        if self._kept:
            self._kept.discard(id(proxy))
        if last:
            proxy.tag.dead = True
            self.node.local_gc.notify_tag_dead(self, proxy.tag)

    # ------------------------------------------------------------------
    # Calls out
    # ------------------------------------------------------------------

    def send_call(
        self,
        target: Union[Proxy, RemoteRef],
        method: str,
        *,
        payload_bytes: int = 0,
        refs: Sequence[Union[Proxy, RemoteRef]] = (),
        data: Any = None,
        expect_reply: bool = False,
    ) -> Optional[Future]:
        if self.terminated:
            raise ActivityTerminatedError(f"{self.id} is terminated")
        return self.node.send_request(
            self,
            target,
            method,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
            expect_reply=expect_reply,
        )

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------

    def deliver(self, request: Request, proxies: List[Proxy]) -> None:
        """Enqueue an incoming request; start serving if idle."""
        if self.terminated:
            # A message reached a dead activity: visible symptom of either
            # an application bug or a wrongful collection; traced upstream.
            return
        self._queue.append((request, proxies))
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
                if self.terminated or self._run is not None:
                    return
                if not self._queue:
                    if self.state is ActivityState.BUSY:
                        self._become_idle()
                    return
                request, proxies = self._queue.popleft()
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
        if isinstance(result, Generator):
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
            if isinstance(yielded, Sleep):
                # Never cancelled (a stale resume is dropped by the
                # ``_run is not run`` test above): no Event handle.
                kernel = self.node.kernel
                kernel.schedule_fire_at(
                    kernel.now + yielded.duration, self._step, (run, None)
                )
                return
            elif isinstance(yielded, Future):
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
            if id(proxy) not in self._kept and not proxy.released:
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
