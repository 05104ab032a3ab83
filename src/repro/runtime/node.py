"""Nodes: the JVM/process equivalents hosting activities.

A node owns its activities, a local garbage collector, its endpoint of the
naming service and its attachment to the network fabric.  All traffic in
and out of an activity flows through its node, which is where requests
are serialized/deserialized and where inbound traffic of every kind is
dispatched through one per-kind handler table (the receive half of the
unified fabric): app requests/replies and naming-service answers to the
node's own handlers, every other ``registry.*`` kind straight to the
node's :class:`~repro.runtime.registry.RegistryShard`, DGC protocol
messages to the per-activity collectors.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.errors import (
    ActivityTerminatedError,
    NoSuchActivityError,
    RuntimeModelError,
)
from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_PUSH,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_REPLY,
)
from repro.runtime.activeobject import Activity, ActivityState
from repro.runtime.future import Future
from repro.runtime.ids import ActivityId
from repro.runtime.localgc import LocalGarbageCollector
from repro.runtime.proxy import Proxy, RemoteRef, StubTag
from repro.runtime.request import RegistryAck, Reply, ReplyAddress, Request
from repro.runtime.serialization import deserialize_refs, serialize_refs


class _KindHandlers(dict):
    """A node's kind -> handler table; a kind nobody registered a
    handler for is a modelling error, raised where it is received."""

    __slots__ = ()

    def __missing__(self, kind: str) -> None:
        raise RuntimeModelError(f"unknown traffic kind {kind!r}")


class Node:
    """One address space hosting activities."""

    def __init__(self, world, name: str, *, gc_delay: float = 0.0) -> None:
        self.world = world
        self.name = name
        self.kernel = world.kernel
        self.network = world.network
        self.tracer = world.tracer
        self.rng_registry = world.rng_registry
        self.wire_sizes = world.wire_sizes
        self.local_gc = LocalGarbageCollector(self.kernel, gc_delay=gc_delay)
        self.activities: Dict[ActivityId, Activity] = {}
        self._pending_futures: Dict[int, Future] = {}
        #: This node's endpoint of the naming service (its slice of the
        #: registry state and the ``registry.*`` receive handlers), lent
        #: the pending-futures table its requests register replies in.
        self.registry_shard = shard = world.registry.shard(name)
        shard.pending = self._pending_futures
        self.dead_letter_count = 0
        # Hot-path cache: the wire-size model is frozen, so the DGC sizes
        # and the app size terms are constants.  (The network's send
        # lanes are deliberately NOT cached as bound methods: benchmark
        # code patches them per-instance to observe traffic.)
        self._dgc_message_bytes = self.wire_sizes.dgc_message_bytes
        self._dgc_response_bytes = self.wire_sizes.dgc_response_bytes
        self._request_header_bytes = self.wire_sizes.request_header_bytes
        self._reply_header_bytes = self.wire_sizes.reply_header_bytes
        self._reference_bytes = self.wire_sizes.reference_bytes
        #: Direct DGC dispatch tables: activity id -> bound collector
        #: handler, maintained by :meth:`register_collector` and the
        #: termination hook, and lent to the fabric: the pulse's
        #: fire loop (singles) and the batch sinks below (runs)
        #: call the handler through them instead of activity lookup +
        #: collector null-checks per message; a miss falls back to the
        #: full lookup (collectors attached outside the world's create
        #: path are never registered here).
        self._dgc_message_targets: Dict[Any, Callable[[Any], None]] = {}
        self._dgc_response_targets: Dict[Any, Callable[[Any], None]] = {}
        #: Open response run, active only while an aggregate DGC batch is
        #: being unwrapped: ``dest_node -> box``, one box per destination
        #: in first-seen order.  A box is a ``(target, response)`` pair
        #: until a second response turns it into parallel
        #: ``([targets], [responses])`` lists.  The collector's
        #: responses join their box (in send order) and leave as one run
        #: per destination (a pair as one single), instead of one full
        #: fabric traversal per response — an aggregate merged from
        #: several source sites (shard injection) still costs one send
        #: per site.  Within the loop only collector code runs, and any
        #: non-response DGC send flushes every box first, so each
        #: channel's order is exactly the unbatched one.
        self._response_run: Optional[dict] = None
        #: The node's one receive lane: one ``(item, payload)`` handler
        #: per traffic kind, total over ``ALL_KINDS`` (a tier-1 test
        #: checks every node of a world), so adding a kind means adding
        #: an entry, not a code path.  The fabric indexes
        #: the table directly on every core.  The DGC entries are the
        #: activity-lookup handlers — behind the target tables on the
        #: columnar pulse; the registry entries are the shard's own
        #: bound methods.
        self._kind_handlers = _KindHandlers({
            KIND_DGC_MESSAGE: self._on_dgc_message_via_lookup,
            KIND_DGC_RESPONSE: self._on_dgc_response_via_lookup,
            KIND_APP_REQUEST: self._on_request,
            KIND_APP_REPLY: self._on_reply,
            KIND_REGISTRY_LOOKUP: shard.on_lookup,
            KIND_REGISTRY_REPLY: self._on_registry_reply,
            KIND_REGISTRY_BIND: shard.on_bind,
            KIND_REGISTRY_INVALIDATE: shard.on_invalidate,
            KIND_REGISTRY_RENEW: shard.on_renew,
            KIND_REGISTRY_PUSH: shard.on_push,
        })
        self.network.register_node(
            name,
            self._kind_handlers,
            dgc_batch_sinks={
                KIND_DGC_MESSAGE: self._on_dgc_messages,
                KIND_DGC_RESPONSE: self._on_dgc_responses,
            },
            dgc_targets={
                KIND_DGC_MESSAGE: self._dgc_message_targets,
                KIND_DGC_RESPONSE: self._dgc_response_targets,
            },
        )

    # ------------------------------------------------------------------
    # Activity management
    # ------------------------------------------------------------------

    def add_activity(self, activity: Activity) -> None:
        self.activities[activity.id] = activity

    def get_activity(self, activity_id: ActivityId) -> Activity:
        try:
            return self.activities[activity_id]
        except KeyError:
            raise NoSuchActivityError(
                f"{activity_id} is not hosted on {self.name}"
            ) from None

    def register_collector(self, activity: Activity) -> None:
        """Expose ``activity``'s collector on the direct DGC dispatch
        tables (any collector duck-typing ``on_dgc_message`` /
        ``on_dgc_response`` — the paper's and the baselines')."""
        collector = activity.collector
        handler = getattr(collector, "on_dgc_message", None)
        if handler is not None:
            self._dgc_message_targets[activity.id] = handler
        handler = getattr(collector, "on_dgc_response", None)
        if handler is not None:
            self._dgc_response_targets[activity.id] = handler

    def on_activity_terminated(self, activity: Activity, reason: str) -> None:
        self.activities.pop(activity.id, None)
        self._dgc_message_targets.pop(activity.id, None)
        self._dgc_response_targets.pop(activity.id, None)
        if self.tracer.enabled:
            self.tracer.record(
                self.kernel.now, "activity.terminated", activity.id, reason=reason
            )
        self.world.on_activity_terminated(activity, reason)

    def deserialize_ref(self, activity: Activity, ref: RemoteRef) -> Proxy:
        """One stub through the deserialization hook, in one frame: a
        registry resolve, a creation, or ``ctx.acquire`` — a reference
        obtained out of band (drivers, dummy root activities), which
        goes through this hook so the DGC sees the new edge."""
        # Inlined ProxyTable.acquire (the canonical site).
        target = ref.activity_id
        entries = activity.proxies._entries
        if target in entries:
            tag = entries[target]
        else:
            minted = activity.proxies._generations
            generation = minted[target] + 1 if target in minted else 1
            minted[target] = generation
            tag = StubTag(activity.id, target, generation, ref)
            entries[target] = tag
        tag.live_count += 1
        proxy = Proxy(tag.ref, tag)
        if activity.collector is not None:
            activity.collector.on_reference_deserialized(proxy)
        return proxy

    # ------------------------------------------------------------------
    # Application traffic
    # ------------------------------------------------------------------

    def send_request(
        self,
        sender: Activity,
        target: Union[Proxy, RemoteRef],
        method: str,
        payload_bytes: int = 0,
        refs: Sequence[Union[Proxy, RemoteRef]] = (),
        data: Any = None,
        expect_reply: bool = False,
    ) -> Optional[Future]:
        """The send half of the request lane in one frame: the sender's
        liveness check, the world's send counter and in-flight pins, and
        the wire size (:meth:`WireSizeModel.request_size`, inlined).  A
        request with no refs, data or reply is a value: the last one sent
        to the target (``sender._sent``) goes again while it matches."""
        if sender.state is ActivityState.TERMINATED:
            raise ActivityTerminatedError(f"{sender.id} is terminated")
        if isinstance(target, Proxy):
            if target.released:
                raise RuntimeModelError(
                    f"{sender.id} calling through released {target!r}"
                )
            target_ref = target.ref
        else:
            target_ref = target
        wire_refs = serialize_refs(refs) if refs else ()
        future: Optional[Future] = None
        reply_to: Optional[ReplyAddress] = None
        if expect_reply:
            future = Future()
            self._pending_futures[future.future_id] = future
            reply_to = ReplyAddress(self.name, sender.id, future.future_id)
        target_id = target_ref.activity_id
        if wire_refs or reply_to or data is not None:
            request = Request(
                method, sender.id, target_id, payload_bytes, wire_refs, data,
                reply_to,
            )
        else:
            sent = sender._sent
            request = sent[target_id] if target_id in sent else None
            if request is None or request.method != method or (
                request.payload_bytes != payload_bytes
            ):
                request = sent[target_id] = Request(
                    method, sender.id, target_id, payload_bytes
                )
        size = self._request_header_bytes + payload_bytes
        world = self.world
        world.requests_sent += 1
        wakeups = world.inflight_wakeups
        wakeups[target_id] = wakeups.get(target_id, 0) + 1
        if wire_refs:
            size += len(wire_refs) * self._reference_bytes
            _pin(world.inflight_ref_pins, wire_refs)
        self.network.send_typed(
            self.name, target_ref.node, KIND_APP_REQUEST, size, request
        )
        return future

    def send_reply(self, sender: Activity, request: Request, result: Any) -> None:
        """The send half of the reply lane, fused like :meth:`send_request`."""
        reply_to = request.reply_to
        assert reply_to is not None
        payload_bytes = 0
        data = result
        wire_refs = ()
        if isinstance(result, ReplyPayload):
            payload_bytes = result.payload_bytes
            data = result.data
            if result.refs:
                wire_refs = serialize_refs(result.refs)
        reply = Reply(
            future_id=reply_to.future_id,
            target_activity=reply_to.activity,
            payload_bytes=payload_bytes,
            refs=wire_refs,
            data=data,
        )
        size = self._reply_header_bytes + payload_bytes
        world = self.world
        world.replies_sent += 1
        if wire_refs:
            size += len(wire_refs) * self._reference_bytes
            _pin(world.inflight_ref_pins, wire_refs)
        self.network.send_typed(
            self.name, reply_to.node, KIND_APP_REPLY, size, reply
        )

    # ------------------------------------------------------------------
    # DGC traffic (called by the per-activity collectors)
    # ------------------------------------------------------------------

    def send_dgc_message(
        self,
        target_ref: RemoteRef,
        message: Any,
        *,
        size_bytes: Optional[int] = None,
    ) -> None:
        if self._response_run:
            # A collector (e.g. a baseline protocol) is sending a DGC
            # message from inside an aggregate unwrap: release the
            # buffered responses first so per-channel order is exactly
            # the unbatched one.
            self._flush_response_run()
        size = size_bytes if size_bytes is not None else self._dgc_message_bytes
        self.network.send_dgc_single(
            self.name,
            target_ref.node,
            KIND_DGC_MESSAGE,
            size,
            target_ref.activity_id,
            message,
        )

    def _flush_response_run(self) -> None:
        """Send every open response box, one run (or single) per
        destination in first-seen order, and leave the run open (empty)
        for further collection."""
        run = self._response_run
        if run:
            network = self.network
            for dest in run:
                targets, responses = run[dest]
                if type(targets) is list:
                    network.send_dgc_run(
                        self.name, dest, KIND_DGC_RESPONSE,
                        self._dgc_response_bytes, targets, responses,
                    )
                else:  # a one-response box: ``(target, response)``
                    network.send_dgc_single(
                        self.name, dest, KIND_DGC_RESPONSE,
                        self._dgc_response_bytes, targets, responses,
                    )
            run.clear()

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------

    def _on_request(self, request: Request, payload: Any = None) -> None:
        world = self.world
        world.requests_delivered += 1
        target = request.target
        wakeups = world.inflight_wakeups
        count = wakeups.get(target, 0)
        if count > 1:
            wakeups[target] = count - 1
        else:
            wakeups.pop(target, None)
        refs = request.refs
        if refs:
            _unpin(world.inflight_ref_pins, refs)
        activity = self.activities.get(target)
        if activity is None or activity.state is ActivityState.TERMINATED:
            self.dead_letter_count += 1
            world.on_dead_letter()
            if self.tracer.enabled:
                self.tracer.record(
                    self.kernel.now,
                    "message.dead_letter",
                    target,
                    method=request.method,
                    sender=request.sender,
                )
            return
        activity.deliver(request, deserialize_refs(activity, refs) if refs else ())

    def _on_reply(self, reply: Reply, payload: Any = None) -> None:
        world = self.world
        world.replies_delivered += 1
        refs = reply.refs
        if refs:
            _unpin(world.inflight_ref_pins, refs)
        future = self._pending_futures.pop(reply.future_id, None)
        activity = self.activities.get(reply.target_activity)
        if future is None:
            self.dead_letter_count += 1
            return
        if activity is None or activity.state is ActivityState.TERMINATED:
            # Reference orientation (paper Sec. 4.1): updating the future
            # of a collected caller is simply dropped.
            self.dead_letter_count += 1
            return
        future.resolve(reply.data, deserialize_refs(activity, refs) if refs else ())

    def _on_registry_reply(self, reply: Any, payload: Any) -> None:
        """Deliver a naming-service answer: a lookup reply (resolves the
        future with an acquired stub, caching the binding when a lease
        was granted) or a bind/unbind acknowledgement (resolves the
        future with the authority's verdict)."""
        future = self._pending_futures.pop(reply.future_id, None)
        if future is None:
            self.dead_letter_count += 1
            return
        activities = self.activities
        caller = reply.target_activity
        activity = activities[caller] if caller in activities else None
        if activity is None or activity.state is ActivityState.TERMINATED:
            # The caller died mid-operation: drop, like a stale reply.
            self.dead_letter_count += 1
            return
        if type(reply) is RegistryAck:
            future.resolve(reply.ok)
            return
        if reply.ref is None:
            future.resolve(None)
            return
        if reply.lease_s > 0.0:
            self.registry_shard.cache_reply(reply)
        proxy = self.deserialize_ref(activity, reply.ref)
        future.resolve(proxy, (proxy,))

    def _on_dgc_message_via_lookup(
        self, activity_id: ActivityId, message: Any
    ) -> None:
        """DGC delivery by activity lookup: the kind-table entry of the
        per-message lane, and of the columnar pulse behind the target
        tables."""
        activity = self.activities.get(activity_id)
        if activity is None or activity.collector is None:
            # Referenced activity already collected/terminated: silence.
            return
        activity.collector.on_dgc_message(message)

    def _on_dgc_response_via_lookup(
        self, activity_id: ActivityId, response: Any
    ) -> None:
        activity = self.activities.get(activity_id)
        if activity is None or activity.collector is None:
            return
        activity.collector.on_dgc_response(response)

    # -- aggregate unwrappers (the fabric's batch sinks) ----------------
    #
    # One call per site-pair run instead of one typed dispatch per
    # message: the loops below deliver the flat (target, message)
    # columns with every lookup bound to a local, in column order —
    # which is send order, so per-channel FIFO is untouched.

    def _on_dgc_messages(self, targets: list, messages: list) -> None:
        handlers = self._dgc_message_targets
        self._response_run = run = {}
        try:
            for activity_id, message in zip(targets, messages):
                if activity_id in handlers:
                    handlers[activity_id](message)
                else:
                    self._on_dgc_message_via_lookup(activity_id, message)
        finally:
            self._response_run = None
        # :meth:`_flush_response_run` inlined: one frame fewer per unwrap.
        network = self.network
        for dest in run:
            targets, responses = run[dest]
            if type(targets) is list:
                network.send_dgc_run(
                    self.name, dest, KIND_DGC_RESPONSE,
                    self._dgc_response_bytes, targets, responses,
                )
            else:  # a one-response box: ``(target, response)``
                network.send_dgc_single(
                    self.name, dest, KIND_DGC_RESPONSE,
                    self._dgc_response_bytes, targets, responses,
                )

    def _on_dgc_responses(self, targets: list, responses: list) -> None:
        handlers = self._dgc_response_targets
        for activity_id, response in zip(targets, responses):
            if activity_id in handlers:
                handlers[activity_id](response)
            else:
                self._on_dgc_response_via_lookup(activity_id, response)


def _pin(pins: Dict[ActivityId, int], refs: Sequence[RemoteRef]) -> None:
    """Count ``refs`` as in flight (the world's :meth:`inflight_pinned`)."""
    for ref in refs:
        key = ref.activity_id
        pins[key] = pins.get(key, 0) + 1


def _unpin(pins: Dict[ActivityId, int], refs: Sequence[RemoteRef]) -> None:
    """Undo :func:`_pin` on delivery; a count from another shard's send
    was never raised here, so a missing key is not an error."""
    for ref in refs:
        key = ref.activity_id
        count = pins.get(key, 0)
        if count > 1:
            pins[key] = count - 1
        else:
            pins.pop(key, None)


class ReplyPayload:
    """Wrap a handler return value to control reply size and references.

    Returning a plain value sends a zero-payload reply; returning
    ``ReplyPayload(data, payload_bytes=..., refs=[...])`` models a sized
    reply that may carry remote references (which create DGC edges at the
    caller when deserialized).
    """

    __slots__ = ("data", "payload_bytes", "refs")

    def __init__(
        self,
        data: Any = None,
        *,
        payload_bytes: int = 0,
        refs: Sequence[Union[Proxy, RemoteRef]] = (),
    ) -> None:
        self.data = data
        self.payload_bytes = payload_bytes
        self.refs = tuple(refs)
