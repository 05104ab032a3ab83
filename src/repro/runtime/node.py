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

from repro.errors import NoSuchActivityError, RuntimeModelError
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
    PAIRED_PAYLOAD_KINDS,
    bind_dispatch_shapes,
)
from repro.net.message import Envelope
from repro.runtime.activeobject import Activity, ActivityState
from repro.runtime.future import Future
from repro.runtime.ids import ActivityId
from repro.runtime.localgc import LocalGarbageCollector
from repro.runtime.proxy import Proxy, RemoteRef
from repro.runtime.request import RegistryAck, Reply, ReplyAddress, Request
from repro.runtime.serialization import deserialize_refs, serialize_refs
from repro.sim.beats import SlotController

# The typed sink below hard-codes the (item, payload) shape of the DGC
# kinds and the aggregate unwrap; a paired/aggregate kind registered
# after this module imports would silently miss those branches, so the
# registry rejects such registrations from here on.
bind_dispatch_shapes("repro.runtime.node")


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
        #: Clock handshake shared with the fabric: a kernel that
        #: maintains ``_now`` is read by attribute, any other (the
        #: wall-clock live kernel) through its ``now`` property.
        self.fast_clock = hasattr(self.kernel, "_now")
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
        #: Adaptive beat-slot sizing for collectors configured with
        #: ``beat_slots="auto"`` (see :class:`repro.sim.beats.SlotController`).
        self.beat_slot_controller = SlotController()
        # Hot-path cache: the wire-size model is frozen, so the DGC sizes
        # are constants.  (``network.send`` is deliberately NOT cached as
        # a bound method: harness code patches it per-instance to observe
        # traffic.)
        self._dgc_message_bytes = self.wire_sizes.dgc_message_bytes
        self._dgc_response_bytes = self.wire_sizes.dgc_response_bytes
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
        #: being unwrapped: ``[dest_node | None, targets, responses]``.
        #: Responses produced inside the unwrap loop collect here (in
        #: send order; the paper's collector appends to the open run
        #: itself, any other goes through :meth:`send_dgc_response`) and
        #: leave as one site-pair run, instead of one full fabric
        #: traversal per response.  Within the loop only
        #: collector code runs, and any non-response DGC send flushes the
        #: run first, so the wire order is exactly the unbatched one.
        self._response_run: Optional[list] = None
        #: The receive half of the typed fabric: one ``(item, payload)``
        #: handler per traffic kind, total over the kind registry (the
        #: analyzer's KIND-sink rule reads the keys), so adding a kind
        #: means adding an entry, not a code path.  The columnar fire
        #: loop indexes the table directly; :meth:`_on_typed` dispatches
        #: through it for the per-event core.  The DGC entries are the
        #: activity-lookup handlers that core has always used — and
        #: the columnar pulse's single sinks, behind the target tables;
        #: the registry entries are the shard's own bound methods.
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
            self._on_envelope,
            self._on_typed,
            dgc_sinks={
                KIND_DGC_MESSAGE: (
                    self._on_dgc_message_via_lookup, self._on_dgc_messages,
                ),
                KIND_DGC_RESPONSE: (
                    self._on_dgc_response_via_lookup, self._on_dgc_responses,
                ),
            },
            kind_handlers=self._kind_handlers,
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

    def find_activity(self, activity_id: ActivityId) -> Optional[Activity]:
        return self.activities.get(activity_id)

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
        """Out-of-band acquisition (a registry resolve, a creation) —
        one stub through the deserialization hook, without the list
        :func:`deserialize_refs` builds for a message's references."""
        proxy = activity.proxies.acquire(ref)
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
        *,
        payload_bytes: int = 0,
        refs: Sequence[Union[Proxy, RemoteRef]] = (),
        data: Any = None,
        expect_reply: bool = False,
    ) -> Optional[Future]:
        if isinstance(target, Proxy):
            if target.released:
                raise RuntimeModelError(
                    f"{sender.id} calling through released {target!r}"
                )
            target_ref = target.ref
        else:
            target_ref = target
        wire_refs = serialize_refs(refs)
        future: Optional[Future] = None
        reply_to: Optional[ReplyAddress] = None
        if expect_reply:
            future = Future()
            self._pending_futures[future.future_id] = future
            reply_to = ReplyAddress(self.name, sender.id, future.future_id)
        request = Request(
            method=method,
            sender=sender.id,
            target=target_ref.activity_id,
            payload_bytes=payload_bytes,
            refs=wire_refs,
            data=data,
            reply_to=reply_to,
        )
        size = self.wire_sizes.request_size(payload_bytes, len(wire_refs))
        self.world.note_request_sent(request)
        self.network.send_typed(
            self.name, target_ref.node, KIND_APP_REQUEST, size, request
        )
        return future

    def send_reply(self, sender: Activity, request: Request, result: Any) -> None:
        reply_to = request.reply_to
        assert reply_to is not None
        payload_bytes = 0
        refs: Sequence[Union[Proxy, RemoteRef]] = ()
        data: Any = result
        if isinstance(result, ReplyPayload):
            payload_bytes = result.payload_bytes
            refs = result.refs
            data = result.data
        wire_refs = serialize_refs(refs)
        reply = Reply(
            future_id=reply_to.future_id,
            target_activity=reply_to.activity,
            payload_bytes=payload_bytes,
            refs=wire_refs,
            data=data,
        )
        size = self.wire_sizes.reply_size(payload_bytes, len(wire_refs))
        self.world.note_reply_sent(reply)
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
        if self._response_run is not None:
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

    def send_dgc_response(self, target_ref: RemoteRef, response: Any) -> None:
        run = self._response_run
        if run is not None:
            dest = target_ref.node
            if run[0] is not None and run[0] != dest:
                # A different destination mid-run (an aggregate the
                # relaxed tier merged from several source sites): send
                # what collected so far and rebase.
                self._flush_response_run()
            run[0] = dest
            run[1].append(target_ref.activity_id)
            run[2].append(response)
            return
        self.network.send_dgc_single(
            self.name,
            target_ref.node,
            KIND_DGC_RESPONSE,
            self._dgc_response_bytes,
            target_ref.activity_id,
            response,
        )

    def _flush_response_run(self) -> None:
        """Send the open response run (if any entries collected) and
        reset the buffer for further collection."""
        run = self._response_run
        if run is not None and run[1]:
            self.network.send_dgc_run(
                self.name, run[0], KIND_DGC_RESPONSE,
                self._dgc_response_bytes, run[1], run[2],
            )
            run[0] = None
            run[1] = []
            run[2] = []

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------

    def _on_envelope(self, envelope: Envelope) -> None:
        """Per-envelope receive path: unwrap into the same per-kind
        handlers the typed sink dispatches to, so both delivery modes
        are observably identical."""
        payload = envelope.payload
        if envelope.kind in PAIRED_PAYLOAD_KINDS:
            self._on_typed(envelope.kind, payload[0], payload[1])
        else:
            self._on_typed(envelope.kind, payload, None)

    def _on_typed(self, kind: str, item: Any, payload: Any) -> None:
        """The node's typed sink: one dispatcher for every traffic kind
        — the entry point of the envelope fallback, the per-event core
        and intra-node deliveries (the columnar fire loop calls the
        table's handlers itself)."""
        self._kind_handlers[kind](item, payload)

    def _on_request(self, request: Request, payload: Any = None) -> None:
        self.world.note_request_delivered(request)
        activity = self.activities.get(request.target)
        if activity is None or activity.terminated:
            self.dead_letter_count += 1
            self.world.on_dead_letter()
            if self.tracer.enabled:
                self.tracer.record(
                    self.kernel.now,
                    "message.dead_letter",
                    request.target,
                    method=request.method,
                    sender=request.sender,
                )
            return
        proxies = deserialize_refs(activity, request.refs)
        activity.deliver(request, proxies)

    def _on_reply(self, reply: Reply, payload: Any = None) -> None:
        self.world.note_reply_delivered(reply)
        future = self._pending_futures.pop(reply.future_id, None)
        activity = self.activities.get(reply.target_activity)
        if future is None:
            self.dead_letter_count += 1
            return
        if activity is None or activity.terminated:
            # Reference orientation (paper Sec. 4.1): updating the future
            # of a collected caller is simply dropped.
            self.dead_letter_count += 1
            return
        proxies = deserialize_refs(activity, reply.refs)
        future.resolve(reply.data, tuple(proxies))

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
        """DGC delivery by activity lookup: the typed-sink path of the
        per-event core and the envelope fallback, and the columnar
        pulse's single sink behind the target tables."""
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
        self._response_run = run = [None, [], []]
        try:
            for activity_id, message in zip(targets, messages):
                if activity_id in handlers:
                    handlers[activity_id](message)
                else:
                    self._on_dgc_message_via_lookup(activity_id, message)
        finally:
            self._response_run = None
        if run[1]:
            self.network.send_dgc_run(
                self.name, run[0], KIND_DGC_RESPONSE,
                self._dgc_response_bytes, run[1], run[2],
            )

    def _on_dgc_responses(self, targets: list, responses: list) -> None:
        handlers = self._dgc_response_targets
        for activity_id, response in zip(targets, responses):
            if activity_id in handlers:
                handlers[activity_id](response)
            else:
                self._on_dgc_response_via_lookup(activity_id, response)


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
