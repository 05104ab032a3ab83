"""The naming service: a replicated, lease-cached registry shard fabric.

Paper Sec. 4.1: "registered active objects [are roots] as anyone can look
them up at any time".  Binding a name pins the target activity as a DGC
root (never idle); unbinding releases the pin, making the activity
collectable again once unreferenced and idle.

Where the seed design kept one world-global dict with a bolted-on fabric
path to a single static home node, the :class:`NamingService` is a
first-class fabric subsystem:

* every node owns a :class:`RegistryShard`, its **endpoint** of the
  service, built once when the node is — the bindings it is
  *authoritative* for, the replica copies pushed to it (``replicated``
  placement), its client-side :class:`LeaseCache`, the lease-holder
  book it keeps as an authority, and the receive handlers
  (``on_lookup`` / ``on_bind`` / ``on_invalidate`` / ``on_push`` /
  ``on_renew``) the node installs as the values of its kind-handler
  table, so a delivered ``registry.*`` message is one frame from the
  fabric's fire loop to the state it changes;
* all operations are modelled as fabric traffic kinds riding the typed
  pulse transport: ``registry.bind`` (bind/unbind updates),
  ``registry.lookup``/``registry.reply`` (resolution),
  ``registry.invalidate`` (explicit coherence) and ``registry.renew``
  (batched lease renewals);
* placement (:class:`repro.core.config.RegistryConfig`) decides where the
  authoritative shard for a name lives: one static ``home`` node, a
  ``replicated`` primary pushing full replicas everywhere, or ``hashed``
  authorities spread across the grid;
* the **root pin lives at the authoritative shard**, maintained as a
  world-level refcount so the same activity bound under several names —
  possibly under *different* authorities in ``hashed`` placement — stays
  pinned until its last name is unbound;
* cache/replica hits still create the reference-graph edge at hit time
  (through the deserialization hook, like a reply would), so the DGC
  sees exactly the references the application holds;
* lease expiry and renewal ride the kernel's beat wheel: one sweep beat
  per node batches a whole beat's renewals into one ``registry.renew``
  message per authority, like heartbeats.

Consistency model (the paper never specifies one; we pick the classic
lease contract and test it): a lookup is served against the shard state
at *serve* time — a name bound after the lookup was issued but before it
is served resolves; a name bound after serving yields a negative reply
and the caller retries.  Cached and replicated resolves may be stale for
at most one propagation delay after an unbind (the invalidation is in
flight) plus, for leases, the TTL bound if the holder misses renewals.

**The beat-quantized coherence channel**
(:attr:`~repro.core.config.RegistryConfig.coherence` = ``"beat"``):
lease renewals always batched one message per (node, authority) per
beat, but the *authority-side* coherence fan-out — one
``registry.invalidate`` per lease holder, one ``registry.bind`` replica
push per node, one denial per missed renewal — was the remaining
O(holders) wire cost under bind/unbind churn.  With beat coherence
every such update is staged into a per-destination egress queue on the
authority's :class:`CoherenceChannel` (last writer wins per name: an
unbind+rebind inside one beat collapses to a single push, a
bind+unbind to a single invalidation) and flushed once per lease beat
by a lazily-registered beat-wheel sweep — the exact machinery
``registry.renew`` uses; the sweep stops itself when the queues drain —
as one multi-name ``registry.invalidate`` and one multi-binding
``registry.push`` per destination.  The flush is a protocol-safe
reordering in the :mod:`repro.net.reorder` sense over the registry's
natural FIFO streams — one per (destination, *name*), because a
receiving shard folds every coherence message into per-name state
(``replica[name]``, cache drop) exactly as the DGC folds messages into
per-referencer state: last-writer-wins leaves one survivor per (name,
beat), survivors of one name never reorder across beats, and every
delivery is *deferred* (never moved earlier) relative to its eager
instant.  (Per-(destination, kind) order is deliberately **not**
preserved — a re-staged name keeps its queue position while taking the
newer value — which is harmless for the same reason cross-stream DGC
order is free.)  A cached holder's staleness after an unbind is
bounded by one lease beat plus one propagation delay instead of the
eager one-propagation-delay — the price of turning O(holders x churn)
messages into O(destinations) per beat.  Eager coherence stays the
default and the A/B baseline; outcome equivalence eager-vs-beat is
gated in ``tests/integration/test_naming_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from zlib import crc32

from repro.core.config import (
    COHERENCE_BEAT,
    PLACEMENT_HASHED,
    PLACEMENT_REPLICATED,
    RegistryConfig,
)
from repro.errors import RegistryError
from repro.net.kinds import (
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_PUSH,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_REPLY,
)
from repro.runtime.future import Future
from repro.runtime.proxy import RemoteRef
from repro.runtime.request import (
    RegistryAck,
    RegistryBind,
    RegistryInvalidate,
    RegistryLookup,
    RegistryPush,
    RegistryRenew,
    RegistryRenewAck,
    RegistryReply,
    ReplyAddress,
)


class LeaseCache:
    """One node's client-side binding cache.

    Entries are ``name -> [ref, expires_at, used_since_sweep]``.  A hit
    is only served while the lease is live (lazy expiry check on every
    get, so an entry whose lease lapsed between sweeps never resolves);
    the per-node sweep beat evicts lapsed entries and collects the used,
    soon-expiring ones for batched renewal.  Capacity eviction is FIFO
    in insertion order — deterministic and O(1).
    """

    __slots__ = ("capacity", "entries", "capacity_evictions")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: Dict[str, list] = {}
        self.capacity_evictions = 0

    def get(self, name: str, now: float) -> Optional[RemoteRef]:
        entry = self.entries.get(name)
        if entry is None or now >= entry[1]:
            return None
        entry[2] = True
        return entry[0]

    def put(self, name: str, ref: RemoteRef, expires_at: float) -> None:
        entries = self.entries
        entry = entries.get(name)
        if entry is not None:
            entry[0] = ref
            entry[1] = expires_at
            return
        if len(entries) >= self.capacity:
            del entries[next(iter(entries))]
            self.capacity_evictions += 1
        entries[name] = [ref, expires_at, False]

    def extend(self, name: str, expires_at: float) -> None:
        entry = self.entries.get(name)
        if entry is not None and expires_at > entry[1]:
            entry[1] = expires_at

    def __len__(self) -> int:
        return len(self.entries)


class CoherenceChannel:
    """One authority node's beat-quantized coherence egress.

    Updates stage into per-destination queues as ``name -> ref``
    (``None`` = invalidate); a re-staged name keeps its queue position
    but takes the newer value — **last writer wins**, so only the
    update that still matters at flush time crosses the wire.  A flush
    empties every queue in destination-staging order, splitting each
    into its invalidation names and push bindings (disjoint name sets,
    so the two batches commute).  The result is a deferral-only,
    per-(destination, name)-FIFO reordering of the eager schedule's
    surviving updates (property-tested against
    :mod:`repro.net.reorder`).

    The channel is pure queue mechanics — no clock, no wire — so the
    safe-reordering property test can drive it directly.
    """

    __slots__ = ("queues", "staged", "coalesced")

    def __init__(self) -> None:
        #: dest node -> {name: Optional[ref]}, both insertion-ordered.
        self.queues: Dict[str, Dict[str, Optional[RemoteRef]]] = {}
        #: Updates ever staged (constituents, not messages).
        self.staged = 0
        #: Updates superseded by a later same-name staging before flush.
        self.coalesced = 0

    def stage(self, dest: str, name: str, ref: Optional[RemoteRef]) -> None:
        queue = self.queues.get(dest)
        if queue is None:
            queue = self.queues[dest] = {}
        if name in queue:
            self.coalesced += 1
        queue[name] = ref
        self.staged += 1

    @property
    def empty(self) -> bool:
        return not self.queues

    def pending(self) -> int:
        """Updates currently queued (post-coalescing)."""
        return sum(len(queue) for queue in self.queues.values())

    def flush(
        self,
    ) -> List[Tuple[str, Tuple[str, ...], Tuple[Tuple[str, RemoteRef], ...]]]:
        """Drain every queue: ``[(dest, invalidate_names, push_bindings)]``
        in destination-staging order, each sequence in name-staging
        order."""
        batches = []
        for dest, queue in self.queues.items():
            invalidates = tuple(
                name for name, ref in queue.items() if ref is None
            )
            pushes = tuple(
                (name, ref) for name, ref in queue.items() if ref is not None
            )
            batches.append((dest, invalidates, pushes))
        self.queues = {}
        return batches


class RegistryShard:
    """One node's endpoint of the naming service: its slice of the
    state, and the handlers of every ``registry.*`` kind it receives.

    :class:`repro.runtime.node.Node` builds its shard once
    (:meth:`NamingService.shard`) and installs the ``on_*`` bound
    methods directly as values of its kind-handler table, so the
    fabric's fire loop, the per-event core's ``_on_typed`` and the
    envelope fallback all enter the same code.  Handlers take the
    fabric's ``(item, payload)`` pair; registry kinds carry no payload.
    """

    __slots__ = ("service", "node_name", "pending", "authority", "replica",
                 "cache", "lease_holders", "sweep_handle", "channel",
                 "egress_handle")

    def __init__(self, service: "NamingService", node_name: str) -> None:
        self.service = service
        self.node_name = node_name
        #: The node's pending-futures table, lent by the node: a fabric
        #: request registers its future here and the node's reply
        #: handler — which owns expiry and dead-lettering — pops it.
        #: ``None`` on the shard of a node another process hosts.
        self.pending: Optional[Dict[int, Future]] = None
        #: Bindings this node is authoritative for (owns the root pin).
        self.authority: Dict[str, RemoteRef] = {}
        #: Full-copy bindings pushed by the primary (``replicated``).
        self.replica: Dict[str, RemoteRef] = {}
        #: Client-side lease cache (``home``/``hashed`` placements).
        self.cache = LeaseCache(service.config.cache_size)
        #: Authority-side lease book: name -> {holder node: lease expiry}.
        self.lease_holders: Dict[str, Dict[str, float]] = {}
        #: The node's live sweep-beat registration (``None`` while the
        #: cache is empty — the beat is registered lazily and stops
        #: itself when the cache drains).
        self.sweep_handle = None
        #: Authority-side coherence egress (``coherence="beat"``).
        self.channel = CoherenceChannel()
        #: The live coherence-sweep registration (``None`` while the
        #: egress queues are empty — registered lazily at first staging,
        #: stops itself when the queues drain, mirroring ``sweep_handle``).
        self.egress_handle = None

    # ------------------------------------------------------------------
    # Receive handlers (the values of the node's kind-handler table)
    # ------------------------------------------------------------------

    def on_lookup(self, lookup: RegistryLookup, payload=None) -> None:
        """Serve a fabric lookup at the authoritative shard: answer from
        the authority table at serve time, granting a lease on positive,
        cacheable replies (and recording the holder for invalidation)."""
        service = self.service
        name = lookup.name
        ref = self.authority.get(name)
        reply_to = lookup.reply_to
        lease_s = 0.0
        if ref is None:
            size = service._reply_miss_size
        else:
            size = service._reply_hit_size
            if service._caching and reply_to.node != self.node_name:
                lease_s = service.lease_duration_s
                holders = self.lease_holders.get(name)
                if holders is None:
                    holders = self.lease_holders[name] = {}
                holders[reply_to.node] = service._kernel.now + lease_s
                service.lease_grants += 1
        service._network.send_typed(
            self.node_name, reply_to.node, KIND_REGISTRY_REPLY, size,
            RegistryReply(
                reply_to.future_id, reply_to.activity, name, ref, lease_s
            ),
        )

    def cache_reply(self, reply: RegistryReply) -> None:
        """Client side of a lease grant: cache the binding and make sure
        the node's sweep beat is running."""
        service = self.service
        self.cache.put(
            reply.name, reply.ref, service._kernel.now + reply.lease_s
        )
        service._ensure_sweep(self)

    def on_bind(self, update: RegistryBind, payload=None) -> None:
        """Apply a fabric bind/unbind at its destination: the authority
        applies and acknowledges; a non-authority destination is a
        replica push (no reply address) and just installs the copy."""
        reply_to = update.reply_to
        if reply_to is None:
            # Replica push from the primary (``replicated`` placement).
            self.replica[update.name] = update.ref
            return
        service = self.service
        if update.ref is None:
            ok, error = service._apply_unbind(self, update.name)
        else:
            ok, error = service._apply_bind(self, update.name, update.ref)
        service._network.send_typed(
            self.node_name, reply_to.node, KIND_REGISTRY_REPLY,
            service._ack_size,
            RegistryAck(
                reply_to.future_id, reply_to.activity, update.name, ok, error
            ),
        )

    def on_invalidate(
        self, invalidate: RegistryInvalidate, payload=None
    ) -> None:
        """Drop local knowledge of the named bindings (cache entries and
        replica copies alike)."""
        entries = self.cache.entries
        replica = self.replica
        for name in invalidate.names:
            if name in entries:
                del entries[name]
            if name in replica:
                del replica[name]

    def on_push(self, push: RegistryPush, payload=None) -> None:
        """Install a flushed batch of replica bindings (no ack) — the
        beat-coherence counterpart of the eager no-reply :meth:`on_bind`
        replica path."""
        replica = self.replica
        for name, ref in push.bindings:
            replica[name] = ref

    def on_renew(self, message, payload=None) -> None:
        """Lease renewals: the authority's grant back at the client
        (extend the cached leases), or a client's batch at the authority
        (extend the leases of names still bound, invalidate the ones
        that vanished)."""
        service = self.service
        now = service._kernel.now
        if type(message) is RegistryRenewAck:
            cache = self.cache
            expires_at = now + message.lease_s
            for name in message.names:
                cache.extend(name, expires_at)
            return
        lease_s = service.lease_duration_s
        client = message.node
        granted = []
        gone = []
        for name in message.names:
            if name in self.authority:
                granted.append(name)
                holders = self.lease_holders.get(name)
                if holders is None:
                    holders = self.lease_holders[name] = {}
                holders[client] = now + lease_s
            else:
                gone.append(name)
        network = service._network
        sizes = service._sizes
        if granted:
            network.send_typed(
                self.node_name, client, KIND_REGISTRY_RENEW,
                sizes.registry_batch_size(len(granted)),
                RegistryRenewAck(names=tuple(granted), lease_s=lease_s),
            )
        if gone:
            if service._beat_coherence:
                for name in gone:
                    service._stage_coherence(self, client, name, None)
            else:
                network.send_typed(
                    self.node_name, client, KIND_REGISTRY_INVALIDATE,
                    sizes.registry_batch_size(len(gone)),
                    RegistryInvalidate(names=tuple(gone)),
                )
                service.invalidations_sent += 1


class NamingService:
    """The world's naming service; ``world.registry`` is an instance.

    Two API surfaces:

    * the **world-level control plane** (:meth:`bind`, :meth:`unbind`,
      :meth:`lookup`, :meth:`resolve`, :meth:`names`) — synchronous
      operations by non-active code (drivers, tests, ``main()``),
      applied directly at the authoritative shard, with coherence
      traffic (replica pushes, invalidations) still riding the fabric;
    * the **fabric plane** used by activities through their context
      (``ctx.lookup`` / ``ctx.bind`` / ``ctx.unbind`` call
      :meth:`lookup_from` / :meth:`bind_from`), where every operation is
      registry traffic routed by placement, resolves are served from the
      closest live copy (local authority, replica, or leased cache
      entry), and futures resolve at reply/hit time.  What arrives is
      handled by the destination node's :class:`RegistryShard`.
    """

    def __init__(self, world, config: Optional[RegistryConfig] = None) -> None:
        self._world = world
        self._kernel = world.kernel
        self._network = world.network
        self.config = config if config is not None else RegistryConfig()
        nodes = world.topology.nodes
        self._node_names: Tuple[str, ...] = tuple(nodes)
        self.home_node: str = (
            self.config.home_node
            if self.config.home_node is not None
            else nodes[0]
        )
        if self.home_node not in nodes:
            raise RegistryError(
                f"home node {self.home_node!r} is not in the topology"
            )
        self._replicated = self.config.placement == PLACEMENT_REPLICATED
        self._hashed = self.config.placement == PLACEMENT_HASHED
        self._caching = self.config.caching
        self._beat_coherence = self.config.coherence == COHERENCE_BEAT
        # The wire-size model is frozen, so the per-message registry
        # sizes are constants (batches are priced per flush).
        sizes = self._sizes = world.wire_sizes
        self._lookup_size = sizes.registry_lookup_size()
        self._reply_hit_size = sizes.registry_reply_size(True)
        self._reply_miss_size = sizes.registry_reply_size(False)
        self._bind_size = sizes.registry_update_size(True)
        self._unbind_size = sizes.registry_update_size(False)
        self._ack_size = sizes.registry_ack_size()
        self._invalidate_size = sizes.registry_batch_size(1)
        self._shards: Dict[str, RegistryShard] = {}
        #: World-level root-pin refcounts: an activity stays pinned while
        #: *any* name anywhere binds it (aliasing across names — and
        #: across authorities in ``hashed`` placement — is exact).
        self._pins: Dict[object, int] = {}
        # Instrumentation (the registry benchmark reads these).  The
        # ``*_hits`` counters only count resolves that actually found a
        # binding; a locally-served negative (authority/replica miss)
        # counts as ``local_misses``.
        self.resolves = 0
        self.authority_hits = 0
        self.replica_hits = 0
        self.cache_hits = 0
        self.local_misses = 0
        self.remote_lookups = 0
        self.binds_applied = 0
        self.unbinds_applied = 0
        self.invalidations_sent = 0
        self.renew_messages_sent = 0
        self.renew_names_sent = 0
        self.lease_grants = 0
        self.lease_expiries = 0
        # Coherence-channel instrumentation (``coherence="beat"`` only).
        #: Updates staged into egress queues (constituents).
        self.coherence_staged = 0
        #: Updates dropped by last-writer-wins coalescing before flush.
        self.coherence_coalesced = 0
        #: Batched coherence messages flushed (invalidates + pushes).
        self.coherence_messages_sent = 0
        #: Names carried by flushed coherence messages (constituents).
        self.coherence_names_sent = 0
        #: Batched ``registry.push`` messages sent.
        self.pushes_sent = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def authority_node(self, name: str) -> str:
        """The node owning the authoritative shard for ``name``."""
        if self._hashed:
            index = crc32(name.encode("utf-8")) % len(self._node_names)
            return self._node_names[index]
        return self.home_node

    def shard(self, node_name: str) -> RegistryShard:
        """The shard of ``node_name``, built on first use — by the
        node's constructor for a node this world hosts; by the control
        plane for a topology node another process hosts (a sharded
        world shares the topology, and any authority may be addressed).
        A name outside the topology is an error, not a new shard."""
        shards = self._shards
        if node_name in shards:
            return shards[node_name]
        if node_name not in self._node_names:
            raise RegistryError(
                f"node {node_name!r} is not in the topology: it has no "
                f"registry shard"
            )
        shard = shards[node_name] = RegistryShard(self, node_name)
        return shard

    @property
    def lease_beat_s(self) -> float:
        """The lease sweep period (and lease-duration unit)."""
        if self.config.lease_beat_s is not None:
            return self.config.lease_beat_s
        dgc = self._world.dgc_config
        return dgc.ttb if dgc is not None else 30.0

    @property
    def lease_duration_s(self) -> float:
        return self.config.lease_ttb * self.lease_beat_s

    # ------------------------------------------------------------------
    # Root pins
    # ------------------------------------------------------------------

    def _pin(self, ref: RemoteRef) -> None:
        pins = self._pins
        pins[ref.activity_id] = pins.get(ref.activity_id, 0) + 1
        activity = self._world.find_activity(ref.activity_id)
        if activity is not None:
            activity.is_root = True

    def _unpin(self, ref: RemoteRef) -> None:
        pins = self._pins
        count = pins.get(ref.activity_id, 0) - 1
        if count > 0:
            pins[ref.activity_id] = count
            return
        pins.pop(ref.activity_id, None)
        activity = self._world.find_activity(ref.activity_id)
        if activity is not None:
            activity.is_root = False

    def pin_count(self, activity_id) -> int:
        """How many live bindings pin ``activity_id`` (0 = collectable)."""
        return self._pins.get(activity_id, 0)

    # ------------------------------------------------------------------
    # World-level control plane (back-compatible Registry surface)
    # ------------------------------------------------------------------

    def bind(self, name: str, ref: RemoteRef) -> None:
        """Publish ``ref`` under ``name``; pins the target as a DGC root.

        Applied synchronously at the authoritative shard (the caller is
        non-active code standing next to it); replica pushes still ride
        the fabric in ``replicated`` placement.
        """
        authority = self.authority_node(name)
        ok, error = self._apply_bind(self.shard(authority), name, ref)
        if not ok:
            raise RegistryError(error)

    def unbind(self, name: str) -> None:
        """Remove a binding and release the root pin (the activity stays
        pinned while other names — under any authority — still bind it)."""
        authority = self.authority_node(name)
        ok, error = self._apply_unbind(self.shard(authority), name)
        if not ok:
            raise RegistryError(error)

    def lookup(self, name: str) -> RemoteRef:
        """Resolve a name from the authoritative table; the caller must
        ``acquire`` the ref to hold it."""
        ref = self.resolve(name)
        if ref is None:
            raise RegistryError(f"name {name!r} is not bound")
        return ref

    def resolve(self, name: str) -> Optional[RemoteRef]:
        """Non-raising :meth:`lookup` against the authoritative shard
        (an unbound name is a normal outcome, not a programming error).

        To *resolve* over the fabric — placement-routed traffic whose
        reply/hit creates the reference-graph edge — use
        :meth:`ActivityContext.lookup
        <repro.runtime.activeobject.ActivityContext.lookup>`.
        """
        return self.shard(self.authority_node(name)).authority.get(name)

    def names(self) -> List[str]:
        bound: List[str] = []
        for shard in self._shards.values():
            bound.extend(shard.authority)
        return sorted(bound)

    # ------------------------------------------------------------------
    # Authority-side state transitions
    # ------------------------------------------------------------------

    def _apply_bind(
        self, shard: RegistryShard, name: str, ref: RemoteRef
    ) -> Tuple[bool, str]:
        if name in shard.authority:
            return False, f"name {name!r} already bound"
        if self._world.find_activity(ref.activity_id) is None:
            return False, f"cannot bind dead activity {ref.activity_id}"
        self._pin(ref)
        shard.authority[name] = ref
        self.binds_applied += 1
        if self._replicated:
            self._update_replicas(shard, name, ref)
        return True, ""

    def _apply_unbind(
        self, shard: RegistryShard, name: str
    ) -> Tuple[bool, str]:
        ref = shard.authority.pop(name, None)
        if ref is None:
            return False, f"name {name!r} is not bound"
        self._unpin(ref)
        self.unbinds_applied += 1
        if self._replicated:
            self._update_replicas(shard, name, None)
        elif self._caching:
            self._invalidate_holders(shard, name)
        return True, ""

    def _update_replicas(
        self, shard: RegistryShard, name: str, ref: Optional[RemoteRef]
    ) -> None:
        """Fan an update of the primary out to every other node's
        replica: a new binding as ``registry.bind`` traffic with no
        reply address, an unbind (``ref`` ``None``) as an invalidation
        — or, under beat coherence, stage it into the egress queues for
        the next flush."""
        source = shard.node_name
        if self._beat_coherence:
            for dest in self._node_names:
                if dest != source:
                    self._stage_coherence(shard, dest, name, ref)
            return
        if ref is None:
            kind, size = KIND_REGISTRY_INVALIDATE, self._invalidate_size
            update = RegistryInvalidate(names=(name,))
            self.invalidations_sent += len(self._node_names) - 1
        else:
            kind, size = KIND_REGISTRY_BIND, self._bind_size
            update = RegistryBind(name=name, ref=ref, reply_to=None)
        network = self._network
        for dest in self._node_names:
            if dest != source:
                network.send_typed(source, dest, kind, size, update)

    def _invalidate_holders(self, shard: RegistryShard, name: str) -> None:
        """Push an explicit invalidation to every recorded lease holder
        of ``name`` (the unbind makes their entries stale).

        Holders whose lease already lapsed by the *authority's* book
        are invalidated too: the client's copy expires one propagation
        delay later than the book entry (the lease starts at reply
        delivery), so skipping "expired" holders would leave a live
        stale entry uninvalidated for that window.  An invalidation
        reaching a holder that already evicted the entry is a no-op.
        """
        holders = shard.lease_holders.pop(name, None)
        if not holders:
            return
        if self._beat_coherence:
            for holder in holders:
                self._stage_coherence(shard, holder, name, None)
            return
        network = self._network
        size = self._invalidate_size
        invalidate = RegistryInvalidate(names=(name,))
        for holder in holders:
            network.send_typed(
                shard.node_name, holder, KIND_REGISTRY_INVALIDATE, size,
                invalidate,
            )
            self.invalidations_sent += 1

    # ------------------------------------------------------------------
    # Fabric plane: the request side
    # ------------------------------------------------------------------

    def lookup_from(self, node, sender, name: str) -> Future:
        """Resolve ``name`` on behalf of ``sender`` (hosted on ``node``):
        the engine behind ``ctx.lookup``.

        Serves from the closest live copy — the local authoritative
        table, the local replica (``replicated``), or a live lease-cache
        entry — resolving the future immediately and creating the DGC
        edge at hit time; otherwise sends a ``registry.lookup`` to the
        authority, whose shard answers (:meth:`RegistryShard.on_lookup`),
        and resolves at reply delivery.
        """
        self.resolves += 1
        authority = (
            self.authority_node(name) if self._hashed else self.home_node
        )
        shard = node.registry_shard
        source = shard.node_name
        if source == authority:
            ref = shard.authority.get(name)
            if ref is not None:
                self.authority_hits += 1
            else:
                self.local_misses += 1
            return self._resolve_local(node, sender, ref)
        if self._replicated:
            ref = shard.replica.get(name)
            if ref is not None:
                self.replica_hits += 1
            else:
                self.local_misses += 1
            return self._resolve_local(node, sender, ref)
        if self._caching:
            ref = shard.cache.get(name, self._kernel.now)
            if ref is not None:
                self.cache_hits += 1
                return self._resolve_local(node, sender, ref)
        self.remote_lookups += 1
        future = Future()
        future_id = future.future_id
        shard.pending[future_id] = future
        self._network.send_typed(
            source, authority, KIND_REGISTRY_LOOKUP, self._lookup_size,
            RegistryLookup(name, ReplyAddress(source, sender.id, future_id)),
        )
        return future

    @staticmethod
    def _resolve_local(node, sender, ref: Optional[RemoteRef]) -> Future:
        future = Future()
        if ref is None:
            future.resolve(None)
        else:
            proxy = node.deserialize_ref(sender, ref)
            future.resolve(proxy, (proxy,))
        return future

    def bind_from(
        self, node, sender, name: str, ref: Optional[RemoteRef]
    ) -> Future:
        """Bind (``ref`` set) or unbind (``ref`` ``None``) over the
        fabric: the engine behind ``ctx.bind`` / ``ctx.unbind``.

        Returns a future resolving ``True`` when the authoritative shard
        applied the update, ``False`` when it rejected it (conflict,
        dead target, unknown name).
        """
        authority = (
            self.authority_node(name) if self._hashed else self.home_node
        )
        shard = node.registry_shard
        source = shard.node_name
        future = Future()
        if source == authority:
            if ref is None:
                ok, _error = self._apply_unbind(shard, name)
            else:
                ok, _error = self._apply_bind(shard, name, ref)
            future.resolve(ok)
            return future
        future_id = future.future_id
        shard.pending[future_id] = future
        reply_to = ReplyAddress(source, sender.id, future_id)
        self._network.send_typed(
            source, authority, KIND_REGISTRY_BIND,
            self._unbind_size if ref is None else self._bind_size,
            RegistryBind(name, ref, reply_to),
        )
        return future

    # ------------------------------------------------------------------
    # The beat-quantized coherence channel (``coherence="beat"``)
    # ------------------------------------------------------------------

    def _stage_coherence(
        self, shard: RegistryShard, dest: str, name: str,
        ref: Optional[RemoteRef],
    ) -> None:
        """Stage one coherence update (``ref`` = push, ``None`` =
        invalidate) into the authority's egress queue for ``dest`` and
        make sure the flush beat is running."""
        channel = shard.channel
        before = channel.coalesced
        channel.stage(dest, name, ref)
        self.coherence_staged += 1
        self.coherence_coalesced += channel.coalesced - before
        self._ensure_egress(shard)

    def _ensure_egress(self, shard: RegistryShard) -> None:
        if shard.egress_handle is not None:
            return
        shard.egress_handle = self._kernel.schedule_periodic(
            self.lease_beat_s,
            lambda: self._flush_coherence(shard),
            label=f"registry.coherence:{shard.node_name}",
        )

    def _flush_coherence(self, shard: RegistryShard) -> None:
        """One coherence beat on one authority node: drain the egress
        queues into one multi-name ``registry.invalidate`` and one
        multi-binding ``registry.push`` per destination.  Stops itself
        when the queues are already empty (re-registered lazily by the
        next staging), mirroring the lease-cache renew sweep."""
        channel = shard.channel
        if channel.empty:
            shard.egress_handle.stop()
            shard.egress_handle = None
            return
        network = self._network
        sizes = self._sizes
        source = shard.node_name
        for dest, invalidates, pushes in channel.flush():
            if invalidates:
                network.send_typed(
                    source, dest, KIND_REGISTRY_INVALIDATE,
                    sizes.registry_batch_size(len(invalidates)),
                    RegistryInvalidate(names=invalidates),
                )
                self.invalidations_sent += 1
                self.coherence_messages_sent += 1
                self.coherence_names_sent += len(invalidates)
            if pushes:
                network.send_typed(
                    source, dest, KIND_REGISTRY_PUSH,
                    sizes.registry_push_size(len(pushes)),
                    RegistryPush(bindings=pushes),
                )
                self.pushes_sent += 1
                self.coherence_messages_sent += 1
                self.coherence_names_sent += len(pushes)

    # ------------------------------------------------------------------
    # Leases: the renewal sweep
    # ------------------------------------------------------------------

    def _ensure_sweep(self, shard: RegistryShard) -> None:
        if shard.sweep_handle is not None:
            return
        shard.sweep_handle = self._kernel.schedule_periodic(
            self.lease_beat_s,
            lambda: self._sweep(shard),
            label=f"registry.sweep:{shard.node_name}",
        )

    def _sweep(self, shard: RegistryShard) -> None:
        """One lease beat on one node: evict lapsed entries, then renew
        — in one batched ``registry.renew`` per authority — every entry
        that was used since the last sweep and lapses within the next
        beat.  Stops itself when the cache drains (re-registered lazily
        by the next lease grant)."""
        now = self._kernel.now
        horizon = now + self.lease_beat_s
        cache = shard.cache
        entries = cache.entries
        expired = [name for name, entry in entries.items() if entry[1] <= now]
        for name in expired:
            del entries[name]
        self.lease_expiries += len(expired)
        if not entries:
            shard.sweep_handle.stop()
            shard.sweep_handle = None
            return
        due: Dict[str, List[str]] = {}
        for name, entry in entries.items():
            used = entry[2]
            entry[2] = False
            if used and entry[1] <= horizon:
                due.setdefault(self.authority_node(name), []).append(name)
        network = self._network
        sizes = self._sizes
        for authority, names in due.items():
            network.send_typed(
                shard.node_name, authority, KIND_REGISTRY_RENEW,
                sizes.registry_batch_size(len(names)),
                RegistryRenew(node=shard.node_name, names=tuple(names)),
            )
            self.renew_messages_sent += 1
            self.renew_names_sent += len(names)


#: Backward-compatible alias: the seed code base (and its tests) called
#: the world's naming table ``Registry``.
Registry = NamingService
