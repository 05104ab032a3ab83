"""The network fabric: routes traffic between nodes.

Responsibilities:

* keep one :class:`FifoChannel` per ordered node pair (lazily created),
* apply the latency model from the :class:`Topology` plus any fault-plan
  extra delays,
* short-circuit intra-node messages (delivered at the same simulated time,
  bypassing the accountant — paper Sec. 5: intra-JVM messages are passed
  by reference and not accounted),
* feed every cross-node message to the :class:`BandwidthAccountant`,
* in *pulse-batched* mode (the beat wheel's companion), coalesce every
  delivery sharing an exact delivery instant into one kernel event.

The fabric carries two message forms over one staged transport:

* **typed** (:meth:`Network.send_typed`) — the primary, allocation-light
  form: ``(kind, item, payload)`` staged directly into the pulse for its
  delivery instant — one frame from the node to the staged entry — and
  dispatched straight through the destination node's kind-handler table
  (intra-node deliveries through the typed sink in front of it).
  Every traffic kind — app requests, future replies, registry lookups
  and DGC protocol messages — rides this path; no per-message
  :class:`Envelope` is allocated.
* **envelope** (:meth:`Network.send`) — the per-event baseline and
  compatibility form: one :class:`Envelope` per transmission, one kernel
  event per delivery when batching is off.  ``send_typed`` falls back to
  it whenever pulse semantics cannot hold (variable per-message latency
  from fault-plan delay rules, destinations without a typed sink, or
  batching disabled), so fixed-seed runs are bit-identical between the
  two delivery modes.

Pulse storage has one shape, the **aggregated columnar** pulse:
per-instant pulse records pooled and recycled across instants through a
free list, so steady-state staging allocates O(instants), not
O(messages).  DGC traffic rides the fused
:meth:`send_dgc_single`/:meth:`send_dgc_run` lanes: messages staged
back-to-back on the same channel coalesce into **one** site-pair
aggregate entry carrying flat parallel ``(target_id, message)`` columns,
which the destination unwraps in one batch-sink call — per-message kind
dispatch and route re-probing disappear for the whole run — while a lone
DGC entry is handed straight to its target's bound collector handler
through the per-activity tables the node lends at registration.  Runs
only ever merge when *adjacent in stage order*, so the global delivery
sequence — and with it per-channel FIFO and every fixed-seed outcome —
is preserved by construction.  (A struct-of-arrays record for *plain*
entries was measured slower than the tuple layout — five list appends
beat one tuple only when entries merge — so the columnar form lives
where it pays: the aggregate runs' flat columns and the pooled records;
see PERFORMANCE.md.)

On top of it sits the **relaxed** tier
(``relaxed_aggregation`` on, selected by
``DgcConfig.aggregation="relaxed"``): instead of staging each DGC send
at its exact delivery instant, cross-node DGC traffic accumulates per
``(channel, kind)`` stream — :func:`repro.net.reorder.stream_key`'s
FIFO coordinate — and is flushed once per flush period by a beat-wheel
bucket.  The flush reserves FIFO positions and accounts per stream,
then merges every stream bound for the same ``(delivery instant,
destination, kind)`` into **one** columnar aggregate entry — one entry
per destination *site* per bucket, not per site pair — and intra-node
DGC coalesces per ``(site, kind)`` and is handed straight to the
destination's sinks at the flush instant, never touching the pulse.
Deliveries are thereby *deferred* (by less than one flush period, to
the next absolute grid boundary) but never reordered within a stream
and never moved earlier, which is exactly the protocol-safe class
:mod:`repro.net.reorder` encodes: per-stream FIFO plus delivery-clock
monotonicity is all the DGC's correctness argument uses (paper
Sec. 3.2).  Exact-order tracer equivalence is traded away — collection
*instants* shift within the deferral bound, and with them run length
and traffic totals — in exchange for an order-of-magnitude fewer
staged entries at Fig. 10 scale; collection outcomes and safety remain
identical to the per-event core (the relaxed equivalence tier, see
PERFORMANCE.md).
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from math import floor
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, UnknownDestinationError
from repro.net.accounting import BandwidthAccountant, TrafficCategory
from repro.net.channel import FifoChannel
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    AGGREGATE_KINDS,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    PAIRED_PAYLOAD_KINDS,
    bind_dispatch_shapes,
)
from repro.net.message import Envelope
from repro.net.topology import Topology
from repro.sim.kernel import SimKernel

#: Internal aggregate markers (see :data:`repro.net.message.AGGREGATE_KINDS`);
#: bound to module globals so the hot paths compare by identity.
_AGG_DGC_MESSAGE = AGGREGATE_KINDS[KIND_DGC_MESSAGE]
_AGG_DGC_RESPONSE = AGGREGATE_KINDS[KIND_DGC_RESPONSE]

# The snapshot above means later paired/aggregate registrations would be
# invisible here; tell the registry so register_kind can reject them.
bind_dispatch_shapes("repro.net.network")

#: A cached route: ``(sink, channel, dgc_fast, typed_fast)``.
_Route = Tuple[
    Optional[Callable[[Envelope], None]], Optional[FifoChannel], bool, bool
]

#: Free-list high-water mark: distinct in-flight delivery instants are
#: bounded by distinct channel latencies, so a short list suffices; the
#: cap only guards against pathological churn keeping dead records alive.
_PULSE_POOL_CAP = 64


def _drop_payload(payload: Any) -> None:
    """Shared no-op :attr:`Envelope.deliver` for fallback typed envelopes
    (dispatch happens through node sinks)."""


class _CategoryMemo(dict):
    """Accounting memo of the fused send lanes: kind -> the accountant's
    live :class:`TrafficCategory`, bound on the kind's first cross-node
    send (never earlier: an unseen kind must stay absent from the
    accountant's summary) and bumped in place from then on."""

    __slots__ = ("_category",)

    def __init__(self, accountant: BandwidthAccountant) -> None:
        self._category = accountant.category

    def __missing__(self, kind: str) -> TrafficCategory:
        category = self[kind] = self._category(kind)
        return category


class _IngressChannel:
    """Stand-in channel for cross-shard entries injected into the local
    pulse: the columnar fire loop bumps ``delivered_count`` and branches
    on ``channel is not None``, and injected traffic needs both — but
    the real :class:`FifoChannel` lives wholly on the *sender's* shard
    (it computed the delivery time and did the accounting before the
    entry crossed the wire), so the receive side only needs this
    counter."""

    __slots__ = ("delivered_count",)

    def __init__(self) -> None:
        self.delivered_count = 0


# repro: allow[HOT-slots] one Network per world (no per-event instances), and benchmarks monkeypatch send on the instance, which needs the __dict__
class Network:
    """Connects registered node sinks through FIFO channels.

    Pulse entry layout is ``(channel, sink, dest, kind, item, payload)``:

    * envelope entries — ``kind`` is ``None``, ``item`` the envelope;
      local ones carry their resolved sink, cross-node ones re-resolve
      the destination at delivery,
    * typed entries — ``kind`` is a traffic-kind constant; local ones
      carry the resolved typed sink, cross-node ones the destination
      node name in ``dest``,
    * aggregate entries — ``kind`` is an
      :data:`~repro.net.message.AGGREGATE_KINDS` marker and
      ``item``/``payload`` are flat parallel ``(target_id, message)``
      column lists covering an adjacent same-channel run of DGC traffic.
    """

    def __init__(
        self,
        kernel: SimKernel,
        topology: Topology,
        *,
        accountant: Optional[BandwidthAccountant] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self._kernel = kernel
        self._topology = topology
        self._accountant = accountant if accountant is not None else BandwidthAccountant()
        #: Per-kind half of the fused lanes' accounting memo; the
        #: per-pair half is each channel's ``acct_box``.
        self._categories = _CategoryMemo(self._accountant)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self._sinks: Dict[str, Callable[[Envelope], None]] = {}
        self._channels: Dict[Tuple[str, str], FifoChannel] = {}
        #: Per-node typed dispatchers ``(kind, item, payload) -> None``:
        #: the envelope-free receive path of the unified fabric, one sink
        #: per node for *all* traffic kinds.
        self._typed_sinks: Dict[str, Callable[[str, Any, Any], None]] = {}
        #: Per-node kind-handler tables ``kind -> (item, payload) ->
        #: None``: what a typed sink dispatches through, lent to the
        #: fabric so the columnar fire loop calls a cross-node message's
        #: handler directly instead of via the sink's kind dispatch.
        self._kind_tables: Dict[str, Dict[str, Callable[[Any, Any], None]]] = {}
        #: Per-node DGC receive lanes of the pulse, keyed by
        #: destination: single-message handlers ``(target, message)``
        #: (skipping the typed sink's kind dispatch) and aggregate
        #: unwrappers ``(targets, messages)`` looping the flat columns
        #: locally.
        self._dgc_message_sinks: Dict[str, Callable[[Any, Any], None]] = {}
        self._dgc_response_sinks: Dict[str, Callable[[Any, Any], None]] = {}
        self._dgc_message_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        self._dgc_response_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        #: Per-node, per-activity DGC target tables ``target id ->
        #: (message) -> None`` lent by the node (it keeps them current):
        #: the columnar fire loop hands a DGC single straight to the
        #: bound collector handler; a miss falls to the single sink.
        self._dgc_message_tables: Dict[str, Dict[Any, Callable[[Any], None]]] = {}
        self._dgc_response_tables: Dict[str, Dict[Any, Callable[[Any], None]]] = {}
        #: When true (the beat wheel is active), *all* deliveries are
        #: pulse-batched: every send staged for the same delivery
        #: instant shares one kernel event, so a beat bucket's whole
        #: fan-out — and an NAS iteration's whole exchange wave — costs
        #: O(distinct delivery times) heap traffic instead of
        #: O(messages).  Delivery times (per-channel latency plus the
        #: FIFO clamp), accounting, partition drops and per-channel
        #: counters are computed exactly as on the per-event path, and
        #: entries fire in stage order — which is send order, also
        #: *across* traffic kinds, so per-channel FIFO (paper Sec. 3.2)
        #: is preserved by construction and fixed-seed outcomes are
        #: bit-identical with per-event delivery.
        self.pulse_batching = False
        #: The relaxed coalescing tier (see module docstring): DGC sends
        #: accumulate per ``(channel, kind)`` stream and flush once per
        #: :attr:`_relaxed_flush_s` on the beat wheel's absolute grid.
        #: Only meaningful while ``pulse_batching`` is on; enable
        #: through :meth:`configure_relaxed`.
        self.relaxed_aggregation = False
        self._relaxed_flush_s: Optional[float] = None
        #: ``(channel, kind) -> [dest, size_bytes, targets, messages]``
        #: accumulator, insertion-ordered (deterministic flush order).
        self._relaxed_acc: Dict[tuple, list] = {}
        #: ``(dest, kind) -> [targets, messages]`` accumulator for
        #: intra-node DGC (no channel, no wire): delivered straight to
        #: the destination's sinks at the flush instant.
        self._relaxed_local_acc: Dict[tuple, list] = {}
        #: The live flush beat (a :class:`repro.sim.beats.BeatHandle`);
        #: armed lazily on first accumulation, stopped again by a flush
        #: that finds the accumulator drained — idle worlds schedule
        #: nothing, mirroring the registry's lazy lease sweep.
        self._relaxed_beat = None
        #: Aggregate entries emitted by relaxed flushes (the coalescing
        #: denominator: constituents / flushed entries is the tier's
        #: merge ratio).
        self.relaxed_flush_count = 0
        self._pulses: Dict[float, list] = {}
        #: Free list of recycled pulse records: the
        #: per-instant entry lists are cleared and reused, keeping their
        #: grown capacity, so steady-state staging allocates nothing.
        self._pulse_pool: List[list] = []
        #: One-slot staging memo: consecutive sends
        #: overwhelmingly share a delivery instant (a fan-out's channels
        #: have equal latencies), so the float-keyed dict probe is
        #: skipped when the instant repeats.  Invalidated when the
        #: matching pulse fires.
        self._last_pulse_time = -1.0
        self._last_pulse: list = []
        #: Clock fast path: the simulation kernel maintains ``_now`` as
        #: a plain attribute (its ``now`` property just reads it); the
        #: live kernel computes ``now`` dynamically and keeps the
        #: property path.
        self._fast_clock = hasattr(kernel, "_now")
        #: Kernel events created on behalf of pulses; with
        #: ``sent_count`` sums this is the fabric's batching ratio.
        self.pulse_event_count = 0
        #: Pulse entries actually delivered (counted per pulse at fire
        #: time): the staged-entry axis the relaxed tier is gated on —
        #: entries, not messages, are what staging and dispatch pay for.
        self.staged_entry_count = 0
        #: Test hook: when set, ``permuter(delivery_time, entries)`` is
        #: applied to every pulse's entry list before delivery.  The
        #: property suite installs :func:`repro.net.reorder.safe_shuffle`
        #: here to exercise the protocol-safe reordering class on live
        #: schedules; ``None`` (always, outside tests) costs one
        #: attribute read per pulse.
        self.pulse_permuter: Optional[Callable[[float, list], list]] = None
        #: Site-pair aggregation effectiveness: constituent DGC messages
        #: that merged into an already-staged aggregate entry.
        self.aggregated_message_count = 0
        #: Shard-boundary egress (:meth:`configure_shard_egress`): the
        #: set of topology nodes owned by *other* shards, the runs the
        #: coordinator round drains into wire frames, and the ingress
        #: stand-in channel for injected remote runs.  Shard-remote
        #: sends are staged as columns from the start: one run ``(kind,
        #: delivery, dest, items, payloads)`` per ``(kind, delivery,
        #: dest)`` key, in first-send order (the dict's), each send
        #: appended to its run's columns — so the frame packer and the
        #: receiving pulse get the traffic already grouped.
        self._egress_nodes: Optional[frozenset] = None
        self._egress: Dict[tuple, tuple] = {}
        self.egress_message_count = 0
        self._ingress = _IngressChannel()
        #: Pulse entries staged by :meth:`inject_remote_runs` — the
        #: wire-row count: a DGC run is one entry whatever its length.
        self.injected_entry_count = 0
        #: Kernel events created *by injection* — pulse instants that
        #: exist only because a cross-shard frame landed there.  The
        #: worker subtracts this from the kernel's fired count to split
        #: coordination work from workload work in its stats (an
        #: injected instant a local pulse later merges into is charged
        #: to coordination; the reverse is charged to workload — the
        #: attribution of shared instants, not the event total, is the
        #: approximation).
        self.ingress_pulse_event_count = 0
        #: Hot-path cache: source -> dest -> ``(sink, channel,
        #: dgc_fast, typed_fast)`` as built by :meth:`_build_route`.  A
        #: ``None`` sink means a shard-remote destination, a ``None``
        #: channel intra-node delivery.  Two nested string-keyed dicts
        #: avoid building a key tuple per message.  Cleared on every
        #: registration: a re-registration replaces the node's lanes,
        #: and with them the flags a route precomputed.
        self._routes: Dict[str, Dict[str, _Route]] = {}

    @property
    def accountant(self) -> BandwidthAccountant:
        """The bandwidth accountant, fixed for the network's lifetime:
        the fused send lanes hold its per-kind categories and the
        channels its per-pair boxes."""
        return self._accountant

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def kernel(self) -> SimKernel:
        return self._kernel

    def register_node(
        self,
        node: str,
        sink: Callable[[Envelope], None],
        typed_sink: Optional[Callable[[str, Any, Any], None]] = None,
        dgc_sinks: Optional[
            Dict[str, Tuple[Callable[[Any, Any], None], Callable[[list, list], None]]]
        ] = None,
        kind_handlers: Optional[Dict[str, Callable[[Any, Any], None]]] = None,
        dgc_targets: Optional[
            Dict[str, Dict[Any, Callable[[Any], None]]]
        ] = None,
    ) -> None:
        """Attach a node's receive dispatchers to the fabric, replacing
        every lane of an earlier registration of ``node`` (a lane the
        new registration omits is removed, never inherited).

        ``typed_sink`` is the envelope-free entry point for pulse-batched
        traffic of every kind; nodes that do not provide one fall back to
        the per-envelope path even when batching is enabled.
        ``dgc_sinks`` maps a DGC kind to its ``(single, batch)`` handler
        pair — the pulse's direct receive lanes; without them
        DGC traffic for this node rides the typed sink like every other
        kind.  ``kind_handlers`` is the table ``typed_sink`` dispatches
        through, total over the kinds the node receives (a miss must
        raise like the sink would); the fire loop indexes it directly,
        the per-event core keeps calling ``typed_sink``.
        ``dgc_targets`` maps a DGC kind to the node's live per-activity
        table ``target id -> (message) -> None``: the fire loop calls a
        single's bound handler through it and falls to the kind's single
        sink on a miss (or when no table was lent).
        """
        self._sinks[node] = sink
        dgc_sinks = dgc_sinks or {}
        dgc_targets = dgc_targets or {}
        message_sinks = dgc_sinks.get(KIND_DGC_MESSAGE, (None, None))
        response_sinks = dgc_sinks.get(KIND_DGC_RESPONSE, (None, None))
        for lanes, lane in (
            (self._typed_sinks, typed_sink),
            (self._kind_tables,
             kind_handlers if typed_sink is not None else None),
            (self._dgc_message_sinks, message_sinks[0]),
            (self._dgc_message_batch_sinks, message_sinks[1]),
            (self._dgc_response_sinks, response_sinks[0]),
            (self._dgc_response_batch_sinks, response_sinks[1]),
            (self._dgc_message_tables, dgc_targets.get(KIND_DGC_MESSAGE)),
            (self._dgc_response_tables, dgc_targets.get(KIND_DGC_RESPONSE)),
        ):
            if lane is None:
                lanes.pop(node, None)
            else:
                lanes[node] = lane
        self._routes.clear()

    def max_comm(self) -> float:
        """Upper bound on one-way communication time (MaxComm, Sec. 3.1)."""
        return self._topology.max_one_way_latency()

    def configure_relaxed(self, flush_period: float) -> None:
        """Enable the relaxed coalescing tier with the given flush
        period (seconds).  Requires ``pulse_batching``; the flush beat
        itself is armed lazily on first DGC accumulation."""
        if flush_period <= 0:
            raise ValueError(
                f"relaxed flush period must be positive, got {flush_period}"
            )
        self.relaxed_aggregation = True
        self._relaxed_flush_s = flush_period

    def configure_shard_egress(self, local_nodes) -> None:
        """Mark every topology node outside ``local_nodes`` as living on
        a remote shard: traffic for those destinations is *staged at
        send time* exactly as local traffic (the directed
        :class:`FifoChannel` lives wholly on the sender's shard, so the
        FIFO clamp and the accountant see the send here and only here),
        but instead of entering the local pulse it joins the egress run
        of its ``(kind, delivery_time, dest)`` — the literal content of
        the next wire frame (:mod:`repro.net.wire`).  Requires the
        batched pulse core; the per-event envelope path raises on
        shard-remote destinations (see :meth:`send`)."""
        self._egress_nodes = frozenset(self._topology.nodes) - frozenset(
            local_nodes
        )
        self._routes.clear()

    def drain_egress(self) -> List[tuple]:
        """Detach and return the staged cross-shard runs (the frame
        body for this round) in first-send order."""
        runs = list(self._egress.values())
        self._egress.clear()
        return runs

    def inject_remote_runs(self, runs) -> None:
        """Stage decoded cross-shard runs into the local pulse.

        Called between kernel advances (single-threaded), with every
        run's delivery time at or after the granted horizon — the
        coordinator's lookahead guarantee; an earlier delivery would
        mean the conservative-horizon proof was violated, so it raises
        rather than silently reordering.  A DGC run becomes **one**
        aggregate pulse entry carrying its columns as they came off the
        wire; every other run one entry per item.
        No accounting happens here: the sending shard already charged
        the traffic (the merged accountant is the sum over shards).
        """
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        ingress = self._ingress
        stage = self._stage
        pulses = self._pulses
        pulses_before = self.pulse_event_count
        rows = 0
        for kind, delivery, dest, items, payloads in runs:
            if delivery < now:
                raise NetworkError(
                    f"late cross-shard {kind} run: delivery {delivery} is "
                    f"before local time {now} (lookahead violated)"
                )
            if kind in AGGREGATE_KINDS:
                entry = (
                    ingress, None, dest, AGGREGATE_KINDS[kind], items, payloads
                )
                if delivery in pulses:
                    pulses[delivery].append(entry)
                else:
                    stage(delivery, entry)
                rows += 1
                continue
            for item, payload in zip(items, payloads):
                stage(delivery, (ingress, None, dest, kind, item, payload))
            rows += len(items)
        self.injected_entry_count += rows
        self.ingress_pulse_event_count += (
            self.pulse_event_count - pulses_before
        )

    # ------------------------------------------------------------------
    # Send paths
    # ------------------------------------------------------------------

    def send_typed(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        item: Any,
        payload: Any = None,
    ) -> None:
        """Route one typed message — the unified, allocation-light send
        path every traffic kind goes through, and the fused lane of
        app and registry traffic: one frame from the node to the staged
        pulse entry.

        In pulse-batched mode the message is staged for its exact
        per-envelope delivery instant (the channel's constant latency,
        FIFO clamp and send counter, inlined from
        :meth:`FifoChannel._reserve_slot`); all traffic sharing that
        instant rides one kernel event and no :class:`Envelope` is
        allocated.  Accounting and partition drops match :meth:`send`
        (the accountant is charged through the memoized per-kind
        category and the channel's lent pair box — bit-identical totals
        to :meth:`BandwidthAccountant.observe_sized`), so batching
        changes heap traffic and allocations, never simulation outcomes.
        A shard-remote destination takes the same lane up to the staging
        step, where the message joins its egress run instead of the
        local pulse.

        Falls back to the per-envelope path whenever pulse semantics
        cannot hold: batching disabled (the per-event baseline), channels
        with fault-plan delay rules (their latency is per-message), or
        an envelope-only destination.
        """
        if not self.pulse_batching:
            self.send(
                Envelope(source, dest, kind, size_bytes,
                         self._envelope_payload(kind, item, payload),
                         _drop_payload)
            )
            return
        try:
            route = self._routes[source][dest]
        except KeyError:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        channel = route[1]
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        if route[3] and not (
            channel._delay_rules
            and route[0] is not None
            and fault_plan.may_delay(source, dest, kind)
        ):
            # Inlined FifoChannel._reserve_slot: clamp + counter without
            # a callee frame.
            latency = channel._base_latency
            if latency < 0.0:
                latency = 0.0
            delivery_time = now + latency
            if delivery_time < channel._last_delivery_time:
                delivery_time = channel._last_delivery_time
            else:
                channel._last_delivery_time = delivery_time
            channel.sent_count += 1
            # Inlined BandwidthAccountant.observe_sized.
            category = self._categories[kind]
            category.bytes += size_bytes
            category.messages += 1
            channel.acct_box[0] += size_bytes
            if route[0] is None:
                # Shard-remote destination: the sender-side channel
                # reserved the FIFO slot and the accountant charged the
                # send exactly as for a local staging; the message rides
                # the next wire frame instead of the local pulse.
                egress = self._egress
                key = (kind, delivery_time, dest)
                if key in egress:
                    run = egress[key]
                    run[3].append(item)
                    run[4].append(payload)
                else:
                    egress[key] = (
                        kind, delivery_time, dest, [item], [payload]
                    )
                self.egress_message_count += 1
                return
            # Cross-node: resolved again at delivery so a node that
            # vanishes mid-flight drops the entry (mirrors _dispatch).
            entry = (channel, None, dest, kind, item, payload)
        elif channel is None and dest in self._typed_sinks:
            # Intra-node: delivered at the current instant, unaccounted.
            delivery_time = now
            entry = (None, self._typed_sinks[dest], dest, kind, item, payload)
        else:
            # Variable latency (the pulse cannot share instants
            # meaningfully — only for streams a delay rule could
            # actually match; unmatched kinds keep pulse semantics)
            # or an envelope-only destination: keep the per-envelope
            # path's semantics.
            self.send(
                Envelope(source, dest, kind, size_bytes,
                         self._envelope_payload(kind, item, payload),
                         _drop_payload)
            )
            return
        if delivery_time == self._last_pulse_time:
            self._last_pulse.append(entry)
            return
        pulses = self._pulses
        if delivery_time in pulses:
            entries = pulses[delivery_time]
        else:
            # First delivery at this instant: open its pulse (inlined
            # _stage — once per instant, but request/reply traffic
            # rarely shares one).
            pool = self._pulse_pool
            entries = pool.pop() if pool else []
            pulses[delivery_time] = entries
            kernel.schedule_fire_at(
                delivery_time, self._fire_pulse, (delivery_time,)
            )
            self.pulse_event_count += 1
        entries.append(entry)
        self._last_pulse_time = delivery_time
        self._last_pulse = entries

    def send_dgc_single(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        item: Any,
        payload: Any,
    ) -> None:
        """Fused DGC send lane of the pulse: one frame from the node to
        the staged pulse entry.

        Equivalent to :meth:`send_typed` — same route/partition/fallback
        semantics, same accounting, same FIFO reservation — plus the
        site-pair tail merge: when the pulse's most recently staged
        entry is a same-channel DGC entry of the same kind, this message
        joins its flat ``(target_id, message)`` columns instead of
        adding an entry.  Merging only ever extends the *tail*, so the
        global delivery sequence equals per-message stage order exactly.
        """
        if not self.pulse_batching:
            self.send_typed(source, dest, kind, size_bytes, item, payload)
            return
        try:
            route = self._routes[source][dest]
        except KeyError:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        channel = route[1]
        relaxed = self.relaxed_aggregation
        if (
            relaxed
            and channel is None
            and dest in self._dgc_message_batch_sinks
            and dest in self._dgc_response_batch_sinks
        ):
            # Relaxed tier, intra-node: coalesce per (site, kind) and
            # deliver the whole bucket straight to the DGC sinks at the
            # flush instant — no wire, no accounting, no pulse entry.
            acc = self._relaxed_local_acc
            box = acc.get((dest, kind))
            if box is None:
                acc[(dest, kind)] = [[item], [payload]]
                if self._relaxed_beat is None:
                    self._arm_relaxed_flush()
            else:
                box[0].append(item)
                box[1].append(payload)
                self.aggregated_message_count += 1
            return
        if not route[2] or (
            channel._delay_rules
            and fault_plan.may_delay(source, dest, kind)
        ):
            self.send_typed(source, dest, kind, size_bytes, item, payload)
            return
        if relaxed and route[0] is not None:
            # Relaxed tier: join the per-(channel, kind) stream
            # accumulator; FIFO reservation and accounting happen at
            # flush time (totals are bit-identical — same messages,
            # same sizes, same counts).  Shard-remote sends are never
            # deferred: they stage for the next frame right away.
            acc = self._relaxed_acc
            box = acc.get((channel, kind))
            if box is None:
                acc[(channel, kind)] = [dest, size_bytes, [item], [payload]]
                if self._relaxed_beat is None:
                    self._arm_relaxed_flush()
            else:
                box[2].append(item)
                box[3].append(payload)
                self.aggregated_message_count += 1
            return
        # Inlined FifoChannel.stage_send_n(1): clamp + counter without a
        # callee frame — this lane runs once per DGC message at scale.
        latency = channel._base_latency
        if latency < 0.0:
            latency = 0.0
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        delivery_time = now + latency
        if delivery_time < channel._last_delivery_time:
            delivery_time = channel._last_delivery_time
        else:
            channel._last_delivery_time = delivery_time
        channel.sent_count += 1
        # Inlined BandwidthAccountant.observe_sized through the memoized
        # per-kind categories and the channel's lent per-pair byte box
        # (bit-identical totals, no callee frame, no dict probes).
        category = self._categories[kind]
        category.bytes += size_bytes
        category.messages += 1
        channel.acct_box[0] += size_bytes
        if route[0] is None:
            # Shard-remote: the message joins the egress run of its
            # (kind, instant, destination) — the frame's column block —
            # instead of the local pulse.
            egress = self._egress
            key = (kind, delivery_time, dest)
            if key in egress:
                run = egress[key]
                run[3].append(item)
                run[4].append(payload)
                self.aggregated_message_count += 1
            else:
                egress[key] = (kind, delivery_time, dest, [item], [payload])
            self.egress_message_count += 1
            return
        if delivery_time == self._last_pulse_time:
            entries = self._last_pulse
        else:
            pulses = self._pulses
            if delivery_time not in pulses:
                pool = self._pulse_pool
                entries = pool.pop() if pool else []
                pulses[delivery_time] = entries
                kernel.schedule_fire_at(
                    delivery_time, self._fire_pulse, (delivery_time,)
                )
                self.pulse_event_count += 1
                self._last_pulse_time = delivery_time
                self._last_pulse = entries
                entries.append((channel, None, dest, kind, item, payload))
                return
            entries = pulses[delivery_time]
            self._last_pulse_time = delivery_time
            self._last_pulse = entries
        last = entries[-1]
        if last[0] is channel:
            last_kind = last[3]
            agg_kind = (
                _AGG_DGC_MESSAGE if kind == KIND_DGC_MESSAGE
                else _AGG_DGC_RESPONSE
            )
            if last_kind is agg_kind:
                last[4].append(item)
                last[5].append(payload)
                self.aggregated_message_count += 1
                return
            if last_kind == kind:
                # Promote the adjacent single into an aggregate pair —
                # the batch sinks are guaranteed present: this lane is
                # only reached through the route's ``dgc_fast`` check.
                entries[-1] = (
                    channel, None, dest, agg_kind,
                    [last[4], item], [last[5], payload],
                )
                self.aggregated_message_count += 1
                return
        entries.append((channel, None, dest, kind, item, payload))

    def send_dgc_run(
        self,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        targets: list,
        messages: list,
    ) -> None:
        """Route a run of same-kind DGC messages staged at one instant
        for one destination node — a collector broadcast's per-site
        fan-out, sent with **one** route probe, one FIFO reservation,
        one accounting call and one pulse entry.

        ``targets``/``messages`` are parallel ``(target_id, message)``
        columns in send order; ownership transfers to the fabric.  Every
        constituent is accounted at ``size_bytes`` (DGC messages are of
        fixed size, paper Sec. 4.3) and counted individually, and the
        run occupies consecutive stage positions, so outcomes are
        bit-identical to sending each message through
        :meth:`send_typed` — which is exactly what the fallback does
        whenever batching is off (the per-event core), the channel has
        fault-plan delay rules, or the destination lacks a batch sink.
        """
        count = len(targets)
        if count < 2:
            if count:
                self.send_dgc_single(
                    source, dest, kind, size_bytes, targets[0], messages[0]
                )
            return
        if not self.pulse_batching:
            for index in range(count):
                self.send_typed(
                    source, dest, kind, size_bytes,
                    targets[index], messages[index],
                )
            return
        try:
            route = self._routes[source][dest]
        except KeyError:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += count
            return
        channel = route[1]
        if route[0] is not None:
            relaxed = self.relaxed_aggregation
            if (
                relaxed
                and channel is None
                and dest in self._dgc_message_batch_sinks
                and dest in self._dgc_response_batch_sinks
            ):
                acc = self._relaxed_local_acc
                box = acc.get((dest, kind))
                if box is None:
                    acc[(dest, kind)] = [targets, messages]
                    if self._relaxed_beat is None:
                        self._arm_relaxed_flush()
                    self.aggregated_message_count += count - 1
                else:
                    box[0].extend(targets)
                    box[1].extend(messages)
                    self.aggregated_message_count += count
                return
            if not route[2] or (
                channel._delay_rules
                and fault_plan.may_delay(source, dest, kind)
            ):
                # Intra-node, variable-latency or batch-less destination:
                # per-message semantics, exact same order.
                for index in range(count):
                    self.send_typed(
                        source, dest, kind, size_bytes,
                        targets[index], messages[index],
                    )
                return
            if relaxed:
                acc = self._relaxed_acc
                box = acc.get((channel, kind))
                if box is None:
                    acc[(channel, kind)] = [dest, size_bytes, targets, messages]
                    if self._relaxed_beat is None:
                        self._arm_relaxed_flush()
                    self.aggregated_message_count += count - 1
                else:
                    box[2].extend(targets)
                    box[3].extend(messages)
                    self.aggregated_message_count += count
                return
        # Inlined FifoChannel.stage_send_n(count) and
        # BandwidthAccountant.observe_run, as in send_dgc_single: all
        # ``count`` messages share one clamp (constant latency, one
        # instant) and are charged at their modeled size each.
        latency = channel._base_latency
        if latency < 0.0:
            latency = 0.0
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        delivery_time = now + latency
        if delivery_time < channel._last_delivery_time:
            delivery_time = channel._last_delivery_time
        else:
            channel._last_delivery_time = delivery_time
        channel.sent_count += count
        total_bytes = size_bytes * count
        category = self._categories[kind]
        category.bytes += total_bytes
        category.messages += count
        channel.acct_box[0] += total_bytes
        if route[0] is None:
            # Shard-remote run: the columns join (or open) the egress
            # run of their (kind, instant, destination) — the receiving
            # shard's batch sink unwraps the flat columns, so the
            # columnar win survives the process boundary.
            egress = self._egress
            key = (kind, delivery_time, dest)
            if key in egress:
                run = egress[key]
                run[3].extend(targets)
                run[4].extend(messages)
                self.aggregated_message_count += count
            else:
                egress[key] = (kind, delivery_time, dest, targets, messages)
                self.aggregated_message_count += count - 1
            self.egress_message_count += count
            return
        agg_kind = (
            _AGG_DGC_MESSAGE if kind == KIND_DGC_MESSAGE else _AGG_DGC_RESPONSE
        )
        if delivery_time == self._last_pulse_time:
            entries = self._last_pulse
        else:
            pulses = self._pulses
            if delivery_time not in pulses:
                pool = self._pulse_pool
                entries = pool.pop() if pool else []
                pulses[delivery_time] = entries
                kernel.schedule_fire_at(
                    delivery_time, self._fire_pulse, (delivery_time,)
                )
                self.pulse_event_count += 1
                self._last_pulse_time = delivery_time
                self._last_pulse = entries
                entries.append(
                    (channel, None, dest, agg_kind, targets, messages)
                )
                self.aggregated_message_count += count - 1
                return
            entries = pulses[delivery_time]
            self._last_pulse_time = delivery_time
            self._last_pulse = entries
        last = entries[-1]
        if last[0] is channel:
            last_kind = last[3]
            if last_kind is agg_kind:
                last[4].extend(targets)
                last[5].extend(messages)
                self.aggregated_message_count += count
                return
            if last_kind == kind:
                # Promote the adjacent single entry into the aggregate.
                targets.insert(0, last[4])
                messages.insert(0, last[5])
                entries[-1] = (channel, None, dest, agg_kind, targets, messages)
                self.aggregated_message_count += count
                return
        entries.append((channel, None, dest, agg_kind, targets, messages))
        self.aggregated_message_count += count - 1

    @staticmethod
    def _envelope_payload(kind: str, item: Any, payload: Any) -> Any:
        """The legacy :class:`Envelope` payload shape for a typed
        message: a pair for the paired kinds (DGC), the bare item
        otherwise."""
        if kind in PAIRED_PAYLOAD_KINDS:
            return (item, payload)
        return item

    def send(self, envelope: Envelope) -> None:
        """Route a pre-built ``envelope`` to its destination node — the
        per-event baseline and the fallback for traffic that cannot ride
        the pulse.

        The (sink, channel) pair per node pair is cached so the hot path
        pays one dict probe instead of sink lookup + channel lookup per
        envelope.  Cross-node deliveries still go through ``_dispatch``
        (a delivery-time sink lookup) so a destination that vanishes
        mid-flight drops the envelope, as the fault model requires.

        In pulse-batched mode the envelope is staged by delivery instant
        instead of getting its own kernel event; everything else —
        times, accounting, counters, per-channel order — is unchanged.
        """
        source = envelope.source_node
        dest = envelope.dest_node
        try:
            route = self._routes[source][dest]
        except KeyError:
            route = self._build_route(source, dest)
        # Read through fault_plan each time (it is a public attribute and
        # may be replaced); the set's truthiness is the zero-cost guard.
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        sink = route[0]
        channel = route[1]
        if sink is None:
            # A shard-remote destination on the per-envelope path: the
            # wire frame carries staged pulse columns, not envelopes, so
            # sharded runs require the batched core end to end (the
            # harness rejects the per-event core and fault-plan delay
            # rules under --shards for exactly this reason).
            raise NetworkError(
                f"envelope for {dest!r} would cross a shard boundary: "
                "cross-shard traffic requires pulse batching "
                "(a batched aggregation core, no fault-plan delay rules)"
            )
        if channel is None:
            # Intra-node: delivered immediately (same tick), not accounted.
            if self.pulse_batching:
                envelope.sent_at = self._kernel.now
                self._stage(self._kernel.now,
                            (None, sink, dest, None, envelope, None))
                return
            self._kernel.schedule_fire_at(
                self._kernel.now, self._deliver_local, (envelope, sink)
            )
            return
        self._accountant.observe_sized(
            envelope.kind, envelope.size_bytes, channel.pair
        )
        if (
            self.pulse_batching
            and channel._base_latency is not None
            and not (
                channel._delay_rules
                and fault_plan.may_delay(source, dest, envelope.kind)
            )
        ):
            envelope.sent_at = self._kernel.now
            self._stage(channel.stage_send(),
                        (channel, None, dest, None, envelope, None))
            return
        channel.send(envelope, self._dispatch)

    # ------------------------------------------------------------------
    # Pulse staging and firing
    # ------------------------------------------------------------------

    def _stage(self, delivery_time: float, entry: tuple) -> None:
        """Append one delivery to the pulse for ``delivery_time``,
        creating its (single) kernel event on first use and reusing a
        recycled entry list from the free list."""
        pulses = self._pulses
        batch = pulses.get(delivery_time)
        if batch is None:
            pool = self._pulse_pool
            batch = pool.pop() if pool else []
            pulses[delivery_time] = batch
            self._kernel.schedule_fire_at(
                delivery_time, self._fire_pulse, (delivery_time,)
            )
            self.pulse_event_count += 1
        batch.append(entry)

    def _arm_relaxed_flush(self) -> None:
        """Arm the relaxed tier's flush beat, aligned to the *absolute*
        ``k * flush_period`` grid.

        Grid alignment (rather than "one period from the first send")
        makes the flush instants independent of which stream happened
        to accumulate first — deterministic across runs — and makes
        each channel's deferral offset constant in steady state, so
        heartbeat inter-arrival gaps stay exactly TTB and referencer
        records never expire spuriously (the relaxed tier's safety
        argument, PERFORMANCE.md)."""
        period = self._relaxed_flush_s
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        next_boundary = (floor(now / period) + 1.0) * period
        self._relaxed_beat = kernel.schedule_periodic(
            period,
            self._flush_relaxed,
            first_delay=next_boundary - now,
            label="net.relaxed-flush",
        )

    def _flush_relaxed(self) -> None:
        """Flush the per-(channel, kind) accumulator: one FIFO
        reservation and one :meth:`~repro.net.accounting.BandwidthAccountant.observe_run`
        per stream, then one columnar aggregate entry per **(delivery
        instant, destination, kind)** — the relaxed tier's whole point:
        staging cost per (site, beat bucket), not per message.

        The second-level merge is what pushes past the per-site-pair
        ceiling: streams from *different* source channels bound for the
        same destination at the same instant share one entry.  That is
        protocol-safe by construction — per-stream FIFO is untouched
        (each channel's columns are appended as a contiguous block, in
        send order), delivery clocks are each channel's own
        ``stage_send_n`` reservation (entries only merge when those
        agree bit-for-bit), and the batch sinks never look at the source
        — and it matters because DGC fan-out is sparse: at Fig. 10 scale
        a (site pair, TTB bucket) cell holds ~1.6 messages, while a
        (site, TTB bucket) cell holds ~100.  Accounting and FIFO state
        stay exact per channel; only the per-channel ``delivered_count``
        diagnostic is lumped onto the first contributing channel of a
        merged entry (network-wide totals are unchanged).

        Intra-node buckets (per (site, kind), no wire and no
        accounting) are handed straight to the destination's DGC sinks
        from inside the flush event — the flush instant *is* their
        delivery instant, so they never touch the pulse at all.  Both
        accumulators are detached before anything runs: the local
        deliveries execute collector code that may send fresh DGC
        traffic, which lands in the next bucket.

        Streams flush in accumulation order (insertion-ordered dicts) —
        deterministic.  A flush that finds the accumulators drained
        stops the beat; the next DGC send re-arms it."""
        acc = self._relaxed_acc
        local = self._relaxed_local_acc
        if not acc and not local:
            beat = self._relaxed_beat
            if beat is not None:
                beat.stop()
                self._relaxed_beat = None
            return
        if acc:
            self._relaxed_acc = {}
            self._flush_relaxed_cross(acc)
        if local:
            self._relaxed_local_acc = {}
            self._flush_relaxed_local(local)

    def _flush_relaxed_cross(self, acc: Dict[tuple, list]) -> None:
        accountant = self._accountant
        fault_plan = self.fault_plan
        groups: Dict[tuple, list] = {}
        for (channel, kind), box in acc.items():
            dest = box[0]
            size_bytes = box[1]
            targets = box[2]
            count = len(targets)
            if channel._delay_rules and fault_plan.may_delay(
                channel.source, dest, kind
            ):
                # Delay rules attached after accumulation began:
                # deliver each constituent with per-envelope latency
                # semantics (accounted by ``send`` itself).
                messages = box[3]
                for index in range(count):
                    self.send(
                        Envelope(
                            channel.source, dest, kind, size_bytes,
                            (targets[index], messages[index]), _drop_payload,
                        )
                    )
                continue
            delivery_time = channel.stage_send_n(count)
            accountant.observe_run(kind, size_bytes, channel.pair, count)
            group = groups.get((delivery_time, dest, kind))
            if group is None:
                # Repurpose the box: slot 1 becomes the representative
                # channel (the entry needs one for delivery bookkeeping).
                box[1] = channel
                groups[(delivery_time, dest, kind)] = box
            else:
                group[2].extend(targets)
                group[3].extend(box[3])
                self.aggregated_message_count += count
        for (delivery_time, dest, kind), box in groups.items():
            targets = box[2]
            if len(targets) == 1:
                self._stage(
                    delivery_time,
                    (box[1], None, dest, kind, targets[0], box[3][0]),
                )
            else:
                agg_kind = (
                    _AGG_DGC_MESSAGE
                    if kind == KIND_DGC_MESSAGE
                    else _AGG_DGC_RESPONSE
                )
                self._stage(
                    delivery_time,
                    (box[1], None, dest, agg_kind, targets, box[3]),
                )
            self.relaxed_flush_count += 1

    def _flush_relaxed_local(self, local: Dict[tuple, list]) -> None:
        """Deliver the intra-node buckets synchronously, in accumulation
        order: one single-sink call for a lone message, one batch-sink
        column loop otherwise.  Sinks are resolved at delivery time so a
        destination that vanished mid-bucket drops its messages, exactly
        like :meth:`_dispatch`."""
        msg_single_get = self._dgc_message_sinks.get
        resp_single_get = self._dgc_response_sinks.get
        msg_batch_get = self._dgc_message_batch_sinks.get
        resp_batch_get = self._dgc_response_batch_sinks.get
        fault_plan = self.fault_plan
        for (dest, kind), box in local.items():
            targets = box[0]
            is_message = kind == KIND_DGC_MESSAGE
            if len(targets) == 1:
                tables = (
                    self._dgc_message_tables if is_message
                    else self._dgc_response_tables
                )
                if dest in tables and targets[0] in tables[dest]:
                    # Straight to the bound collector handler, as in
                    # the columnar fire loop.
                    tables[dest][targets[0]](box[1][0])
                else:
                    handler = (
                        msg_single_get(dest) if is_message
                        else resp_single_get(dest)
                    )
                    if handler is None:
                        fault_plan.dropped_count += 1
                    else:
                        handler(targets[0], box[1][0])
            else:
                handler = (
                    msg_batch_get(dest) if is_message
                    else resp_batch_get(dest)
                )
                if handler is None:
                    fault_plan.dropped_count += len(targets)
                else:
                    handler(targets, box[1])
            self.relaxed_flush_count += 1

    def _fire_pulse(self, delivery_time: float) -> None:
        """Deliver every entry staged for ``delivery_time``, in stage
        (i.e. send) order, then recycle the pulse record.

        One tight loop with every lookup an entry needs bound to a local:
        aggregate entries cost one batch-sink call per *run* (the
        destination loops the flat columns itself), plain DGC entries
        dispatch straight to their single-message lane, every other
        cross-node typed entry straight to its handler in the
        destination's kind table (no typed-sink kind dispatch either
        way); local entries carry their resolved sink, cross-node ones
        re-resolve the destination at delivery, like ``_dispatch``.
        Handlers running inside the loop may stage new traffic freely —
        even for this same instant — because the record was detached
        from ``_pulses`` before the loop and only recycled after it.
        """
        entries = self._pulses.pop(delivery_time)
        if delivery_time == self._last_pulse_time:
            # Detach the staging memo: a send staged after this fire at
            # the very same instant must open a fresh pulse.
            self._last_pulse_time = -1.0
        self.staged_entry_count += len(entries)
        permuter = self.pulse_permuter
        if permuter is not None:
            entries = permuter(delivery_time, entries)
        typed_get = self._typed_sinks.get
        kind_tables = self._kind_tables
        msg_batch_get = self._dgc_message_batch_sinks.get
        resp_batch_get = self._dgc_response_batch_sinks.get
        msg_tables = self._dgc_message_tables
        resp_tables = self._dgc_response_tables
        msg_single_get = self._dgc_message_sinks.get
        resp_single_get = self._dgc_response_sinks.get
        dispatch = self._dispatch
        fault_plan = self.fault_plan
        # Branches ordered by frequency at scale: single DGC entries
        # dominate, then aggregate runs, then app/registry typed
        # traffic, then envelopes.  A DGC single goes straight to the
        # target's bound collector handler through the node's lent
        # table; a miss (target gone, collector attached outside the
        # world's create path, no table lent) takes the single sink.
        for channel, sink, dest, kind, item, payload in entries:
            if kind is KIND_DGC_MESSAGE and channel is not None:
                channel.delivered_count += 1
                if dest in msg_tables:
                    table = msg_tables[dest]
                    if item in table:
                        table[item](payload)
                        continue
                handler = msg_single_get(dest)
                if handler is not None:
                    handler(item, payload)
                    continue
            elif kind is KIND_DGC_RESPONSE and channel is not None:
                channel.delivered_count += 1
                if dest in resp_tables:
                    table = resp_tables[dest]
                    if item in table:
                        table[item](payload)
                        continue
                handler = resp_single_get(dest)
                if handler is not None:
                    handler(item, payload)
                    continue
            elif kind is _AGG_DGC_MESSAGE:
                channel.delivered_count += len(item)
                handler = msg_batch_get(dest)
                if handler is None:
                    fault_plan.dropped_count += len(item)
                else:
                    handler(item, payload)
                continue
            elif kind is _AGG_DGC_RESPONSE:
                channel.delivered_count += len(item)
                handler = resp_batch_get(dest)
                if handler is None:
                    fault_plan.dropped_count += len(item)
                else:
                    handler(item, payload)
                continue
            elif kind is None:
                if channel is None:
                    sink(item)
                else:
                    channel.delivered_count += 1
                    dispatch(item)
                continue
            elif channel is None:
                # Typed intra-node: ``sink`` is the resolved typed sink.
                sink(kind, item, payload)
                continue
            else:
                channel.delivered_count += 1
            if dest in kind_tables:
                kind_tables[dest][kind](item, payload)
                continue
            handler = typed_get(dest)
            if handler is None:
                fault_plan.dropped_count += 1
            else:
                handler(kind, item, payload)
        entries.clear()
        pool = self._pulse_pool
        if len(pool) < _PULSE_POOL_CAP:
            pool.append(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_route(self, source: str, dest: str) -> _Route:
        """Resolve and cache ``(sink, channel, dgc_fast, typed_fast)``
        for a pair.

        ``typed_fast`` and ``dgc_fast`` precompute the fused-lane
        eligibility checks that cannot change while the route cache is
        valid (cross-node, constant latency, typed sink registered —
        and, for DGC, both batch sinks); the cache is cleared on every
        registration.  Fault-plan delay rules are the one live condition
        and stay checked per send.
        """
        sink = self._sinks.get(dest)
        if sink is None:
            egress_nodes = self._egress_nodes
            if egress_nodes is not None and dest in egress_nodes:
                # Shard-remote destination: no sink (the node lives in
                # another process), a real sender-side channel (FIFO
                # clamp + accounting happen here), and both fast flags —
                # the fused lanes clamp and account inline, then stage
                # into the egress runs instead of the local pulse.
                route = (None, self._channel(source, dest), True, True)
                self._routes.setdefault(source, {})[dest] = route
                return route
            raise UnknownDestinationError(f"node {dest!r} is not registered")
        channel = None if source == dest else self._channel(source, dest)
        typed_fast = (
            channel is not None
            and channel._base_latency is not None
            and dest in self._typed_sinks
        )
        dgc_fast = (
            typed_fast
            and dest in self._dgc_message_batch_sinks
            and dest in self._dgc_response_batch_sinks
        )
        route = (sink, channel, dgc_fast, typed_fast)
        self._routes.setdefault(source, {})[dest] = route
        return route

    def _deliver_local(
        self, envelope: Envelope, sink: Callable[[Envelope], None]
    ) -> None:
        sink(envelope)

    def _dispatch(self, envelope: Envelope) -> None:
        sink = self._sinks.get(envelope.dest_node)
        if sink is None:
            # Destination vanished mid-flight (node shut down): drop.
            self.fault_plan.dropped_count += 1
            return
        sink(envelope)

    def _channel(self, source: str, dest: str) -> FifoChannel:
        key = (source, dest)
        channel = self._channels.get(key)
        if channel is None:
            # The topology lookup (two site resolutions) is constant per
            # node pair, so it runs once at channel creation; the channel
            # falls back to ``_latency`` only while delay rules exist.
            channel = FifoChannel(
                self._kernel,
                source,
                dest,
                self._latency,
                base_latency=self._topology.one_way_latency(source, dest),
                delay_rules=self.fault_plan._delay_rules,
                acct_box=self._accountant.pair_box(key),
            )
            self._channels[key] = channel
        return channel

    def _latency(self, envelope: Envelope) -> float:
        base = self._topology.one_way_latency(
            envelope.source_node, envelope.dest_node
        )
        return base + self.fault_plan.extra_delay(envelope, self._kernel.now)
