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

A message has one form, ``(kind, item, payload)``, and a node one
receive lane: the kind table it registers, ``kind -> (item, payload)
-> None``.  Every send enters through :meth:`Network.send_typed` (or
the fused DGC lanes below, which are ``send_typed`` per message) and
every delivery ends in the destination's kind table unless a DGC lane
takes it first.  Two transports carry it:

* the **pulse** (batched core, the default) — the message is staged
  straight into the pulse for its delivery instant, one frame from the
  node to the staged entry, and the fire loop calls the kind table's
  handler itself;
* the **per-message lane** (:meth:`Network._send_one`) — one kernel
  event per message, for the per-event reference core and, on the
  batched core, for any stream a fault-plan delay rule could match
  (its latency is per message).  It reserves its slot through
  :meth:`FifoChannel._reserve_slot` and charges
  :meth:`BandwidthAccountant.observe_sized`, the reference copies of
  the clamp and the accounting the pulse lanes inline, so fixed-seed
  runs are bit-identical between the two cores.

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
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import NetworkError, UnknownDestinationError
from repro.net.accounting import BandwidthAccountant, TrafficCategory
from repro.net.channel import FifoChannel
from repro.net.faults import FaultPlan
from repro.net.kinds import (
    AGGREGATE_KINDS,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
)
from repro.net.topology import Topology
from repro.sim.kernel import SimKernel

#: Internal aggregate markers (see :data:`repro.net.kinds.AGGREGATE_KINDS`);
#: bound to module globals so the hot paths compare by identity.
_AGG_DGC_MESSAGE = AGGREGATE_KINDS[KIND_DGC_MESSAGE]
_AGG_DGC_RESPONSE = AGGREGATE_KINDS[KIND_DGC_RESPONSE]

#: A node's receive lane: ``kind -> (item, payload) -> None``.
KindTable = Dict[str, Callable[[Any, Any], None]]

#: A cached route: ``(table, channel, dgc_fast)``.
_Route = Tuple[Optional[KindTable], Optional[FifoChannel], bool]

#: Free-list high-water mark: distinct in-flight delivery instants are
#: bounded by distinct channel latencies, so a short list suffices; the
#: cap only guards against pathological churn keeping dead records alive.
_PULSE_POOL_CAP = 64


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


# repro: allow[HOT-slots] one Network per world (no per-event instances), and benchmarks monkeypatch send_dgc_single on the instance, which needs the __dict__
class Network:
    """Connects registered nodes' kind tables through FIFO channels.

    Pulse entry layout is ``(channel, table, dest, kind, item, payload)``:

    * typed entries — ``kind`` is a traffic-kind constant; intra-node
      ones carry the destination's kind table in ``table`` (``channel``
      is ``None``), cross-node ones only the destination node name in
      ``dest`` and re-resolve its table at delivery,
    * aggregate entries — ``kind`` is an
      :data:`~repro.net.kinds.AGGREGATE_KINDS` marker and
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
        self._channels: Dict[Tuple[str, str], FifoChannel] = {}
        #: Per-node kind tables ``kind -> (item, payload) -> None``: each
        #: node's one receive lane, total over the kinds it receives.
        #: Every delivery indexes it directly — the fire loop and the
        #: per-message lane alike — unless a DGC lane below takes the
        #: message first.
        self._kind_tables: Dict[str, KindTable] = {}
        #: Per-node aggregate unwrappers ``(targets, messages)`` of the
        #: pulse's DGC runs, looping the flat columns locally.
        self._dgc_message_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        self._dgc_response_batch_sinks: Dict[str, Callable[[list, list], None]] = {}
        #: Per-node, per-activity DGC target tables ``target id ->
        #: (message) -> None`` lent by the node (it keeps them current):
        #: the columnar fire loop hands a DGC single straight to the
        #: bound collector handler; a miss falls to the kind table.
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
        #: Kernel events created on behalf of pulses; with
        #: ``sent_count`` sums this is the fabric's batching ratio.
        self.pulse_event_count = 0
        #: Pulse entries actually delivered (counted per pulse at fire
        #: time) — entries, not messages, are what staging and dispatch
        #: pay for.
        self.staged_entry_count = 0
        #: Test hook: when set, ``permuter(delivery_time, entries)`` is
        #: applied to every pulse's entry list before delivery.  The
        #: property suite installs :func:`tests.reorder.safe_shuffle`
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
        #: Hot-path cache: source -> dest -> ``(table, channel,
        #: dgc_fast)`` as built by :meth:`_build_route`.  A ``None``
        #: table means a shard-remote destination, a ``None`` channel
        #: intra-node delivery.  Two nested string-keyed dicts avoid
        #: building a key tuple per message.  Cleared on every
        #: registration: a re-registration replaces the node's lanes,
        #: and with them the flag a route precomputed.
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
        kind_handlers: KindTable,
        *,
        dgc_batch_sinks: Optional[
            Dict[str, Callable[[list, list], None]]
        ] = None,
        dgc_targets: Optional[
            Dict[str, Dict[Any, Callable[[Any], None]]]
        ] = None,
    ) -> None:
        """Attach a node's receive lanes to the fabric, replacing every
        lane of an earlier registration of ``node`` (a lane the new
        registration omits is removed, never inherited).

        ``kind_handlers`` is the node's one required lane: the table
        ``kind -> (item, payload) -> None``, total over the kinds the
        node receives (a miss must raise).
        ``dgc_batch_sinks`` maps a DGC kind to the ``(targets,
        messages)`` unwrapper of its aggregate entries; unless both DGC
        kinds have one, DGC traffic for this node is staged message by
        message like every other kind.
        ``dgc_targets`` maps a DGC kind to the node's live per-activity
        table ``target id -> (message) -> None``: the fire loop calls a
        single's bound handler through it and falls to the kind table
        on a miss (or when no table was lent).
        """
        self._kind_tables[node] = kind_handlers
        dgc_batch_sinks = dgc_batch_sinks or {}
        dgc_targets = dgc_targets or {}
        for lanes, lane in (
            (self._dgc_message_batch_sinks,
             dgc_batch_sinks.get(KIND_DGC_MESSAGE)),
            (self._dgc_response_batch_sinks,
             dgc_batch_sinks.get(KIND_DGC_RESPONSE)),
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

    def configure_shard_egress(self, local_nodes) -> None:
        """Mark every topology node outside ``local_nodes`` as living on
        a remote shard: traffic for those destinations is *staged at
        send time* exactly as local traffic (the directed
        :class:`FifoChannel` lives wholly on the sender's shard, so the
        FIFO clamp and the accountant see the send here and only here),
        but instead of entering the local pulse it joins the egress run
        of its ``(kind, delivery_time, dest)`` — the literal content of
        the next wire frame (:mod:`repro.net.wire`).  Requires the
        batched pulse core; the per-message lane raises on shard-remote
        destinations (see :meth:`_send_one`)."""
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
        now = self._kernel.now
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
        """Route one typed message — the fabric's one send path for every
        traffic kind, and the fused lane of app and registry traffic: one
        frame from the node to the staged pulse entry.

        In pulse-batched mode the message is staged for its exact
        delivery instant (the channel's constant latency, FIFO clamp and
        send counter, inlined from :meth:`FifoChannel._reserve_slot`);
        all traffic sharing that instant rides one kernel event.  The
        accountant is charged through the memoized per-kind category and
        the channel's lent pair box — bit-identical totals to
        :meth:`BandwidthAccountant.observe_sized` — so batching changes
        heap traffic and allocations, never simulation outcomes.  A
        shard-remote destination takes the same lane up to the staging
        step, where the message joins its egress run instead of the
        local pulse.

        The per-event core, and on the batched core every stream a
        fault-plan delay rule could match (its latency is per message),
        take the per-message lane :meth:`_send_one` instead.
        """
        try:
            route = self._routes[source][dest]
        except KeyError:
            route = self._build_route(source, dest)
        fault_plan = self.fault_plan
        if fault_plan._partitioned and fault_plan.is_partitioned(source, dest):
            fault_plan.dropped_count += 1
            return
        channel = route[1]
        if not self.pulse_batching or (
            channel is not None
            and channel._delay_rules
            and route[0] is not None
            and fault_plan.may_delay(source, dest, kind)
        ):
            self._send_one(route, source, dest, kind, size_bytes, item, payload)
            return
        kernel = self._kernel
        now = kernel.now
        if channel is not None:
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
            # vanishes mid-flight drops the entry.
            entry = (channel, None, dest, kind, item, payload)
        else:
            # Intra-node: delivered at the current instant, unaccounted,
            # through the kind table the route resolved.
            delivery_time = now
            entry = (None, route[0], dest, kind, item, payload)
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
        if not route[2] or (
            channel._delay_rules
            and fault_plan.may_delay(source, dest, kind)
        ):
            self.send_typed(source, dest, kind, size_bytes, item, payload)
            return
        # Inlined FifoChannel._reserve_slot: clamp + counter without a
        # callee frame — this lane runs once per DGC message at scale.
        latency = channel._base_latency
        if latency < 0.0:
            latency = 0.0
        kernel = self._kernel
        now = kernel.now
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
        if route[0] is not None and (
            not route[2]
            or (
                channel._delay_rules
                and fault_plan.may_delay(source, dest, kind)
            )
        ):
            # Intra-node, variable-latency or batch-less destination:
            # per-message semantics, exact same order.
            for index in range(count):
                self.send_typed(
                    source, dest, kind, size_bytes,
                    targets[index], messages[index],
                )
            return
        # Inlined FIFO clamp and accounting, as in send_dgc_single: all
        # ``count`` messages share one clamp (constant latency, one
        # instant) and are charged at their modeled size each.
        latency = channel._base_latency
        if latency < 0.0:
            latency = 0.0
        kernel = self._kernel
        now = kernel.now
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

    def _send_one(
        self,
        route: _Route,
        source: str,
        dest: str,
        kind: str,
        size_bytes: int,
        item: Any,
        payload: Any,
    ) -> None:
        """The per-message lane: every message of the per-event core,
        and on the batched core every stream a delay rule could match.
        One kernel event per message — intra-node at the current
        instant, unaccounted; cross-node at the channel's base latency
        plus the matching delay rules' extra, behind
        :meth:`FifoChannel._reserve_slot`'s clamp, charged through
        :meth:`BandwidthAccountant.observe_sized`.  Both stay the
        reference implementations the pulse lanes inline (the parity
        tests compare the two cores)."""
        table = route[0]
        if table is None:
            # The wire frame carries staged pulse columns, so sharded
            # runs require the batched core end to end (the harness
            # rejects the per-event core and fault-plan delay rules
            # under --shards for exactly this reason).
            raise NetworkError(
                f"{kind} message for {dest!r} would cross a shard "
                "boundary: cross-shard traffic requires pulse batching "
                "(a batched aggregation core, no fault-plan delay rules)"
            )
        kernel = self._kernel
        now = kernel.now
        channel = route[1]
        if channel is None:
            kernel.schedule_fire_at(now, table[kind], (item, payload))
            return
        latency = channel._base_latency
        if channel._delay_rules:
            latency += self.fault_plan.extra_delay(
                source, dest, kind, item, now
            )
        self._accountant.observe_sized(kind, size_bytes, channel.pair)
        kernel.schedule_fire_at(
            channel._reserve_slot(latency),
            self._deliver_one,
            (channel, dest, kind, item, payload),
        )

    def _deliver_one(
        self, channel: FifoChannel, dest: str, kind: str, item: Any,
        payload: Any,
    ) -> None:
        """Deliver one message of the per-message lane into the
        destination's kind table, re-resolved here so a node that
        vanished mid-flight drops it."""
        channel.delivered_count += 1
        kind_tables = self._kind_tables
        if dest in kind_tables:
            kind_tables[dest][kind](item, payload)
        else:
            self.fault_plan.dropped_count += 1

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

    def _fire_pulse(self, delivery_time: float) -> None:
        """Deliver every entry staged for ``delivery_time``, in stage
        (i.e. send) order, then recycle the pulse record.

        One tight loop with every lookup an entry needs bound to a local:
        aggregate entries cost one batch-sink call per *run* (the
        destination loops the flat columns itself), plain DGC entries
        go straight to their target's bound collector handler, every
        other entry straight to its handler in the destination's kind
        table; intra-node entries carry that table, cross-node ones
        re-resolve the destination at delivery, like :meth:`_deliver_one`.
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
        kind_tables = self._kind_tables
        msg_batch_get = self._dgc_message_batch_sinks.get
        resp_batch_get = self._dgc_response_batch_sinks.get
        msg_tables = self._dgc_message_tables
        resp_tables = self._dgc_response_tables
        fault_plan = self.fault_plan
        # Branches ordered by frequency at scale: single DGC entries
        # dominate, then aggregate runs, then app/registry traffic.  A
        # DGC single, intra-node or cross-node, goes straight to the
        # target's bound collector handler through the node's lent
        # table; a miss (target gone, collector attached outside the
        # world's create path, no table lent) takes the kind table like
        # every other entry.
        for channel, table, dest, kind, item, payload in entries:
            if kind is KIND_DGC_MESSAGE:
                if channel is not None:
                    channel.delivered_count += 1
                if dest in msg_tables:
                    targets = msg_tables[dest]
                    if item in targets:
                        targets[item](payload)
                        continue
            elif kind is KIND_DGC_RESPONSE:
                if channel is not None:
                    channel.delivered_count += 1
                if dest in resp_tables:
                    targets = resp_tables[dest]
                    if item in targets:
                        targets[item](payload)
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
            elif channel is not None:
                channel.delivered_count += 1
            if channel is None:
                # Intra-node: the entry carries the destination's table.
                table[kind](item, payload)
            elif dest in kind_tables:
                kind_tables[dest][kind](item, payload)
            else:
                # Destination vanished mid-flight (node shut down): drop.
                fault_plan.dropped_count += 1
        entries.clear()
        pool = self._pulse_pool
        if len(pool) < _PULSE_POOL_CAP:
            pool.append(entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _build_route(self, source: str, dest: str) -> _Route:
        """Resolve and cache ``(table, channel, dgc_fast)`` for a pair.

        ``dgc_fast`` precomputes the fused DGC lanes' eligibility
        (cross-node, both batch sinks registered), which cannot change
        while the route cache is valid; the cache is cleared on every
        registration.  Fault-plan delay rules are the one live condition
        and stay checked per send.
        """
        table = self._kind_tables.get(dest)
        if table is None:
            egress_nodes = self._egress_nodes
            if egress_nodes is not None and dest in egress_nodes:
                # Shard-remote destination: no table (the node lives in
                # another process), a real sender-side channel (FIFO
                # clamp + accounting happen here), and the DGC flag —
                # the fused lanes clamp and account inline, then stage
                # into the egress runs instead of the local pulse.
                route = (None, self._channel(source, dest), True)
                self._routes.setdefault(source, {})[dest] = route
                return route
            raise UnknownDestinationError(f"node {dest!r} is not registered")
        channel = None if source == dest else self._channel(source, dest)
        dgc_fast = (
            channel is not None
            and dest in self._dgc_message_batch_sinks
            and dest in self._dgc_response_batch_sinks
        )
        route = (table, channel, dgc_fast)
        self._routes.setdefault(source, {})[dest] = route
        return route

    def _channel(self, source: str, dest: str) -> FifoChannel:
        key = (source, dest)
        channel = self._channels.get(key)
        if channel is None:
            # The topology lookup (two site resolutions) is constant per
            # node pair, so it runs once at channel creation.
            channel = FifoChannel(
                self._kernel,
                source,
                dest,
                self._topology.one_way_latency(source, dest),
                delay_rules=self.fault_plan._delay_rules,
                acct_box=self._accountant.pair_box(key),
            )
            self._channels[key] = channel
        return channel
