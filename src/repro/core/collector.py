"""The per-activity DGC engine.

Ties the pure protocol (:mod:`repro.core.protocol`) to the runtime:

* a periodic TTB broadcast (paper Algorithm 2) with optional start jitter,
* the three clock-increment occasions (Sec. 3.2): becoming idle, loss of
  a referencer, loss of a referenced,
* acyclic termination by TTA timeout and cyclic termination by consensus,
* the Sec. 4.3 optimisation: on consensus the activity becomes *doomed* —
  it stops heart-beating, keeps answering DGC messages with
  ``consensus_reached`` so the whole cycle learns the verdict, and
  terminates after TTA.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from typing import Optional

from repro.core import events
from repro.core.clock import ActivityClock
from repro.core.config import AGGREGATION_PER_EVENT, AUTO_BEAT_SLOTS, DgcConfig
from repro.core.protocol import (
    DgcState,
    acyclic_timeout_expired,
    cyclic_consensus_made,
    process_message,
    process_response,
)
from repro.core.wire import DgcMessage, DgcResponse
from repro.net.message import KIND_DGC_MESSAGE, KIND_DGC_RESPONSE
from repro.runtime.activeobject import Activity
from repro.runtime.proxy import Proxy, RemoteRef, StubTag
from repro.sim.timers import PeriodicTimer


class DgcCollector:
    """One DGC engine attached to one activity."""

    __slots__ = (
        "activity", "config", "self_ref", "state", "doomed_since",
        "current_ttb", "messages_sent", "messages_received",
        "responses_received", "_kernel", "_fast_clock", "_tracer", "_node",
        "_doomed_response", "_stopped", "_consensus_propagation",
        "_bfs_parent_election", "_receive_diet", "_net_send_single",
        "_net_send_run", "_node_name", "_message_bytes", "_response_bytes",
        "_timer",
    )

    def __init__(self, activity: Activity, config: DgcConfig) -> None:
        self.activity = activity
        self.config = config
        self._kernel = activity.node.kernel
        #: Same handshake as the fabric's: a kernel that keeps its clock
        #: in a plain ``_now`` attribute is read without the property.
        self._fast_clock = hasattr(self._kernel, "_now")
        self._tracer = activity.node.tracer
        self._node = activity.node
        self.self_ref = RemoteRef(activity.id, activity.node.name)
        self.state = DgcState(
            self_id=activity.id,
            clock=ActivityClock(0, activity.id),
            last_message_timestamp=self._kernel.now,
        )
        self.doomed_since: Optional[float] = None
        #: Interned Sec. 4.3 verdict response (built on first use after
        #: dooming; invalidated by identity if the clock ever moved).
        self._doomed_response: Optional[DgcResponse] = None
        self._stopped = False
        self.messages_sent = 0
        self.messages_received = 0
        self.responses_received = 0
        # Hot-path caches of frozen config flags (attribute chains per
        # received response add up at scale).
        self._consensus_propagation = config.consensus_propagation
        self._bfs_parent_election = config.bfs_parent_election
        #: The steady-state lane (unchanged heartbeats and responses
        #: answered in the handler's own frame, doomed-response
        #: interning, field-identical touch-write skip) belongs to the
        #: batched cores; under ``per-event`` every message and response
        #: takes Algorithms 3 and 4 as written, which keeps that core an
        #: independent oracle for the equivalence suites.  The lane is
        #: observably neutral — outcomes are bit-identical either way.
        batched = config.aggregation != AGGREGATION_PER_EVENT
        self._receive_diet = batched
        self.state.referencers.touch_skip = batched
        # The fabric's DGC lanes, called directly (they fall back to
        # ``send_typed`` themselves on the per-event core).
        self._net_send_single = self._node.network.send_dgc_single
        self._net_send_run = self._node.network.send_dgc_run
        self._node_name = self._node.name
        self._message_bytes = self._node.wire_sizes.dgc_message_bytes
        self._response_bytes = self._node.wire_sizes.dgc_response_bytes
        #: Current beat period; differs from ``config.ttb`` only when the
        #: dynamic-TTB extension (Sec. 7.1) accelerates the beat.
        self.current_ttb = config.ttb
        beat_slots = config.beat_slots
        if beat_slots == AUTO_BEAT_SLOTS:
            # Adaptive grid: sized from the node's live activity count at
            # registration (this activity included — it was added before
            # the collector attaches).  Purely a function of simulated
            # state, so batched and per-event schedulers resolve the same
            # grid and stay bit-comparable.
            beat_slots = activity.node.beat_slot_controller.slots_for(
                len(activity.node.activities)
            )
        if config.start_jitter:
            rng = activity.node.rng_registry.stream(f"dgc:{activity.id}")
            initial_delay = rng.uniform(0.0, config.ttb)
            if beat_slots:
                # Snap the jitter onto the slot grid so beats sharing a
                # slot coalesce into one wheel bucket.  The RNG draw is
                # kept (stream consumption must not depend on the knob)
                # and the quantisation is identical under per-event
                # scheduling, so wheel-vs-per-event runs stay
                # bit-comparable.
                slot = config.ttb / beat_slots
                initial_delay = int(initial_delay / slot) * slot
        else:
            initial_delay = config.ttb
        self._timer = PeriodicTimer(
            self._kernel,
            config.ttb,
            self._tick,
            initial_delay=initial_delay,
            label=f"dgc.tick:{activity.id}",
            per_event=not batched,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> ActivityClock:
        return self.state.clock

    @property
    def parent(self) -> Optional[str]:
        return self.state.parent

    @property
    def doomed(self) -> bool:
        return self.doomed_since is not None

    # ------------------------------------------------------------------
    # Runtime hooks
    # ------------------------------------------------------------------

    def on_became_idle(self) -> None:
        """Clock-increment occasion 1 (Sec. 3.2): the activity became
        idle; without this, interleavings of idle/busy during a traversal
        would make the outcome inconsistent."""
        if self._stopped or self.doomed:
            return
        self._increment_clock("idle")

    def on_reference_deserialized(self, proxy: Proxy) -> None:
        """A stub was deserialized: establish/refresh the referenced edge
        and re-arm the mandatory first heartbeat (Sec. 3.1)."""
        if self._stopped:
            return
        self.state.referenced.on_deserialized(proxy.ref, proxy.tag)

    def on_reference_dropped(self, tag: StubTag) -> None:
        """The local GC collected every stub behind ``tag``."""
        if self._stopped:
            return
        record = self.state.referenced.on_tag_dead(tag)
        if record is not None and record.removable:
            self._remove_referenced()

    def on_terminated(self) -> None:
        """The activity is gone; silence the engine."""
        self._stopped = True
        self._timer.stop()

    # ------------------------------------------------------------------
    # DGC wire handlers
    # ------------------------------------------------------------------

    def on_dgc_message(self, message: DgcMessage) -> None:
        if self._stopped:
            return
        self.messages_received += 1
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        state = self.state
        response = None
        if self.doomed_since is not None:
            # Decision already taken: do not adopt clocks or mutate state;
            # just keep propagating the verdict (Sec. 4.3 optimisation).
            # The verdict is immutable while doomed (the clock is frozen:
            # every increment occasion is gated on ``doomed``), so with
            # the receive diet one interned response serves the whole
            # doom window instead of allocating one per incoming
            # message — the collapse phase is receive-dominated, so this
            # is the steady state at scale.
            response = self._doomed_response
            if response is None or response.clock is not state.clock:
                response = DgcResponse(
                    responder=state.self_id,
                    clock=state.clock,
                    has_parent=True,
                    consensus_reached=True,
                )
                if self._receive_diet:
                    self._doomed_response = response
        elif self._receive_diet:
            # Steady-state heartbeat: the referencer's record already
            # holds this message's clock *object*, consensus bit and
            # declared TTB, so Algorithm 3 would move two timestamps and
            # nothing else.  Skipping its clock comparison is sound
            # because a clock object already recorded for this
            # referencer was compared with ours when it was recorded
            # (and adopted if greater), and our clock only moves
            # forward: it cannot exceed ours now.
            record = state.referencers._records.get(message.sender)
            cached = state.cached_response
            if (
                record is not None
                and record.clock is message.clock
                and record.consensus == message.consensus
                and record.sender_ttb == message.sender_ttb
                and cached is not None
                and cached.clock is state.clock
                and not cached.consensus_reached
            ):
                # ... and the cached response is re-sent if it still
                # describes the current (clock, parent, depth).
                owns_clock = state.clock.owner == state.self_id
                has_parent = owns_clock or state.parent is not None
                if cached.has_parent == has_parent and cached.depth == (
                    0 if owns_clock else state.depth if has_parent else None
                ):
                    record.last_message_time = now
                    state.last_message_timestamp = now
                    response = cached
        if response is None:
            response = process_message(state, message, now)
        sender_ref = message.sender_ref
        dest = sender_ref.node
        run = self._node._response_run
        if run is None:
            self._net_send_single(
                self._node_name,
                dest,
                KIND_DGC_RESPONSE,
                self._response_bytes,
                sender_ref.activity_id,
                response,
            )
        elif run[0] is None or run[0] == dest:
            # An aggregate unwrap is in progress: join its open run.
            run[0] = dest
            run[1].append(sender_ref.activity_id)
            run[2].append(response)
        else:
            self._node.send_dgc_response(sender_ref, response)

    def on_dgc_response(self, response: DgcResponse) -> None:
        if self._stopped or self.doomed_since is not None:
            return
        self.responses_received += 1
        state = self.state
        if (
            response.consensus_reached
            and self._consensus_propagation
            and response.clock == state.clock
            and self.activity.is_idle()
        ):
            # Our referenced activity is part of an established consensus
            # on our very clock: we belong to the same garbage cycle.
            self._become_doomed(propagated=True)
            return
        if self._receive_diet and not self._bfs_parent_election:
            # Steady-state response: the record already holds this
            # response *object* and no election is open (we have a
            # parent, or the clock is ours), so Algorithm 4 would write
            # nothing — the depth it refreshes for the parent was set
            # from this very object.  (Breadth-first election may still
            # switch parents on a known response, hence the bfs test.)
            record = state.referenced._records.get(response.responder)
            if (
                record is not None
                and record.last_response is response
                and (
                    state.parent is not None
                    or state.clock.owner == state.self_id
                )
            ):
                return
        process_response(state, response, bfs=self._bfs_parent_election)

    # ------------------------------------------------------------------
    # The TTB broadcast (Algorithm 2)
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if self._stopped or self.doomed_since is not None:
            # Doomed activities no longer beat; termination is scheduled.
            return
        kernel = self._kernel
        now = kernel._now if self._fast_clock else kernel.now
        lost = self.state.referencers.expire(
            now,
            self.config.tta,
            base_ttb=self.config.ttb,
            honor_sender_ttb=self.config.heterogeneous_params,
        )
        if lost and self.config.increment_on_referencer_loss:
            # Clock-increment occasion 2 (Fig. 5): a referencer vanished;
            # the final clock owner must remain inside the referencer
            # closure, so refresh ownership.
            self._increment_clock("referencer_loss")
        is_idle = self.activity.is_idle()
        if is_idle:
            if acyclic_timeout_expired(self.state, now, self._acyclic_tta()):
                self._terminate(events.REASON_ACYCLIC)
                return
            if cyclic_consensus_made(self.state):
                if self._tracer.enabled:
                    self._tracer.record(
                        now,
                        events.DGC_CONSENSUS,
                        self.activity.id,
                        clock=repr(self.state.clock),
                    )
                if self._consensus_propagation:
                    self._become_doomed(propagated=False)
                else:
                    self._terminate(events.REASON_CYCLIC)
                return
        self._broadcast(is_idle)

    def _broadcast(self, is_idle: Optional[bool] = None) -> None:
        if is_idle is None:
            is_idle = self.activity.is_idle()
        declared_ttb = (
            self.current_ttb if self.config.heterogeneous_params else 0.0
        )
        # The referencer-agreement check only matters for the message to
        # the parent; compute it lazily and at most once per tick (it used
        # to run one O(referencers) scan per referenced record).
        referencers_agree: Optional[bool] = None
        # Messages are immutable and identical for every record with the
        # same consensus flag, so at most two objects are built per tick.
        agreeing: Optional[DgcMessage] = None
        dissenting: Optional[DgcMessage] = None
        # The fan-out is grouped by destination node (first-appearance
        # order, deterministic): records sharing a site become one
        # site-pair run — one fabric call, and on the batched cores one
        # pulse entry — instead of one send per record.  The grouped
        # order is the send order under *every* delivery core, so the
        # cores stay bit-identical with each other.  Sends happen after
        # the flag loop; nothing in the loop observes them (delivery is always
        # deferred to a kernel event, even intra-node).  Most sites get
        # one message: ``first`` holds each site's first ``(target,
        # message)`` pair, and only a second record for the same site
        # opens its ``(targets, messages)`` columns in ``runs``.
        first: dict = {}
        runs: dict = {}
        sent = 0
        state = self.state
        clock = state.clock
        parent = state.parent
        # Inlined :func:`consensus_flag_for` (which stays the canonical,
        # tested form): the is-idle/connected conjuncts are loop
        # constants, and the clock comparison is identity-first —
        # shared clock objects make the structural compare redundant in
        # the steady state.  One call per record becomes none.
        connected = is_idle and (
            parent is not None or clock.owner == state.self_id
        )
        for record in state.referenced.records_view():
            last_response = record.last_response
            if not connected or last_response is None:
                consensus = False
            else:
                proposed = last_response.clock
                if proposed is not clock and proposed != clock:
                    consensus = False
                elif parent == record.target:
                    if referencers_agree is None:
                        referencers_agree = state.referencers.agree(clock)
                    consensus = referencers_agree
                else:
                    consensus = True
            message = agreeing if consensus else dissenting
            if message is None:
                message = DgcMessage(
                    sender=state.self_id,
                    clock=clock,
                    consensus=consensus,
                    sender_ref=self.self_ref,
                    sender_ttb=declared_ttb,
                )
                if consensus:
                    agreeing = message
                else:
                    dissenting = message
            ref = record.ref
            dest = ref.node
            if dest not in first:
                first[dest] = (ref.activity_id, message)
            elif dest in runs:
                targets, messages = runs[dest]
                targets.append(ref.activity_id)
                messages.append(message)
            else:
                target, first_message = first[dest]
                runs[dest] = (
                    [target, ref.activity_id], [first_message, message]
                )
            sent += 1
            record.messages_sent += 1
            record.needs_send = False
        if sent:
            self.messages_sent += sent
            if self._node._response_run is not None:
                # Beating from inside an aggregate unwrap: release the
                # buffered responses first so per-channel order is
                # exactly the unbatched one.
                self._node._flush_response_run()
            name = self._node_name
            size = self._message_bytes
            for dest, (target, message) in first.items():
                if dest in runs:
                    targets, messages = runs[dest]
                    self._net_send_run(
                        name, dest, KIND_DGC_MESSAGE, size, targets, messages
                    )
                else:
                    self._net_send_single(
                        name, dest, KIND_DGC_MESSAGE, size, target, message
                    )
        if self.state.referenced.pop_removable():
            self._remove_referenced(already_popped=True)
        if self.config.dynamic_ttb:
            self._adjust_beat(is_idle)

    # ------------------------------------------------------------------
    # Sec. 7.1 extensions: heterogeneous and dynamic parameters
    # ------------------------------------------------------------------

    def _acyclic_tta(self) -> float:
        """Effective alone-timeout; stretched for slow referencers when
        heterogeneous parameters are honoured."""
        tta = self.config.tta
        if not self.config.heterogeneous_params:
            return tta
        slowest = self.state.referencers.max_declared_ttb()
        if slowest > self.config.ttb:
            tta += 2.0 * (slowest - self.config.ttb)
        return tta

    def _suspects_garbage(self) -> bool:
        """Paper Sec. 7.1: garbage is suspected "when an active object
        gets a parent and some of its referencers agree with the
        consensus" (or when it owns an agreed-upon clock itself)."""
        connected = self.state.parent is not None or (
            self.state.owns_clock and self.activity.is_idle()
        )
        if not connected:
            return False
        return any(
            record.consensus for record in self.state.referencers.records()
        )

    def _adjust_beat(self, is_idle: bool) -> None:
        if is_idle and self._suspects_garbage():
            floor = self.config.ttb * self.config.dynamic_min_ttb_factor
            target = max(floor, self.config.ttb * self.config.dynamic_accel)
        else:
            target = self.config.ttb
        if target != self.current_ttb:
            self.current_ttb = target
            self._timer.set_period(target)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remove_referenced(self, already_popped: bool = False) -> None:
        """Loss of a referenced (Fig. 6): clock-increment occasion 3."""
        if not already_popped:
            removed = self.state.referenced.pop_removable()
            if not removed:
                return
        if self.config.increment_on_referenced_loss:
            self._increment_clock("referenced_loss")
        # With the rule ablated (DESIGN.md Sec. 6 item 4) the naive
        # protocol keeps its possibly-dangling parent and foreign clock —
        # exactly the broken-reverse-spanning-tree condition Fig. 6 warns
        # about; tests/integration/test_fig6_referenced_loss.py shows the
        # resulting wrongful collection.

    def _increment_clock(self, reason: str) -> None:
        self.state.increment_clock()
        # Guard before building kwargs: ``repr(clock)`` on every clock
        # increment is pure waste when tracing is off (torture runs).
        if self._tracer.enabled:
            self._tracer.record(
                self._kernel.now,
                events.DGC_CLOCK_INCREMENT,
                self.activity.id,
                reason=reason,
                clock=repr(self.state.clock),
            )

    def _become_doomed(self, propagated: bool) -> None:
        self.doomed_since = self._kernel.now
        if self._tracer.enabled:
            self._tracer.record(
                self._kernel.now,
                events.DGC_DOOMED,
                self.activity.id,
                propagated=propagated,
                clock=repr(self.state.clock),
            )
        # Sec. 4.3: wait TTA before terminating, giving every member of
        # the cycle the time to learn the verdict through our responses.
        self._kernel.schedule(
            self.config.tta,
            self._finish_doomed,
            label=f"dgc.doom:{self.activity.id}",
        )

    def _finish_doomed(self) -> None:
        if self._stopped:
            return
        self._terminate(events.REASON_CYCLIC)

    def _terminate(self, reason: str) -> None:
        self._timer.stop()
        self.activity.terminate(reason)
