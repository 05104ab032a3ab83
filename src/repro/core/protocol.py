"""Algorithms 1-4 of the paper, as pure functions over a :class:`DgcState`.

Keeping the protocol logic free of runtime plumbing makes it directly
unit- and property-testable; :class:`repro.core.collector.DgcCollector`
wires these functions to timers, the network and the activity lifecycle.

Pseudo-code correspondence (with the ``=``/``!=`` glyph restorations
documented in DESIGN.md Sec. 3):

* Algorithm 1 — :meth:`repro.core.referencers.ReferencerTable.agree`
* Algorithm 2 — :func:`acyclic_timeout_expired`,
  :func:`cyclic_consensus_made`, :func:`consensus_flag_for`
* Algorithm 3 — :func:`process_message`
* Algorithm 4 — :func:`process_response`
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.clock import ActivityClock
from repro.core.referenced import ReferencedRecord, ReferencedTable
from repro.core.referencers import ReferencerTable
from repro.core.wire import DgcMessage, DgcResponse
from repro.runtime.ids import ActivityId


@dataclass(slots=True)
class DgcState:
    """The per-activity DGC state the four algorithms read and write.

    ``depth`` is the Sec. 7.2 extension: this activity's distance to the
    consensus originator through its parent chain (0 when it owns the
    clock), or ``None`` when unknown.
    """

    self_id: ActivityId
    clock: ActivityClock
    parent: Optional[ActivityId] = None
    referencers: ReferencerTable = field(default_factory=ReferencerTable)
    referenced: ReferencedTable = field(default_factory=ReferencedTable)
    last_message_timestamp: float = 0.0
    depth: Optional[int] = None
    #: Last response built by :func:`process_message`; responses are
    #: immutable, so while the fields are unchanged (the steady state
    #: between clock movements) the same object is reused instead of
    #: allocating one per received message.
    cached_response: Optional[DgcResponse] = None

    @property
    def owns_clock(self) -> bool:
        return self.clock.owner == self.self_id

    def current_depth(self) -> Optional[int]:
        """Depth advertised in responses: 0 for the owner, the recorded
        parent-chain depth otherwise."""
        if self.owns_clock:
            return 0
        if self.parent is not None:
            return self.depth
        return None

    def increment_clock(self) -> None:
        """``ID:Value`` becomes ``self:Value+1``; the incrementing activity
        is the new owner and, as a (potential) originator, needs no parent."""
        self.clock = self.clock.incremented(self.self_id)
        self.parent = None
        self.depth = None


# ----------------------------------------------------------------------
# Algorithm 2 — the TTB broadcast decisions
# ----------------------------------------------------------------------

def acyclic_timeout_expired(state: DgcState, now: float, tta: float) -> bool:
    """No DGC message for more than TTA: every referencer is gone
    (acyclic garbage, Sec. 3.1)."""
    return now - state.last_message_timestamp > tta


def cyclic_consensus_made(state: DgcState) -> bool:
    """The activity owns the final activity clock and every referencer
    accepted it (cyclic garbage, Sec. 3.2).

    The non-vacuous guard (``len(referencers) > 0``) is the DESIGN.md
    Sec. 3 clarification: a freshly created activity whose creator has not
    yet beaten must not vacuously "agree" with itself; zero-referencer
    garbage is exactly the acyclic case and is left to the TTA timeout.
    """
    return (
        state.owns_clock
        and len(state.referencers) > 0
        and state.referencers.agree(state.clock)
    )


def consensus_flag_for(
    state: DgcState,
    record: ReferencedRecord,
    is_idle: bool,
    referencers_agree: Optional[bool] = None,
) -> bool:
    """The ``consensus`` boolean of the DGC message sent to ``record``.

    Paper Algorithm 2:

    * to the parent: the conjunction of the consensus values of the
      sender's direct referencers and the sender's local agreement;
    * to any other referenced activity: the local agreement only.

    Local agreement means: idle, the destination's last response proposed
    exactly our clock, and we are connected to the originator (we own the
    clock or we have a parent).

    ``referencers_agree`` lets a broadcast that visits many referenced
    records compute ``state.referencers.agree(state.clock)`` once per
    tick and pass the cached value in.
    """
    if not is_idle:
        return False
    last_response = record.last_response
    if last_response is None:
        return False
    proposed = last_response.clock
    clock = state.clock
    if proposed is not clock and proposed != clock:
        return False
    if not (state.owns_clock or state.parent is not None):
        return False
    if state.parent == record.target:
        if referencers_agree is not None:
            return referencers_agree
        return state.referencers.agree(state.clock)
    return True


# ----------------------------------------------------------------------
# Algorithm 3 — reception of a DGC message
# ----------------------------------------------------------------------

def process_message(
    state: DgcState,
    message: DgcMessage,
    now: float,
    *,
    consensus_reached: bool = False,
) -> DgcResponse:
    """Update ``state`` from an incoming DGC message; build the response.

    "If an active object receives a DGC message with a clock which is more
    recent than its own view of the clock, it updates its clock
    accordingly" — and, having changed candidate, it must re-elect a
    parent for the new reverse spanning tree.

    Runs once per received DGC message — the ownership/depth logic is
    inlined rather than going through ``owns_clock``/``current_depth``
    (one property plus one method call per message adds up at scale).
    """
    clock = state.clock
    message_clock = message.clock
    # Identity-first: in the steady state between clock movements every
    # referencer proposes the *object* we adopted from it (clocks are
    # shared, not copied), so the structural comparison is skipped for
    # the bulk of received messages.
    if message_clock is not clock and message_clock > clock:
        clock = state.clock = message_clock
        state.parent = None
        state.depth = None
    state.referencers.update(
        message.sender,
        message_clock,
        message.consensus,
        now,
        message.sender_ttb,
    )
    state.last_message_timestamp = now
    owns_clock = clock.owner == state.self_id
    parent = state.parent
    if owns_clock:
        depth: Optional[int] = 0
    elif parent is not None:
        depth = state.depth
    else:
        depth = None
    has_parent = parent is not None or owns_clock
    cached = state.cached_response
    if (
        cached is not None
        and cached.clock is clock
        and cached.has_parent == has_parent
        and cached.consensus_reached == consensus_reached
        and cached.depth == depth
    ):
        return cached
    response = DgcResponse(
        responder=state.self_id,
        clock=clock,
        has_parent=has_parent,
        consensus_reached=consensus_reached,
        depth=depth,
    )
    state.cached_response = response
    return response


# ----------------------------------------------------------------------
# Algorithm 4 — reception of a DGC response
# ----------------------------------------------------------------------

def process_response(
    state: DgcState,
    response: DgcResponse,
    *,
    bfs: bool = False,
) -> bool:
    """Update ``state`` from a DGC response; True if a parent was adopted.

    The clock in a response is *never* merged into the activity clock —
    only used as a consensus candidate (Fig. 4: otherwise a dead cycle C2
    referencing a live cycle C1 would keep C1's clocks circulating and
    prevent C1's collection... and vice versa; references are oriented).

    With ``bfs`` (Sec. 7.2 extension), a strictly shallower candidate
    replaces the current parent, converging towards a breadth-first
    reverse spanning tree of minimal height.

    Runs once per received response that carries news — the table probe
    and the ownership test are inlined like :func:`process_message`'s.
    """
    record = state.referenced._records.get(response.responder)
    if record is None:
        # Stale response: the edge was already removed.
        return False
    record.last_response = response
    # Identity-first (clocks are shared objects in the steady state, see
    # process_message): the structural comparison only runs when the
    # response proposes a clock object we did not adopt from it.
    response_clock = response.clock
    clock = state.clock
    if (
        (response_clock is not clock and response_clock != clock)
        or not response.has_parent
        or clock.owner == state.self_id
    ):
        return False
    candidate_depth = (
        response.depth + 1 if response.depth is not None else None
    )
    if state.parent is None:
        state.parent = response.responder
        state.depth = candidate_depth
        return True
    if (
        bfs
        and candidate_depth is not None
        and (state.depth is None or candidate_depth < state.depth)
    ):
        state.parent = response.responder
        state.depth = candidate_depth
        return True
    if state.parent == response.responder:
        # Refresh our recorded depth for the existing parent.
        state.depth = candidate_depth
    return False
