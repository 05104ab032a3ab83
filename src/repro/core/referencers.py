"""The referencer table (paper Sec. 2.2, Fig. 2).

Referencers are tracked by ID only — the DGC never contacts them; it just
"stores the ID of the active objects contacting it".  For each referencer
the table remembers the last DGC message's clock and consensus flag (used
by Algorithm 1) and its arrival time (used to detect the *loss of a
referencer*, Sec. 3.2 / Fig. 5).

:meth:`ReferencerTable.agree` and :meth:`ReferencerTable.expire` are
plain O(referencers) scans: on the spine they make fewer calls than the
incrementally maintained counters they replaced, and the counters' CPU
lead was inside the noise (PERFORMANCE.md "Verdicts").
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.clock import ActivityClock
from repro.runtime.ids import ActivityId


@dataclass(slots=True)
class ReferencerRecord:
    """Last-known state of one referencer.

    ``sender_ttb`` is the referencer's declared beat period (Sec. 7.1
    extension); 0 means undeclared (paper baseline).
    """

    referencer: ActivityId
    clock: ActivityClock
    consensus: bool
    last_message_time: float
    sender_ttb: float = 0.0


class ReferencerTable:
    """All known referencers of one activity."""

    __slots__ = ("_records", "touch_skip")

    def __init__(self) -> None:
        self._records: Dict[ActivityId, ReferencerRecord] = {}
        #: Steady-state receive diet (set by the collector on every core
        #: but ``per-event``): skip the field writes for messages that
        #: are field-identical to the referencer's current record.
        #: Observably neutral — only the arrival time matters then.
        self.touch_skip = False

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, referencer: ActivityId) -> bool:
        return referencer in self._records

    def get(self, referencer: ActivityId) -> Optional[ReferencerRecord]:
        return self._records.get(referencer)

    def ids(self) -> List[ActivityId]:
        return list(self._records.keys())

    def records(self) -> List[ReferencerRecord]:
        return list(self._records.values())

    def update(
        self,
        referencer: ActivityId,
        clock: ActivityClock,
        consensus: bool,
        now: float,
        sender_ttb: float = 0.0,
    ) -> bool:
        """Record a DGC message from ``referencer``; True if it is new."""
        record = self._records.get(referencer)
        if record is None:
            self._records[referencer] = ReferencerRecord(
                referencer, clock, consensus, now, sender_ttb
            )
            return True
        if (
            self.touch_skip
            and record.consensus == consensus
            and record.sender_ttb == sender_ttb
            and (record.clock is clock or record.clock == clock)
        ):
            # Field-identical to the last message from this referencer —
            # the steady state between clock movements.  Only the arrival
            # time matters (loss-of-referencer detection); skip the
            # field writes.
            record.last_message_time = now
            return False
        record.clock = clock
        record.consensus = consensus
        record.last_message_time = now
        record.sender_ttb = sender_ttb
        return False

    def agree(self, clock: ActivityClock) -> bool:
        """Paper Algorithm 1: do all referencers accept ``clock``?

        Vacuously true when the table is empty — callers that need the
        non-vacuous variant (the cyclic termination test) must check
        emptiness themselves.

        The clock compare tries identity first: in the steady state a
        record holds the very clock object the activity broadcast, so
        the ``!=`` call is skipped.
        """
        for record in self._records.values():
            if (
                record.clock is not clock and record.clock != clock
            ) or not record.consensus:
                return False
        return True

    def agree_scan(self, clock: ActivityClock) -> bool:
        """Reference implementation of :meth:`agree` — plain Algorithm 1
        with ``!=``, which the property tests compare against."""
        for record in self._records.values():
            if record.clock != clock or not record.consensus:
                return False
        return True

    def expire(
        self,
        now: float,
        tta: float,
        base_ttb: float = 0.0,
        honor_sender_ttb: bool = False,
    ) -> List[ActivityId]:
        """Drop referencers silent for more than TTA; returns the lost ids.

        This is the *loss of a referencer* detection (Sec. 3.2): "it has
        not received DGC messages from this referencer in a TTA period".

        With ``honor_sender_ttb`` (Sec. 7.1 extension) a referencer that
        declared a beat period slower than ours gets its deadline
        stretched by ``2 * (sender_ttb - base_ttb)``, preserving the
        TTA > 2*TTB + MaxComm margin relative to *its* beat.
        """
        lost = []
        records = self._records
        # Keys plus subscript rather than ``items()``: this runs once per
        # TTB on every activity, mostly over empty or tiny tables, where
        # the view object is most of the work.
        for referencer in records:
            record = records[referencer]
            deadline = tta
            if honor_sender_ttb and record.sender_ttb > base_ttb:
                deadline = tta + 2.0 * (record.sender_ttb - base_ttb)
            if now - record.last_message_time > deadline:
                lost.append(referencer)
        for referencer in lost:
            del records[referencer]
        return lost

    def max_declared_ttb(self) -> float:
        """Slowest declared beat among live referencers (Sec. 7.1)."""
        if not self._records:
            return 0.0
        return max(record.sender_ttb for record in self._records.values())

    def forget(self, referencer: ActivityId) -> None:
        """Remove one referencer record (used by tests/baselines)."""
        self._records.pop(referencer, None)
