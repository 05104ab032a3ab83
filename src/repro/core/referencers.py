"""The referencer table (paper Sec. 2.2, Fig. 2).

Referencers are tracked by ID only — the DGC never contacts them; it just
"stores the ID of the active objects contacting it".  For each referencer
the table remembers the last DGC message's clock and consensus flag (used
by Algorithm 1) and its arrival time (used to detect the *loss of a
referencer*, Sec. 3.2 / Fig. 5).

Hot-path bookkeeping
--------------------

Two operations run once per TTB tick on every activity and used to be
O(referencers) scans; both are now O(1) amortized:

* :meth:`ReferencerTable.agree` keeps an incremental count of records
  that agree (same clock, consensus flag set) with a *tracked* clock.
  The count is adjusted in :meth:`update`, :meth:`expire` and
  :meth:`forget`; a call with a different clock (the activity adopted or
  incremented its clock) rebuilds the count with one scan and tracks the
  new clock from then on.
* :meth:`ReferencerTable.expire` keeps a lower bound on the oldest
  ``last_message_time`` in the table.  When even the oldest possible
  record cannot have passed its deadline, the scan is skipped entirely
  (deadlines are at least TTA; ``honor_sender_ttb`` only stretches them).
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import math
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

    __slots__ = (
        "_records", "touch_skip", "_agree_clock", "_agree_count", "_lmt_floor",
    )

    def __init__(self) -> None:
        self._records: Dict[ActivityId, ReferencerRecord] = {}
        #: Steady-state receive diet (set by the collector on every core
        #: but ``per-event``): skip the field writes and
        #: agreement-count adjustment for messages that are
        #: field-identical to the referencer's current record.
        #: Observably neutral — only the arrival time matters then.
        self.touch_skip = False
        #: Clock the incremental agreement count refers to; ``None`` until
        #: the first :meth:`agree` call.
        self._agree_clock: Optional[ActivityClock] = None
        #: Number of records with ``clock == _agree_clock and consensus``.
        self._agree_count = 0
        #: Lower bound on the minimum ``last_message_time`` across records
        #: (records only ever move their timestamp forward, so the bound
        #: stays valid without per-update maintenance); ``+inf`` when empty.
        self._lmt_floor = math.inf

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

    def _agrees(self, record: ReferencerRecord) -> bool:
        return record.consensus and record.clock == self._agree_clock

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
        agree_clock = self._agree_clock
        if record is None:
            self._records[referencer] = ReferencerRecord(
                referencer, clock, consensus, now, sender_ttb
            )
            if now < self._lmt_floor:
                self._lmt_floor = now
            if agree_clock is not None and consensus and clock == agree_clock:
                self._agree_count += 1
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
            # agreement-count adjustment and the field writes.
            record.last_message_time = now
            return False
        if agree_clock is not None:
            if record.consensus and record.clock == agree_clock:
                self._agree_count -= 1
            if consensus and clock == agree_clock:
                self._agree_count += 1
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

        O(1) amortized: the first call for a given clock scans once and
        the count is maintained incrementally afterwards.
        """
        if self._agree_clock is None or clock != self._agree_clock:
            self._agree_clock = clock
            self._agree_count = sum(
                1 for record in self._records.values() if self._agrees(record)
            )
        return self._agree_count == len(self._records)

    def agree_scan(self, clock: ActivityClock) -> bool:
        """Reference implementation of :meth:`agree` — the naive
        O(referencers) scan.  Kept for property tests and for the
        pre-optimization baseline in :mod:`repro.perf.baseline`."""
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

        Fast path: every deadline is at least ``tta`` past the record's
        ``last_message_time`` (stretching only lengthens it), so when even
        the oldest record is within TTA, nothing can have expired and the
        scan is skipped.
        """
        if now - self._lmt_floor <= tta:
            return []
        lost = []
        floor = math.inf
        for referencer, record in self._records.items():
            deadline = tta
            if honor_sender_ttb and record.sender_ttb > base_ttb:
                deadline = tta + 2.0 * (record.sender_ttb - base_ttb)
            if now - record.last_message_time > deadline:
                lost.append(referencer)
            elif record.last_message_time < floor:
                floor = record.last_message_time
        for referencer in lost:
            self._drop(referencer)
        self._lmt_floor = floor
        return lost

    def expire_scan(
        self,
        now: float,
        tta: float,
        base_ttb: float = 0.0,
        honor_sender_ttb: bool = False,
    ) -> List[ActivityId]:
        """Reference implementation of :meth:`expire` without the
        min-deadline fast path (always scans)."""
        lost = []
        for referencer, record in self._records.items():
            deadline = tta
            if honor_sender_ttb and record.sender_ttb > base_ttb:
                deadline = tta + 2.0 * (record.sender_ttb - base_ttb)
            if now - record.last_message_time > deadline:
                lost.append(referencer)
        for referencer in lost:
            self._drop(referencer)
        if not self._records:
            self._lmt_floor = math.inf
        return lost

    def max_declared_ttb(self) -> float:
        """Slowest declared beat among live referencers (Sec. 7.1)."""
        if not self._records:
            return 0.0
        return max(record.sender_ttb for record in self._records.values())

    def forget(self, referencer: ActivityId) -> None:
        """Remove one referencer record (used by tests/baselines)."""
        self._drop(referencer)
        if not self._records:
            self._lmt_floor = math.inf

    def _drop(self, referencer: ActivityId) -> None:
        record = self._records.pop(referencer, None)
        if record is None:
            return
        if self._agree_clock is not None and self._agrees(record):
            self._agree_count -= 1
