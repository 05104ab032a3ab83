"""The referenced table (paper Sec. 2.2, Fig. 2).

For every activity this activity references, the table keeps the remote
reference (the DGC *does* contact referenced activities), the last DGC
response received from it, and two liveness bits:

* ``needs_send`` — the Sec. 3.1 rule: "even if the reference is quickly
  garbage collected, the algorithm remembers that one DGC message must be
  sent anyway"; set on every deserialization, cleared by the next
  broadcast;
* ``tag_dead`` — the shared stub tag died (the local GC collected every
  stub for this target).

An entry is *removable* once its tag is dead **and** the mandatory first
send happened.  Removal is the *loss of a referenced* event (Fig. 6),
which increments the activity clock.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.wire import DgcResponse
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import RemoteRef, StubTag


@dataclass(slots=True)
class ReferencedRecord:
    """DGC state for one referenced activity."""

    target: ActivityId
    ref: RemoteRef
    tag: Optional[StubTag] = None
    tag_dead: bool = False
    needs_send: bool = True
    last_response: Optional[DgcResponse] = None
    messages_sent: int = 0

    @property
    def removable(self) -> bool:
        return self.tag_dead and not self.needs_send


class ReferencedTable:
    """All activities referenced by one activity."""

    __slots__ = ("_records", "_maybe_removable")

    def __init__(self) -> None:
        self._records: Dict[ActivityId, ReferencedRecord] = {}
        #: True while some record *may* be removable: armed whenever a
        #: tag dies (the needs-send bit may clear later) so
        #: :meth:`pop_removable` — which runs once per TTB tick — can
        #: skip its O(records) scan in the steady state.
        self._maybe_removable = False

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, target: ActivityId) -> bool:
        return target in self._records

    def get(self, target: ActivityId) -> Optional[ReferencedRecord]:
        return self._records.get(target)

    def ids(self) -> List[ActivityId]:
        return list(self._records.keys())

    def records(self) -> List[ReferencedRecord]:
        return list(self._records.values())

    def records_view(self):
        """Live view over the records, in insertion order — for hot
        loops that do not mutate the table while iterating (the TTB
        broadcast; removal happens afterwards via
        :meth:`pop_removable`).  Copy-free: :meth:`records` allocates a
        fresh list on every tick of every activity."""
        return self._records.values()

    def on_deserialized(self, ref: RemoteRef, tag: StubTag) -> ReferencedRecord:
        """A stub for ``ref`` was deserialized: (re)establish the edge.

        Every deserialization re-arms ``needs_send`` so at least one DGC
        message goes out at the next broadcast even if the stub is
        immediately collected.
        """
        record = self._records.get(ref.activity_id)
        if record is None:
            record = ReferencedRecord(target=ref.activity_id, ref=ref)
            self._records[ref.activity_id] = record
        record.ref = ref
        record.tag = tag
        record.tag_dead = tag.dead
        if tag.dead:
            self._maybe_removable = True
        record.needs_send = True
        return record

    def on_tag_dead(self, tag: StubTag) -> Optional[ReferencedRecord]:
        """The local GC reported ``tag`` dead; returns the affected record
        (which may not yet be removable)."""
        record = self._records.get(tag.target)
        if record is None or record.tag is not tag:
            # A newer tag generation superseded this one: the edge was
            # re-established before the GC noticed the old tag's death.
            return None
        record.tag_dead = True
        self._maybe_removable = True
        return record

    def pop_removable(self) -> List[ReferencedRecord]:
        """Remove and return every record whose edge is gone.

        O(1) in the steady state: the scan only runs while a dead tag
        is outstanding (``_maybe_removable``), and the flag stays armed
        as long as any dead-tagged record survives the scan (it may
        still owe its mandatory first send).
        """
        if not self._maybe_removable:
            return []
        removable = []
        armed = False
        for record in self._records.values():
            if record.tag_dead:
                if record.needs_send:
                    armed = True
                else:
                    removable.append(record)
        for record in removable:
            del self._records[record.target]
        self._maybe_removable = armed
        return removable
