"""The named Lamport activity clock (paper Sec. 3.2).

"The cyclic garbage collector algorithm requires every active object to
maintain a named Lamport logical clock, which is used to determine which
activity was the last active.  The clock is named in the sense that the ID
of the active object incrementing the clock is embedded in the clock.
This additional information provides a total ordering of the named clocks
by letting the comparison function first compare the clock values and then
the active object IDs if the clock values are identical."

That order is tuple order on ``(value, owner)``, so a clock *is* that
pair: an immutable tuple whose comparisons, equality and hash all run in
C.  ``incremented(owner)`` returns a new clock ``owner:value+1`` and
merging is simply ``max``.  A clock equals the plain tuple of its fields.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from collections import namedtuple

from repro.runtime.ids import ActivityId


class ActivityClock(namedtuple("_NamedClock", ("value", "owner"))):
    """An immutable named Lamport clock ``owner:value``."""

    __slots__ = ()

    def incremented(self, new_owner: ActivityId) -> "ActivityClock":
        """``ID:Value`` incremented by ``new_owner`` becomes
        ``new_owner:Value+1`` (paper Sec. 3.2)."""
        return ActivityClock(self.value + 1, new_owner)

    def merge(self, other: "ActivityClock") -> "ActivityClock":
        """Lamport merge: the greater of the two clocks."""
        return other if other > self else self

    def __repr__(self) -> str:
        return f"{self.owner}:{self.value}"
