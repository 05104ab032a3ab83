"""Stubs (proxies), remote references and shared stub tags.

Paper Sec. 2.2: a local activity may hold several stubs for the same remote
activity; the reference-graph edge must only disappear when *all* of them
are gone.  Rather than tracking each stub, the implementation places a
common *tag* in every stub for the same (holder, target) pair and keeps a
weak reference to the tag: the tag dies exactly when the last stub dies.

Our simulated equivalent: the :class:`ProxyTable` of an activity counts
live stubs per target; the :class:`StubTag` is shared by all of them and
is reported dead by the local GC once the count reaches zero.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import RuntimeModelError
from repro.runtime.ids import ActivityId


@dataclass(frozen=True, slots=True)
class RemoteRef:
    """The serialized form of a reference: enough to contact the target.

    This is what crosses the wire inside requests/replies; deserialization
    turns it into a :class:`Proxy` registered in the recipient's table.
    """

    activity_id: ActivityId
    node: str


class StubTag:
    """Tag shared by every stub of one (holder, target) pair — and the
    pair's :class:`ProxyTable` entry: ``ref`` is the reference the first
    stub was materialised from (every later stub shares it), and
    ``live_count`` the number of stubs not yet released.

    ``generation`` distinguishes successive tags for the same pair: if the
    edge dies and is later re-created, a new tag is minted, exactly like a
    fresh dummy object in the Java implementation.
    """

    __slots__ = ("holder", "target", "generation", "dead", "ref", "live_count")

    def __init__(
        self, holder: ActivityId, target: ActivityId, generation: int,
        ref: Optional[RemoteRef] = None,
    ) -> None:
        self.holder = holder
        self.target = target
        self.generation = generation
        self.dead = False
        self.ref = ref
        self.live_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.dead else "live"
        return f"StubTag({self.holder}->{self.target} gen={self.generation} {state})"


class Proxy:
    """A stub held by one activity, pointing at a remote activity."""

    __slots__ = ("ref", "tag", "_released")

    def __init__(self, ref: RemoteRef, tag: StubTag) -> None:
        self.ref = ref
        self.tag = tag
        self._released = False

    @property
    def activity_id(self) -> ActivityId:
        return self.ref.activity_id

    @property
    def node(self) -> str:
        return self.ref.node

    @property
    def released(self) -> bool:
        return self._released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Proxy({self.tag.holder}->{self.activity_id})"


class ProxyTable:
    """All stubs held by one activity, grouped per target: target id ->
    the live :class:`StubTag` of the pair.

    The no-sharing property (paper Sec. 2.1) guarantees a stub belongs to
    exactly one activity, so a per-activity table is exact.
    """

    __slots__ = ("holder", "_entries", "_generations")

    def __init__(self, holder: ActivityId) -> None:
        self.holder = holder
        self._entries: Dict[ActivityId, StubTag] = {}
        self._generations: Dict[ActivityId, int] = {}

    def acquire(self, ref: RemoteRef) -> Proxy:
        """Materialise a stub for ``ref`` (deserialization of a reference).

        Returns a new :class:`Proxy` sharing the per-target tag.
        """
        target = ref.activity_id
        entries = self._entries
        if target in entries:
            tag = entries[target]
        else:
            minted = self._generations
            generation = minted[target] + 1 if target in minted else 1
            minted[target] = generation
            tag = StubTag(self.holder, target, generation, ref)
            entries[target] = tag
        tag.live_count += 1
        return Proxy(tag.ref, tag)

    def release(self, proxy: Proxy) -> bool:
        """Drop one stub; returns True when this was the last stub for the
        target (the tag is now collectible)."""
        if proxy._released:
            raise RuntimeModelError(f"{proxy!r} released twice")
        proxy._released = True
        tag = proxy.tag
        target = tag.target
        entries = self._entries
        if target not in entries or entries[target] is not tag:
            # The tag generation was already retired (e.g. activity
            # termination released everything); nothing further to do.
            return False
        tag.live_count -= 1
        if tag.live_count <= 0:
            del entries[target]
            return True
        return False

    def release_all(self) -> List[StubTag]:
        """Drop every stub (activity termination); returns the dead tags."""
        tags = list(self._entries.values())
        self._entries.clear()
        return tags

    def holds(self, target: ActivityId) -> bool:
        """Does the activity currently hold at least one stub for target?"""
        return target in self._entries

    def live_count(self, target: ActivityId) -> int:
        tag = self._entries.get(target)
        return tag.live_count if tag else 0

    def targets(self) -> List[ActivityId]:
        """Targets currently referenced through at least one stub."""
        return list(self._entries.keys())

    def ref_for(self, target: ActivityId) -> Optional[RemoteRef]:
        tag = self._entries.get(target)
        return tag.ref if tag else None
