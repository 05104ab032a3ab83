"""Global snapshots of the reference graph.

An edge ``A -> B`` exists when activity A currently holds at least one
stub for B (paper Sec. 2: "references between different activities are in
fact transitive references" — our runtime's proxy table per activity *is*
that summarisation, thanks to the no-sharing property).

Snapshots also record each activity's idleness, rootness and hosting
node, which is everything the oracle and the analysis helpers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.runtime.ids import ActivityId


@dataclass
class ReferenceGraphSnapshot:
    """An immutable view of the reference graph at one instant."""

    time: float
    edges: Dict[ActivityId, Set[ActivityId]] = field(default_factory=dict)
    idle: Dict[ActivityId, bool] = field(default_factory=dict)
    roots: Set[ActivityId] = field(default_factory=set)
    hosting: Dict[ActivityId, str] = field(default_factory=dict)

    def referenced_by(self, activity_id: ActivityId) -> Set[ActivityId]:
        """Outgoing edges: the activities ``activity_id`` references."""
        return set(self.edges.get(activity_id, ()))

    def referencers_of(self, activity_id: ActivityId) -> Set[ActivityId]:
        """Incoming edges: the activities referencing ``activity_id``."""
        return {
            source
            for source, targets in self.edges.items()
            if activity_id in targets
        }

    def edge_list(self) -> List[Tuple[ActivityId, ActivityId]]:
        return [
            (source, target)
            for source, targets in self.edges.items()
            for target in sorted(targets)
        ]

    def transitive_referencers(self, activity_id: ActivityId) -> Set[ActivityId]:
        """The *reflexive* transitive closure of referencers (Eq. 1's
        ``{y | y ->* x}``)."""
        closure: Set[ActivityId] = {activity_id}
        frontier = [activity_id]
        reverse: Dict[ActivityId, Set[ActivityId]] = {}
        for source, targets in self.edges.items():
            for target in targets:
                reverse.setdefault(target, set()).add(source)
        while frontier:
            current = frontier.pop()
            for referencer in reverse.get(current, ()):  # pragma: no branch
                if referencer not in closure:
                    closure.add(referencer)
                    frontier.append(referencer)
        return closure


def snapshot_reference_graph(world) -> ReferenceGraphSnapshot:
    """Capture the current reference graph from the runtime state."""
    snapshot = ReferenceGraphSnapshot(time=world.kernel.now)
    for activity in world.live_activities():
        snapshot.idle[activity.id] = activity.is_idle()
        snapshot.hosting[activity.id] = activity.node.name
        if activity.is_root:
            snapshot.roots.add(activity.id)
        targets = set(activity.proxies.targets())
        if targets:
            snapshot.edges[activity.id] = targets
    return snapshot
