"""Fault and delay injection.

The algorithm is *hard real-time* (paper Sec. 4.2): a missed deadline —
a DGC message delayed beyond the ``TTA > 2*TTB + MaxComm`` margin — can
cause a wrongful collection.  The fault plan lets tests and the TTA-margin
ablation inject exactly such delays deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Set, Tuple


@dataclass
class DelayRule:
    """Adds ``extra_delay_s`` to the messages it matches within the
    [start, end) simulated-time window.

    A message matches when its stream passes the static
    ``source``/``dest``/``kind`` filters (``None`` = unfiltered) and,
    if a ``predicate`` is given, the predicate accepts the message's
    item (the request, reply, registry message or DGC target id it
    carries).  The static filters alone decide whether the rule could
    ever match a stream — see :meth:`FaultPlan.may_delay` — so traffic
    no rule can touch keeps riding the batched pulse."""

    extra_delay_s: float
    start: float = 0.0
    end: float = float("inf")
    source: Optional[str] = None
    dest: Optional[str] = None
    kind: Optional[str] = None
    predicate: Optional[Callable[[Any], bool]] = None

    def applies(
        self, source: str, dest: str, kind: str, item: Any, now: float
    ) -> bool:
        return (
            self.start <= now < self.end
            and self.may_match(source, dest, kind)
            and (self.predicate is None or self.predicate(item))
        )

    def may_match(self, source: str, dest: str, kind: str) -> bool:
        """Could this rule ever apply to traffic on the given stream?
        Time windows and the predicate are ignored (conservative): a
        currently-dormant rule still forces per-message latency
        evaluation, which is what honours the window exactly."""
        if self.source is not None and self.source != source:
            return False
        if self.dest is not None and self.dest != dest:
            return False
        if self.kind is not None and self.kind != kind:
            return False
        return True


class FaultPlan:
    """A set of delay rules and node partitions applied by the fabric.

    Partitioned node pairs hold messages forever (modelling an undetected
    failure, which the paper notes is indistinguishable from a transient
    one for fully asynchronous collectors).

    Internal contract: ``_delay_rules`` and ``_partitioned`` are mutated
    in place and never rebound — the network fabric aliases them as
    zero-cost emptiness guards on the send paths.
    """

    def __init__(self) -> None:
        self._delay_rules: List[DelayRule] = []
        self._partitioned: Set[Tuple[str, str]] = set()
        self.dropped_count = 0

    def add_delay(
        self,
        extra_delay_s: float,
        *,
        predicate: Optional[Callable[[Any], bool]] = None,
        source: Optional[str] = None,
        dest: Optional[str] = None,
        kind: Optional[str] = None,
        start: float = 0.0,
        end: float = float("inf"),
    ) -> None:
        """Register a delay rule; the keyword filters and the item
        ``predicate`` are ANDed together."""
        self._delay_rules.append(
            DelayRule(extra_delay_s, start, end, source, dest, kind, predicate)
        )

    def may_delay(self, source: str, dest: str, kind: str) -> bool:
        """Whether *any* registered delay rule could ever apply to
        ``kind`` traffic from ``source`` to ``dest``.

        The fabric's batched lanes use this to keep pulse semantics for
        streams no rule can touch: only the matchable streams take the
        per-message lane.  A rule without static filters stays
        conservative — it may match anything, predicate or not."""
        for rule in self._delay_rules:
            if rule.may_match(source, dest, kind):
                return True
        return False

    def partition(self, node_a: str, node_b: str) -> None:
        """Silently drop all traffic between the two nodes (both ways)."""
        self._partitioned.add((node_a, node_b))
        self._partitioned.add((node_b, node_a))

    def heal(self, node_a: str, node_b: str) -> None:
        """Remove a partition."""
        self._partitioned.discard((node_a, node_b))
        self._partitioned.discard((node_b, node_a))

    def is_partitioned(self, source: str, dest: str) -> bool:
        return (source, dest) in self._partitioned

    def extra_delay(
        self, source: str, dest: str, kind: str, item: Any, now: float
    ) -> float:
        """Total additional delay for one message at time ``now``."""
        return sum(
            rule.extra_delay_s
            for rule in self._delay_rules
            if rule.applies(source, dest, kind, item, now)
        )
