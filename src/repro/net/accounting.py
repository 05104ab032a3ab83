"""Bandwidth accounting, mirroring the paper's instrumented SOCKS proxy.

Paper Sec. 5: "we measured the total network traffic by using an
instrumented local SOCKS server on every machine ... our communication
numbers only include the TCP payload ... DGC messages and responses
transmitted inside a single JVM are not accounted as they are directly
passed by reference."

The accountant therefore only sees messages that actually cross a node
boundary; the network fabric never routes intra-node messages through
it.  The fabric's per-message lane charges
:meth:`BandwidthAccountant.observe_sized`; its pulse lanes bump the
same per-kind categories and per-pair boxes in place, so per-kind
numbers are identical on every lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.net.kinds import ALL_KINDS, APP_KINDS, DGC_KINDS, REGISTRY_KINDS


@dataclass
class TrafficCategory:
    """Aggregated bytes and message counts for one traffic kind."""

    bytes: int = 0
    messages: int = 0


class BandwidthAccountant:
    """Counts cross-node payload bytes per traffic kind.

    Per-pair totals live in one-element list *boxes* so hot senders (the
    fabric's fused send lanes) can hold a channel's box and bump it in
    place instead of re-probing the dict per message; :meth:`pair_box`
    lends them out, :meth:`pair_bytes` reads them back.  Per-kind totals
    are lent the same way through :meth:`category`.  A network keeps one
    accountant for its whole life, so a lent box or category never goes
    stale.
    """

    def __init__(self) -> None:
        self._by_kind: Dict[str, TrafficCategory] = {}
        self._by_pair: Dict[Tuple[str, str], list] = {}

    def observe_sized(
        self, kind: str, size: int, pair: Tuple[str, str]
    ) -> None:
        """Record one cross-node message of ``size`` bytes; ``pair`` is
        the sending channel's precomputed ``(source, dest)`` key."""
        category = self._by_kind.get(kind)
        if category is None:
            category = TrafficCategory()
            self._by_kind[kind] = category
        category.bytes += size
        category.messages += 1
        box = self._by_pair.get(pair)
        if box is None:
            self._by_pair[pair] = [size]
        else:
            box[0] += size

    def pair_box(self, pair: Tuple[str, str]) -> list:
        """The live one-element byte box for ``pair`` (created empty on
        first use)."""
        box = self._by_pair.get(pair)
        if box is None:
            self._by_pair[pair] = box = [0]
        return box

    def pair_bytes(self, pair: Tuple[str, str]) -> int:
        """Cross-node payload bytes observed for one ordered node pair."""
        box = self._by_pair.get(pair)
        return box[0] if box is not None else 0

    def category(self, kind: str) -> TrafficCategory:
        """The live per-kind aggregate for ``kind``, created on first
        use.  Hot senders (the fabric's fused send lanes) hold onto the
        returned object and bump its counters directly — the category is
        the unit of aggregation, so this is observably identical to
        :meth:`observe_sized` at a fraction of the cost."""
        category = self._by_kind.get(kind)
        if category is None:
            category = TrafficCategory()
            self._by_kind[kind] = category
        return category

    def bytes_for(self, kind: str) -> int:
        category = self._by_kind.get(kind)
        return category.bytes if category else 0

    def messages_for(self, kind: str) -> int:
        category = self._by_kind.get(kind)
        return category.messages if category else 0

    @property
    def total_bytes(self) -> int:
        """All cross-node payload bytes (the paper's headline number)."""
        return sum(category.bytes for category in self._by_kind.values())

    def _family_bytes(self, family: Tuple[str, ...]) -> int:
        by_kind = self._by_kind
        total = 0
        for kind in family:
            category = by_kind.get(kind)
            if category is not None:
                total += category.bytes
        return total

    @property
    def app_bytes(self) -> int:
        """Application traffic only (requests + replies)."""
        return self._family_bytes(APP_KINDS)

    @property
    def dgc_bytes(self) -> int:
        """DGC traffic only (messages + responses)."""
        return self._family_bytes(DGC_KINDS)

    @property
    def registry_bytes(self) -> int:
        """Naming-service traffic only (every ``registry.*`` kind:
        lookups, replies, bind/unbind updates, invalidations, lease
        renewals, pushes)."""
        return self._family_bytes(REGISTRY_KINDS)

    @property
    def total_messages(self) -> int:
        return sum(category.messages for category in self._by_kind.values())

    def summary(self) -> Dict[str, TrafficCategory]:
        """Copy of the per-kind aggregates."""
        return {
            kind: TrafficCategory(cat.bytes, cat.messages)
            for kind, cat in self._by_kind.items()
        }

    def megabytes(self) -> float:
        """Total cross-node traffic in MB (10^6 bytes, as in the paper)."""
        return self.total_bytes / 1e6

    def describe(self) -> str:
        """One line per observed traffic kind, in the fabric's canonical
        :data:`~repro.net.kinds.ALL_KINDS` order (unknown kinds last,
        sorted), using the same kind labels every lane reports — kept
        uniform so ``grep 'dgc.message'`` works on any trace or
        summary."""
        known = [kind for kind in ALL_KINDS if kind in self._by_kind]
        extra = sorted(set(self._by_kind) - set(ALL_KINDS))
        return "\n".join(
            f"{kind}: {self._by_kind[kind].messages} msgs, "
            f"{self._by_kind[kind].bytes} B"
            for kind in known + extra
        )
