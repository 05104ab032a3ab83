"""Bandwidth accounting, mirroring the paper's instrumented SOCKS proxy.

Paper Sec. 5: "we measured the total network traffic by using an
instrumented local SOCKS server on every machine ... our communication
numbers only include the TCP payload ... DGC messages and responses
transmitted inside a single JVM are not accounted as they are directly
passed by reference."

The accountant therefore only sees messages that actually cross a node
boundary; the network fabric never routes intra-node messages through
it.  Both fabric forms — typed pulse entries and envelopes — account
through :meth:`BandwidthAccountant.observe_sized` with the same kind
constants, so per-kind numbers are uniform across sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.net import kinds
from repro.net.message import Envelope


@dataclass
class TrafficCategory:
    """Aggregated bytes and message counts for one traffic kind."""

    bytes: int = 0
    messages: int = 0

    def add(self, size: int) -> None:
        self.bytes += size
        self.messages += 1


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

    def observe(self, envelope: Envelope) -> None:
        """Record one cross-node envelope."""
        self.observe_sized(
            envelope.kind,
            envelope.size_bytes,
            (envelope.source_node, envelope.dest_node),
        )

    def observe_sized(
        self, kind: str, size: int, pair: Tuple[str, str]
    ) -> None:
        """Hot-path form of :meth:`observe`: the caller (the network
        fabric) passes the channel's precomputed pair key, avoiding a
        tuple allocation per envelope."""
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

    def observe_run(
        self, kind: str, size: int, pair: Tuple[str, str], count: int
    ) -> None:
        """Record ``count`` same-kind, same-size messages crossing
        ``pair`` at once (a site-pair aggregate run).  Each constituent
        is charged at its modeled wire size — totals are bit-identical
        to ``count`` :meth:`observe_sized` calls."""
        category = self._by_kind.get(kind)
        if category is None:
            category = TrafficCategory()
            self._by_kind[kind] = category
        total = size * count
        category.bytes += total
        category.messages += count
        box = self._by_pair.get(pair)
        if box is None:
            self._by_pair[pair] = [total]
        else:
            box[0] += total

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

    # The family tuples are read through the kinds module (not bound at
    # import) so late-registered kinds are rolled up like describe().

    @property
    def app_bytes(self) -> int:
        """Application traffic only (requests + replies)."""
        return self._family_bytes(kinds.APP_KINDS)

    @property
    def dgc_bytes(self) -> int:
        """DGC traffic only (messages + responses)."""
        return self._family_bytes(kinds.DGC_KINDS)

    @property
    def registry_bytes(self) -> int:
        """Naming-service traffic only (every ``registry.*`` kind:
        lookups, replies, bind/unbind updates, invalidations, lease
        renewals — the family rollup comes from the kind registry)."""
        return self._family_bytes(kinds.REGISTRY_KINDS)

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
        sorted), using the same kind labels every sink reports (envelope
        and typed alike) — kept uniform so ``grep 'dgc.message'`` works
        on any trace or summary."""
        # Read through the module so late-registered kinds are ordered.
        all_kinds = kinds.ALL_KINDS
        known = [kind for kind in all_kinds if kind in self._by_kind]
        extra = sorted(set(self._by_kind) - set(all_kinds))
        return "\n".join(
            f"{kind}: {self._by_kind[kind].messages} msgs, "
            f"{self._by_kind[kind].bytes} B"
            for kind in known + extra
        )
