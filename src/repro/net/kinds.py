"""The traffic kinds: the one place where every kind the fabric routes
is declared.

The set is closed: the paper's DGC messages and responses share the
FIFO connections of application requests and replies (Sec. 3.2), and
the naming service adds the registry kinds of Sec. 4.1 — ten kinds in
all.  Dispatch order, the aggregate markers and the accountant's
family rollups are literal here, and the tier-1 tests check the
cross-module invariants on the real objects: every kind is priced
(``KIND_SIZE_SOURCES``), carried by the wire codec
(``KIND_PAYLOAD_TYPES``) and dispatched by every node's kind table
(``tests/unit/test_net_kinds.py``, ``tests/property/test_wire_codec.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Category constants for the bandwidth accountant and the typed fabric.
KIND_APP_REQUEST = "app.request"
KIND_APP_REPLY = "app.reply"
KIND_DGC_MESSAGE = "dgc.message"
KIND_DGC_RESPONSE = "dgc.response"
KIND_REGISTRY_LOOKUP = "registry.lookup"
KIND_REGISTRY_REPLY = "registry.reply"
KIND_REGISTRY_BIND = "registry.bind"
KIND_REGISTRY_INVALIDATE = "registry.invalidate"
KIND_REGISTRY_RENEW = "registry.renew"
#: Batched replica pushes from the beat-quantized coherence channel, the
#: default (one multi-binding message per destination per lease beat);
#: the eager oracle's per-binding pushes ride ``registry.bind`` instead,
#: so the A/B byte split is visible per kind in the accountant.
KIND_REGISTRY_PUSH = "registry.push"

#: Every kind the unified fabric routes, in dispatch-priority order
#: (DGC first: it outnumbers the rest by an order of magnitude at scale).
#: The position is the kind's index on the cross-shard wire.
ALL_KINDS: Tuple[str, ...] = (
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    KIND_APP_REQUEST,
    KIND_APP_REPLY,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_REPLY,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_PUSH,
)

#: Site-pair aggregate markers: in the columnar pulse, a run of DGC
#: messages staged back-to-back on the same channel for the same
#: delivery instant rides **one** pulse entry whose item/payload columns
#: hold flat ``(target_id, message)`` lists.  The aggregate kinds are
#: internal to the fabric — they never appear on the wire, in the
#: accountant (each constituent is charged at its own kind and modeled
#: size) or in node-facing sinks (the destination unwraps them through a
#: dedicated batch sink).  Keyed by the base kind they aggregate.
AGGREGATE_KINDS: Dict[str, str] = {
    KIND_DGC_MESSAGE: "dgc.message[]",
    KIND_DGC_RESPONSE: "dgc.response[]",
}

#: Per-family rollups (``BandwidthAccountant.app_bytes`` etc.).
APP_KINDS: Tuple[str, ...] = (KIND_APP_REQUEST, KIND_APP_REPLY)
DGC_KINDS: Tuple[str, ...] = (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE)
REGISTRY_KINDS: Tuple[str, ...] = (
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_REPLY,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_PUSH,
)


def describe_traffic(kind: str, source: str, dest: str, size_bytes: int) -> str:
    """The one uniform rendering of a unit of traffic, in the
    accountant's kind vocabulary, so traces stay greppable by kind
    regardless of which lane carried the message."""
    return f"{kind} {source}->{dest} {size_bytes}B"
