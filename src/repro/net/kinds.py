"""The traffic-kind registry: one place where every kind the fabric
routes is declared.

Historically the kind constants lived in :mod:`repro.net.message` and
their groupings (dispatch order, aggregate markers, per-family byte
rollups) were repeated across ``network.py``, ``node.py`` and
``accounting.py``.  This module centralises them: adding a traffic
kind means one :func:`register_kind` call here — the dispatch tables,
the accountant's family rollups and :func:`describe_traffic`
renderings all derive from the registry.

Kinds register at import time (module bottom); the derived tuples are
rebound on every registration, so registrations are visible to code
that reads them through the module — the accountant's family rollups
and :meth:`~repro.net.accounting.BandwidthAccountant.describe` do
exactly that.  The fabric's *dispatch shape* — the
:data:`AGGREGATE_KINDS` markers — is bound by ``network.py``/``node.py``
at their import for hot-path speed, so a kind that supports run
coalescing must be registered before those modules are imported (i.e.
from a module imported ahead of world construction); plain kinds —
everything the naming service adds — can register at any time.  The
binders record themselves via :func:`bind_dispatch_shapes`, and
:func:`register_kind` raises on a too-late aggregate registration
instead of silently routing the kind down the per-message lane (the
static ``KIND-late-aggregate`` rule in :mod:`repro.analysis` catches
the same mistake before it runs).  :mod:`repro.net.message` re-exports
everything for backward compatibility.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
ALL_KINDS: Tuple[str, ...] = ()

#: Site-pair aggregate markers: in the columnar pulse, a run of DGC
#: messages staged back-to-back on the same channel for the same
#: delivery instant rides **one** pulse entry whose item/payload columns
#: hold flat ``(target_id, message)`` lists.  The aggregate kinds are
#: internal to the fabric — they never appear on the wire, in the
#: accountant (each constituent is charged at its own kind and modeled
#: size) or in node-facing sinks (the destination unwraps them through a
#: dedicated batch sink).  Keyed by the base kind they aggregate.
AGGREGATE_KINDS: Dict[str, str] = {}

#: Per-family rollups (``BandwidthAccountant.app_bytes`` etc.) — derived
#: from each kind's declared family, so a new ``registry.*`` kind is
#: counted by ``registry_bytes`` without touching the accountant.
APP_KINDS: Tuple[str, ...] = ()
DGC_KINDS: Tuple[str, ...] = ()
REGISTRY_KINDS: Tuple[str, ...] = ()

_FAMILY_ROLLUPS = {"app": "APP_KINDS", "dgc": "DGC_KINDS",
                   "registry": "REGISTRY_KINDS"}

#: Modules that snapshot the dispatch shape at their import
#: (``network.py`` binds the aggregate fast-lane constants, ``node.py``
#: the batch sinks that unwrap them).  Each calls
#: :func:`bind_dispatch_shapes` right after snapshotting; once any
#: binder is recorded, an aggregate registration arrives too late to be
#: seen by the hot path, so :func:`register_kind` rejects it instead of
#: silently routing the kind down the per-message lane.
_DISPATCH_SHAPE_BINDERS: Tuple[str, ...] = ()


def bind_dispatch_shapes(binder: str) -> None:
    """Record that *binder* has snapshot the dispatch shape.

    Called by ``network.py``/``node.py`` at the end of their import.
    From this point on, registering a kind with an ``aggregate`` marker
    raises — the snapshot would not include it.  Plain kinds stay
    registrable at any time.
    """
    global _DISPATCH_SHAPE_BINDERS
    if binder not in _DISPATCH_SHAPE_BINDERS:
        _DISPATCH_SHAPE_BINDERS = _DISPATCH_SHAPE_BINDERS + (binder,)


def register_kind(
    kind: str,
    *,
    aggregate: Optional[str] = None,
    family: Optional[str] = None,
) -> str:
    """Declare one traffic kind and rebind the derived groupings.

    ``aggregate`` names the fabric-internal site-pair aggregate marker
    (if the kind supports run coalescing), ``family`` the byte-rollup
    family (default: the kind's dot-prefix).  Returns ``kind`` so declarations read as
    assignments.
    """
    global ALL_KINDS
    if kind in ALL_KINDS:
        raise ValueError(f"traffic kind {kind!r} registered twice")
    if aggregate is not None and _DISPATCH_SHAPE_BINDERS:
        raise RuntimeError(
            f"traffic kind {kind!r} needs the aggregate dispatch shape, "
            f"but {', '.join(_DISPATCH_SHAPE_BINDERS)} already bound the "
            f"dispatch shape at import — register it at the top "
            f"level of repro.net.kinds (before network/node import) so "
            f"the fast path can see it"
        )
    ALL_KINDS = ALL_KINDS + (kind,)
    if aggregate is not None:
        AGGREGATE_KINDS[kind] = aggregate
    family = family if family is not None else kind.split(".", 1)[0]
    rollup = _FAMILY_ROLLUPS.get(family)
    if rollup is not None:
        globals()[rollup] = globals()[rollup] + (kind,)
    return kind


def describe_traffic(kind: str, source: str, dest: str, size_bytes: int) -> str:
    """The one uniform rendering of a unit of traffic, in the
    accountant's kind vocabulary, so traces stay greppable by kind
    regardless of which lane carried the message."""
    return f"{kind} {source}->{dest} {size_bytes}B"


# ----------------------------------------------------------------------
# The built-in kinds, in dispatch-priority order.
# ----------------------------------------------------------------------

register_kind(KIND_DGC_MESSAGE, aggregate="dgc.message[]")
register_kind(KIND_DGC_RESPONSE, aggregate="dgc.response[]")
register_kind(KIND_APP_REQUEST)
register_kind(KIND_APP_REPLY)
register_kind(KIND_REGISTRY_LOOKUP)
register_kind(KIND_REGISTRY_REPLY)
register_kind(KIND_REGISTRY_BIND)
register_kind(KIND_REGISTRY_INVALIDATE)
register_kind(KIND_REGISTRY_RENEW)
register_kind(KIND_REGISTRY_PUSH)
