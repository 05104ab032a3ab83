"""Application-level requests and replies.

A request names a method on the target activity's behavior, carries a
modelled payload size (bytes on the wire, for bandwidth accounting) and a
tuple of serialized remote references (:class:`RemoteRef`).  Deserializing
those references at the recipient is what creates reference-graph edges
(paper Sec. 2.2).

Replies update the caller's future.  Following the paper's reference
orientation (Sec. 4.1), a reply does **not** create a DGC edge from callee
to caller, and a reply to an already-collected caller is dropped.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.runtime.ids import ActivityId
from repro.runtime.proxy import RemoteRef


@dataclass(slots=True)
class Request:
    """An asynchronous method invocation on an activity: a value, never
    mutated after construction, so one object may stand for many
    in-flight messages (a repeated bare ping, :meth:`Node.send_request`)."""

    method: str
    sender: ActivityId
    target: ActivityId
    payload_bytes: int = 0
    refs: Tuple[RemoteRef, ...] = ()
    data: Any = None
    reply_to: Optional["ReplyAddress"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Request({self.method} {self.sender}->{self.target})"


@dataclass(frozen=True, slots=True)
class ReplyAddress:
    """Where the reply (future update) must be delivered."""

    node: str
    activity: ActivityId
    future_id: int


@dataclass(slots=True)
class Reply:
    """A future update: the result of a served request."""

    future_id: int
    target_activity: ActivityId
    payload_bytes: int = 0
    refs: Tuple[RemoteRef, ...] = ()
    data: Any = None


@dataclass(frozen=True, slots=True)
class RegistryLookup:
    """A name resolution sent to the registry's home node.

    Registry traffic rides the unified fabric like any other kind
    (``registry.lookup``/``registry.reply``): a lookup crosses the wire,
    is served where the registry lives, and the reply updates the
    caller's future.
    """

    name: str
    reply_to: ReplyAddress


@dataclass(frozen=True, slots=True)
class RegistryReply:
    """The registry's answer: the bound reference, or ``None``.

    ``lease_s`` is the lease the authoritative shard grants on the
    binding (0 = not cacheable): the client node may serve resolves for
    ``name`` locally until the lease expires, renewing it through the
    batched ``registry.renew`` sweep.
    """

    future_id: int
    target_activity: ActivityId
    name: str
    ref: Optional[RemoteRef] = None
    lease_s: float = 0.0


@dataclass(frozen=True, slots=True)
class RegistryBind:
    """A bind (``ref`` set) or unbind (``ref`` ``None``) sent to the
    authoritative shard for ``name`` — ``registry.bind`` traffic.

    The shard applies the update against its state at delivery time and
    acknowledges through a :class:`RegistryAck` riding
    ``registry.reply``; the root pin moves with the binding (paper
    Sec. 4.1: a registered activity is a DGC root).  A ``reply_to`` of
    ``None`` marks a replica push from the primary (``replicated``
    placement): installed without acknowledgement.
    """

    name: str
    ref: Optional[RemoteRef]
    reply_to: Optional[ReplyAddress]


@dataclass(frozen=True, slots=True)
class RegistryAck:
    """The authoritative shard's answer to a bind/unbind: applied or
    rejected (name conflict, dead target, unknown name)."""

    future_id: int
    target_activity: ActivityId
    name: str
    ok: bool
    error: str = ""


@dataclass(frozen=True, slots=True)
class RegistryRenew:
    """One lease sweep's renewals for one authority: every cached name a
    client node used since its last sweep, batched like a heartbeat —
    ``registry.renew`` traffic."""

    node: str
    names: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class RegistryRenewAck:
    """The authority's grant: leases on ``names`` are extended by
    ``lease_s`` from delivery time (names that vanished come back as a
    :class:`RegistryInvalidate` instead)."""

    names: Tuple[str, ...]
    lease_s: float


@dataclass(frozen=True, slots=True)
class RegistryInvalidate:
    """Explicit cache invalidation — ``registry.invalidate`` traffic.

    Sent by an authority to every lease holder when a binding is
    removed, to replicas when a replicated binding is unbound, and as
    the negative half of a renewal reply.  The beat-quantized coherence
    channel (the default) batches a whole lease beat's invalidations
    into one multi-name message, the same object for every replica;
    under eager coherence (the oracle) each message carries one name."""

    names: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class RegistryPush:
    """A batched replica push — ``registry.push`` traffic.

    The beat-quantized coherence channel's positive half: every binding
    the primary applied during one lease beat, coalesced (last writer
    wins per name, so an unbind+rebind inside one beat travels as a
    single push of the surviving ref), built once and sent to every
    replica, which installs it without acknowledgement.  Eager
    coherence, the equivalence oracle, sends one no-reply
    :class:`RegistryBind` per (binding, destination) instead."""

    bindings: Tuple[Tuple[str, RemoteRef], ...]
