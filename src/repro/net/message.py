"""The wire-size model.

The paper states DGC messages and responses are "of fixed size"
(Sec. 4.3); application messages carry payloads whose size depends on the
workload.  The :class:`WireSizeModel` centralises the byte model so that
the bandwidth tables (Fig. 8) are computed from one tunable place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_PUSH,
    KIND_REGISTRY_RENEW,
    KIND_REGISTRY_REPLY,
)


@dataclass(frozen=True)
class WireSizeModel:
    """Byte sizes for the different message families.

    Defaults approximate Java RMI serialized forms: a DGC message carries a
    sender id, a named clock and a boolean; a DGC response carries a named
    clock and two booleans.  Application requests have a fixed header plus
    the workload-declared payload; every embedded remote reference costs
    ``reference_bytes`` (a serialized stub).
    """

    dgc_message_bytes: int = 64
    dgc_response_bytes: int = 48
    request_header_bytes: int = 96
    reply_header_bytes: int = 64
    reference_bytes: int = 128
    #: Registry traffic (paper Sec. 4.1: "anyone can look [registered
    #: objects] up at any time"): a lookup carries a name, a reply
    #: carries at most one serialized stub.
    registry_lookup_bytes: int = 48
    registry_reply_header_bytes: int = 32
    #: Naming-service control traffic: a bind/unbind update carries a
    #: name (plus one stub when binding); invalidations and lease
    #: renewals are batched — one header plus one serialized name per
    #: entry (the lease sweep flushes a whole beat's renewals as one
    #: message per authority, like a heartbeat).
    registry_update_bytes: int = 64
    registry_batch_header_bytes: int = 32
    registry_name_bytes: int = 24

    def request_size(self, payload_bytes: int, reference_count: int) -> int:
        """Wire size of an application request."""
        return (
            self.request_header_bytes
            + payload_bytes
            + reference_count * self.reference_bytes
        )

    def reply_size(self, payload_bytes: int, reference_count: int) -> int:
        """Wire size of an application reply (future update)."""
        return (
            self.reply_header_bytes
            + payload_bytes
            + reference_count * self.reference_bytes
        )

    def registry_lookup_size(self) -> int:
        """Wire size of a registry lookup request."""
        return self.registry_lookup_bytes

    def registry_reply_size(self, found: bool) -> int:
        """Wire size of a registry reply (one stub when the name resolved)."""
        return self.registry_reply_header_bytes + (
            self.reference_bytes if found else 0
        )

    def registry_update_size(self, with_ref: bool) -> int:
        """Wire size of a bind (carries a stub) or unbind update."""
        return self.registry_update_bytes + (
            self.reference_bytes if with_ref else 0
        )

    def registry_ack_size(self) -> int:
        """Wire size of a bind/unbind acknowledgement."""
        return self.registry_reply_header_bytes

    def registry_batch_size(self, name_count: int) -> int:
        """Wire size of a batched invalidation / lease-renewal message
        (one header, one serialized name per entry).

        Priced per constituent: a batch of N names costs exactly the
        same name bytes as N single-name messages, so comparing beat
        coherence with the eager oracle isolates the real win — N-1 amortized headers
        plus every update the last-writer-wins coalescing dropped."""
        return (
            self.registry_batch_header_bytes
            + name_count * self.registry_name_bytes
        )

    def registry_push_size(self, binding_count: int) -> int:
        """Wire size of a batched replica push (``registry.push``): one
        header, then one serialized name plus one stub per binding.
        Like :meth:`registry_batch_size`, priced per constituent — a
        batch of N bindings carries exactly N (name, stub) bodies — so
        comparing beat coherence with the eager oracle measures header
        amortization and coalescing, not a change of byte model."""
        return self.registry_batch_header_bytes + binding_count * (
            self.registry_name_bytes + self.reference_bytes
        )


#: Which :class:`WireSizeModel` attribute prices each traffic kind.
#: The mapping is deliberately explicit rather than name-derived — a
#: bind is priced as an *update* and invalidations/renewals share the
#: *batch* formula, so no naming convention could express it.
#: ``tests/unit/test_net_kinds.py`` checks it is total over
#: :data:`~repro.net.kinds.ALL_KINDS` and names real attributes.
KIND_SIZE_SOURCES = {
    KIND_DGC_MESSAGE: "dgc_message_bytes",
    KIND_DGC_RESPONSE: "dgc_response_bytes",
    KIND_APP_REQUEST: "request_size",
    KIND_APP_REPLY: "reply_size",
    KIND_REGISTRY_LOOKUP: "registry_lookup_size",
    KIND_REGISTRY_REPLY: "registry_reply_size",
    KIND_REGISTRY_BIND: "registry_update_size",
    KIND_REGISTRY_INVALIDATE: "registry_batch_size",
    KIND_REGISTRY_RENEW: "registry_batch_size",
    KIND_REGISTRY_PUSH: "registry_push_size",
}
