"""Struct-packed cross-shard wire frames.

The sharded world (:mod:`repro.shard`) reuses the columnar pulse from
the batched delivery cores as the *literal* wire frame between shard
processes: a staged pulse entry — delivery instant, destination node,
traffic kind, item/payload columns — is exactly what a remote shard
needs to stage the delivery into its own pulse, so the egress packs
those fields and nothing else.

Frames are pickle-free: every value crossing the boundary is encoded by
a small tagged ``struct`` codec that knows the closed set of fabric
message types (:mod:`repro.runtime.request` dataclasses,
:class:`repro.core.wire.DgcMessage`/:class:`~repro.core.wire.DgcResponse`,
:class:`repro.runtime.proxy.RemoteRef`,
:class:`repro.core.clock.ActivityClock`) plus the plain containers
their fields are built from.  Two properties the shard protocol relies
on:

* **round-trip is bit-identical** — ``unpack(pack(entries))`` yields
  entries whose every field compares equal, and whose *kind* is the
  canonical interned constant from :mod:`repro.net.kinds` (the columnar
  fire loop dispatches on kind identity, so returning an equal-but-
  distinct string would silently fall off the fast path);
* **frames are self-delimiting and validated** — a truncated or
  corrupted buffer raises :class:`WireFormatError` instead of returning
  garbage.

A frame is a header (magic ``0x5D58``, the ``(src_shard, seq)`` stamp,
row count, earliest delivery) and a compact, columnar body of *runs* —
``(kind, delivery, dest, items, payloads)``, the shape the network's
shard egress stages and the receiving pulse wants — so a run stays a
run from send to sink.  Layout after the header:

* ``varint table_size`` — the encoder's intern-table size when it began
  the frame; the decoder compares it with its own table before reading
  anything else (see *Channel persistence*);
* then records.  A record opening with ``_DEFINE`` appends one entry to
  the intern table; any other record is a run: ``_RUN_HEAD`` (kind,
  destination, item count, delivery instant as its IEEE bits) and a
  body;
* the body of a **DGC run** (``dgc.message`` / ``dgc.response``) is a
  schema-specialised *column block*: the target column and the message
  column as intern-table indices, all ``2 * count`` written by one
  ``struct.pack`` (two bytes each until the table outgrows that) and
  read back by one ``unpack_from``.  Every value a column refers to is
  defined before the run, once per channel: strings, clocks and refs as
  tagged values, a message or response *field-wise* — one struct of the
  table indices of its string, clock and ref fields plus its flags — so
  neither side recurses per message.  Repeats restore *sharing* on
  decode: a beat's one ``DgcMessage`` fanned out across dozens of
  targets comes back as one object;
* the body of any other run is ``count`` ``(item, payload)`` pairs of
  tagged values: one tag byte, then the value's fields encoded
  recursively, or ``_T_BACKREF`` into the same table (strings, floats,
  clocks, refs, reply addresses intern in encode order), integers as
  zigzag varints;
* decode is zero-copy: one ``memoryview`` over the frame,
  ``struct.unpack_from`` for fixed fields, ``str(view, "utf-8")`` for
  text.

The site-pair aggregate markers (``dgc.message[]``) are in-memory pulse
shapes and never ride a frame: a DGC run travels under its base kind
whatever its length.

**Channel persistence.**  The intern table is per-frame by default,
which makes every frame self-contained — but on a shard channel the
same activity ids, clocks and messages recur frame after frame.  A
:class:`ChannelEncoder` / :class:`ChannelDecoder` pair carries the
table *across* frames: a value defined in frame ``n`` is an index in
frame ``n+k``.  This is sound exactly because the shard fabric
guarantees per-channel FIFO: frames carry a ``(src_shard, seq)`` stamp,
the coordinator routes them in stamp order and the worker decodes each
channel's frames in seq order, so the decode table replays the
encoder's registrations move for move.  A channel pair is **one
direction of one (src, dst) shard pair**; a frame dropped, duplicated
or reordered on it raises (the table-size and ascending-``seq`` checks)
instead of resolving indices against the wrong table, and any
:class:`WireFormatError` leaves the channel desynced — discard it (the
worker treats decode errors as fatal).  The encoder keys its table by
*value* — a string itself, a composite by the tuple of its primitive
fields — so probes hash in C, equal-but-distinct objects share one
slot, and no object identity (which a collected object's reused address
could alias) is ever trusted.

Naming note (ROADMAP): the DGC *protocol* message types stay in
:mod:`repro.core.wire` — they are protocol state, not transport.  This
module owns only the transport encoding that moves staged pulse entries
between shard processes.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import math
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clock import ActivityClock
from repro.core.wire import DgcMessage, DgcResponse
from repro.errors import NetworkError
from repro.net import kinds as _kinds
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
from repro.runtime.proxy import RemoteRef
from repro.runtime.request import (
    RegistryAck,
    RegistryBind,
    RegistryInvalidate,
    RegistryPush,
    RegistryLookup,
    RegistryRenew,
    RegistryRenewAck,
    RegistryReply,
    Reply,
    ReplyAddress,
    Request,
)


class WireFormatError(NetworkError):
    """A wire frame failed to encode or decode."""


#: Frame magic: rejects frames from a foreign protocol (or a desynced
#: stream) before any lengths are trusted.  It doubles as the format
#: version: ``0x5D57`` was the retired entry-at-a-time format.
FRAME_MAGIC = 0x5D58

_HEADER = struct.Struct("!HHIId")  # magic, src_shard, seq, count, min_delivery
_F64 = struct.Struct("!d")

# Tagged-value encoding: one tag byte, then a field layout per tag.
# Compound fabric types encode their fields recursively with the same
# codec, so e.g. a Request's refs tuple of RemoteRefs needs no special
# casing.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
#: A varint index into the frame's intern table.
_T_BACKREF = 0x0B
_T_CLOCK = 0x10
_T_REMOTE_REF = 0x11
_T_REPLY_ADDRESS = 0x12
_T_REQUEST = 0x13
_T_REPLY = 0x14
_T_DGC_MESSAGE = 0x15
_T_DGC_RESPONSE = 0x16
_T_REG_LOOKUP = 0x17
_T_REG_REPLY = 0x18
_T_REG_BIND = 0x19
_T_REG_ACK = 0x1A
_T_REG_RENEW = 0x1B
_T_REG_RENEW_ACK = 0x1C
_T_REG_INVALIDATE = 0x1D
_T_REG_PUSH = 0x1E

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def kind_table() -> Tuple[str, ...]:
    """The shared kind-index table: every registered kind in canonical
    order, followed by the site-pair aggregate markers.  Both sides of a
    pipe derive the same table because workers fork from the coordinator
    after all ``register_kind`` calls — the table is re-derived per call
    (the registry rebinds its tuples on registration), memoized on the
    identity of the registry's current ``ALL_KINDS`` tuple."""
    global _KIND_CACHE
    base = _kinds.ALL_KINDS
    cached = _KIND_CACHE
    if cached is not None and cached[0] is base:
        return cached[1]
    table = list(base)
    for kind in base:
        aggregate = _kinds.AGGREGATE_KINDS.get(kind)
        if aggregate is not None:
            table.append(aggregate)
    result = tuple(table)
    _KIND_CACHE = (base, result)
    return result


_KIND_CACHE: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None


def kind_index() -> Dict[str, int]:
    """Kind -> table index, memoized alongside :func:`kind_table`."""
    global _KIND_INDEX_CACHE
    table = kind_table()
    cached = _KIND_INDEX_CACHE
    if cached is not None and cached[0] is table:
        return cached[1]
    index = {kind: position for position, kind in enumerate(table)}
    _KIND_INDEX_CACHE = (table, index)
    return index


_KIND_INDEX_CACHE: Optional[Tuple[Tuple[str, ...], Dict[str, int]]] = None


#: Which payload classes each registered kind puts on the cross-shard
#: wire — ``registry.reply`` and ``registry.renew`` each carry two
#: (the reply doubles as the bind/unbind ack; the renew kind carries
#: both the batch and its ack).  The ``KIND-codec`` rule in
#: :mod:`repro.analysis` checks the manifest stays total over the
#: registry and that every class named here has matching branches in
#: both codec function sets (encode and decode), so adding a kind
#: without teaching the wire to carry it fails the lint instead of
#: raising :class:`WireFormatError` mid-run.
KIND_PAYLOAD_TYPES = {
    KIND_DGC_MESSAGE: (DgcMessage,),
    KIND_DGC_RESPONSE: (DgcResponse,),
    KIND_APP_REQUEST: (Request,),
    KIND_APP_REPLY: (Reply,),
    KIND_REGISTRY_LOOKUP: (RegistryLookup,),
    KIND_REGISTRY_REPLY: (RegistryReply, RegistryAck),
    KIND_REGISTRY_BIND: (RegistryBind,),
    KIND_REGISTRY_INVALIDATE: (RegistryInvalidate,),
    KIND_REGISTRY_RENEW: (RegistryRenew, RegistryRenewAck),
    KIND_REGISTRY_PUSH: (RegistryPush,),
}


# ----------------------------------------------------------------------
# Encoding (interning + varints + DGC column blocks)
# ----------------------------------------------------------------------

#: Sentinel dict keys for the two float zeroes — ``-0.0 == 0.0`` hashes
#: identically, but bit-identical round-trips must keep them apart.
_POS_ZERO = ("f64-zero", 1.0)
_NEG_ZERO = ("f64-zero", -1.0)


def _float_key(value: float):
    if value == 0.0:
        return _NEG_ZERO if math.copysign(1.0, value) < 0 else _POS_ZERO
    return value


#: Opens every run: kind index, destination node index, item count,
#: delivery instant.
_RUN_HEAD = struct.Struct("!BHId")
#: First byte of a record that defines an intern-table entry instead
#: of opening a run; kind indices stay below it.
_DEFINE = 0xFF
#: Field-wise definitions: ``_DEFINE``, the value tag, then the fields —
#: strings, clock and ref as table indices, scalars inline.
#: (sender, clock, consensus, sender_ref, sender_ttb)
_DEF_MESSAGE = struct.Struct("!BBIIBId")
#: (responder, clock, has_parent, consensus_reached, has depth, depth)
_DEF_RESPONSE = struct.Struct("!BBIIBBBq")
#: Column indices are two bytes wide while the table fits.
_NARROW_TABLE = 0x10000


class _V2Encoder:
    """One frame's encode state: output buffer plus the intern table.

    Interned values get indices in *encode order*, children before the
    composite that contains them (post-order), which is exactly the
    order the decoder appends to its table — no index negotiation on
    the wire.  The table is keyed by value: a string by itself, a float
    by :func:`_float_key`, a composite by the tagged tuple of its
    primitive fields — so every probe hashes in C (no dataclass
    ``__hash__`` frames) and equal-but-distinct objects, e.g. two
    responders constructing the same clock value, share one slot.
    """

    __slots__ = ("out", "memo", "count")

    def __init__(self) -> None:
        self.out = bytearray()
        self.memo: Dict[object, int] = {}
        self.count = 0

    def varint(self, value: int) -> None:
        out = self.out
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)

    def zigzag(self, value: int) -> None:
        self.varint((value << 1) ^ (value >> 63))

    def _intern(self, key) -> bool:
        """Emit a backref if ``key`` is already in the table (True);
        otherwise return False — the caller encodes the value and then
        calls :meth:`_register`."""
        index = self.memo.get(key)
        if index is None:
            return False
        out = self.out
        out.append(_T_BACKREF)
        if index < 0x80:
            out.append(index)
        elif index < 0x4000:
            out.append((index & 0x7F) | 0x80)
            out.append(index >> 7)
        else:
            self.varint(index)
        return True

    def _register(self, key) -> None:
        self.memo[key] = self.count
        self.count += 1

    def _index(self, value, key) -> int:
        """Table index of a string, clock or ref a field-wise definition
        refers to — defined on first sight by one ``_DEFINE`` record
        holding its tagged value."""
        index = self.memo.get(key)
        if index is None:
            self.out.append(_DEFINE)
            self.value(value)
            index = self.memo[key]
        return index

    def dgc_columns(self, is_message: bool, targets: list, messages: list) -> bytes:
        """The column block of one DGC run: ``targets`` then ``messages``
        as intern-table indices.  Probes are keyed by field tuples, so a
        run whose values are all known costs one comprehension and one
        ``struct.pack`` whatever its length; a miss anywhere defines the
        run's new values (:meth:`_define_dgc`) and retries."""
        memo = self.memo
        try:
            if is_message:
                # ``-0.0 == 0.0`` and they hash alike: a zero declared
                # TTB keys by its repr so the two never share a slot.
                column = [
                    memo[(
                        _T_DGC_MESSAGE, m.sender, m.clock.value, m.clock.owner,
                        m.consensus, m.sender_ref.activity_id,
                        m.sender_ref.node, m.sender_ttb or f"{m.sender_ttb!r}",
                    )]
                    for m in messages
                ]
            else:
                column = [
                    memo[(
                        _T_DGC_RESPONSE, r.responder, r.clock.value,
                        r.clock.owner, r.has_parent, r.consensus_reached,
                        r.depth,
                    )]
                    for r in messages
                ]
            layout = "!%dH" if self.count <= _NARROW_TABLE else "!%dI"
            return struct.pack(
                layout % (2 * len(column)),
                *map(memo.__getitem__, targets), *column,
            )
        except (KeyError, AttributeError):
            self._define_dgc(is_message, targets, messages)
        return self.dgc_columns(is_message, targets, messages)

    def _define_dgc(self, is_message: bool, targets: list, messages: list) -> None:
        """Slow path of :meth:`dgc_columns`: append a definition for
        every value the run's columns need and the table lacks — a
        message or response once, field-wise, after the strings, clock
        and ref it refers to."""
        memo = self.memo
        index = self._index
        for target in targets:
            if target not in memo:
                if type(target) is not str:
                    raise WireFormatError(
                        f"cannot encode {type(target).__name__!r} as a DGC "
                        f"target"
                    )
                index(target, target)
        for value in messages:
            if is_message and type(value) is DgcMessage:
                clock = value.clock
                ref = value.sender_ref
                key = (
                    _T_DGC_MESSAGE, value.sender, clock.value, clock.owner,
                    value.consensus, ref.activity_id, ref.node,
                    value.sender_ttb or f"{value.sender_ttb!r}",
                )
                if key in memo:
                    continue
                record = _DEF_MESSAGE.pack(
                    _DEFINE, _T_DGC_MESSAGE, index(value.sender, value.sender),
                    index(clock, (_T_CLOCK, clock.value, clock.owner)),
                    value.consensus,
                    index(ref, (_T_REMOTE_REF, ref.activity_id, ref.node)),
                    value.sender_ttb,
                )
            elif not is_message and type(value) is DgcResponse:
                clock = value.clock
                depth = value.depth
                key = (
                    _T_DGC_RESPONSE, value.responder, clock.value,
                    clock.owner, value.has_parent, value.consensus_reached,
                    depth,
                )
                if key in memo:
                    continue
                record = _DEF_RESPONSE.pack(
                    _DEFINE, _T_DGC_RESPONSE,
                    index(value.responder, value.responder),
                    index(clock, (_T_CLOCK, clock.value, clock.owner)),
                    value.has_parent, value.consensus_reached,
                    depth is not None, depth or 0,
                )
            else:
                raise WireFormatError(
                    f"cannot encode {type(value).__name__!r} in a "
                    f"{'dgc.message' if is_message else 'dgc.response'} run"
                )
            self.out += record
            self._register(key)

    def value(self, value) -> None:
        # The dispatch chain is frequency-ordered for the generic lane's
        # traffic mix — activity-id strings first, then the interned
        # composites — because every app/registry field funnels through
        # here.  DGC messages and responses never do: they are defined
        # field-wise by :meth:`_define_dgc`.
        out = self.out
        cls = value.__class__
        if cls is str:
            if self._intern(value):
                return
            raw = value.encode("utf-8")
            out.append(_T_STR)
            self.varint(len(raw))
            out += raw
            self._register(value)
        elif cls is ActivityClock:
            key = (_T_CLOCK, value.value, value.owner)
            if self._intern(key):
                return
            out.append(_T_CLOCK)
            self.zigzag(value.value)
            self.value(value.owner)
            self._register(key)
        elif cls is RemoteRef:
            key = (_T_REMOTE_REF, value.activity_id, value.node)
            if self._intern(key):
                return
            out.append(_T_REMOTE_REF)
            self.value(value.activity_id)
            self.value(value.node)
            self._register(key)
        elif value is None:
            out.append(_T_NONE)
        elif cls is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif cls is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(_T_INT)
                self.zigzag(value)
            else:
                raw = value.to_bytes(
                    (value.bit_length() + 8) // 8, "big", signed=True
                )
                out.append(_T_BIGINT)
                self.varint(len(raw))
                out += raw
        elif cls is float:
            key = _float_key(value)
            if self._intern(key):
                return
            out.append(_T_FLOAT)
            out += _F64.pack(value)
            self._register(key)
        elif cls is bytes:
            out.append(_T_BYTES)
            self.varint(len(value))
            out += value
        elif cls is tuple:
            out.append(_T_TUPLE)
            self.varint(len(value))
            for element in value:
                self.value(element)
        elif cls is list:
            out.append(_T_LIST)
            self.varint(len(value))
            for element in value:
                self.value(element)
        elif cls is dict:
            out.append(_T_DICT)
            self.varint(len(value))
            for key, entry in value.items():
                self.value(key)
                self.value(entry)
        elif cls is ReplyAddress:
            key = (
                _T_REPLY_ADDRESS, value.node, value.activity, value.future_id
            )
            if self._intern(key):
                return
            out.append(_T_REPLY_ADDRESS)
            self.value(value.node)
            self.value(value.activity)
            self.zigzag(value.future_id)
            self._register(key)
        elif cls is Request:
            out.append(_T_REQUEST)
            self.value(value.method)
            self.value(value.sender)
            self.value(value.target)
            self.zigzag(value.payload_bytes)
            self.zigzag(value.request_id)
            self.value(tuple(value.refs))
            self.value(value.data)
            self.value(value.reply_to)
        elif type(value) is Reply:
            out.append(_T_REPLY)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.zigzag(value.payload_bytes)
            self.value(tuple(value.refs))
            self.value(value.data)
        elif type(value) is RegistryLookup:
            out.append(_T_REG_LOOKUP)
            self.value(value.name)
            self.value(value.reply_to)
        elif type(value) is RegistryReply:
            out.append(_T_REG_REPLY)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.value(value.name)
            self.value(value.ref)
            self.value(value.lease_s)
        elif type(value) is RegistryBind:
            out.append(_T_REG_BIND)
            self.value(value.name)
            self.value(value.ref)
            self.value(value.reply_to)
        elif type(value) is RegistryAck:
            out.append(_T_REG_ACK)
            self.zigzag(value.future_id)
            self.value(value.target_activity)
            self.value(value.name)
            out.append(1 if value.ok else 0)
            self.value(value.error)
        elif type(value) is RegistryRenew:
            out.append(_T_REG_RENEW)
            self.value(value.node)
            self.value(value.names)
        elif type(value) is RegistryRenewAck:
            out.append(_T_REG_RENEW_ACK)
            self.value(value.names)
            self.value(value.lease_s)
        elif type(value) is RegistryInvalidate:
            out.append(_T_REG_INVALIDATE)
            self.value(value.names)
        elif type(value) is RegistryPush:
            out.append(_T_REG_PUSH)
            self.value(value.bindings)
        else:
            raise WireFormatError(
                f"cannot encode {type(value).__name__!r} on the shard wire"
            )


# ----------------------------------------------------------------------
# Value decoding
# ----------------------------------------------------------------------


class _V2Reader:
    """Bounds-checked zero-copy cursor over one frame.

    Fixed fields go through ``struct.unpack_from`` on the shared
    memoryview, text through ``str(view, "utf-8")`` — nothing slices
    into intermediate ``bytes``.  ``table`` is the decode-side intern
    table; it grows in exactly the encoder's registration order.
    """

    __slots__ = ("buf", "pos", "end", "table")

    def __init__(self, buf, pos: int, end: int) -> None:
        self.buf = buf
        self.pos = pos
        self.end = end
        self.table: List[object] = []

    def _need(self, count: int) -> int:
        pos = self.pos
        stop = pos + count
        if stop > self.end:
            raise WireFormatError(
                f"truncated frame: wanted {count} bytes at offset {pos}, "
                f"{self.end - pos} available"
            )
        self.pos = stop
        return pos

    def u8(self) -> int:
        return self.buf[self._need(1)]

    def f64(self) -> float:
        return _F64.unpack_from(self.buf, self._need(8))[0]

    def varint(self) -> int:
        buf = self.buf
        pos = self.pos
        end = self.end
        if pos >= end:
            raise WireFormatError(
                f"truncated frame: varint at offset {pos} past end"
            )
        byte = buf[pos]
        if byte < 0x80:
            self.pos = pos + 1
            return byte
        result = byte & 0x7F
        shift = 7
        pos += 1
        while True:
            if pos >= end:
                raise WireFormatError(
                    f"truncated frame: varint at offset {self.pos} past end"
                )
            if shift > 63:
                raise WireFormatError(
                    f"overlong varint at offset {self.pos}"
                )
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                self.pos = pos
                return result
            shift += 7

    def zigzag(self) -> int:
        raw = self.varint()
        return (raw >> 1) ^ -(raw & 1)

    def text(self) -> str:
        length = self.varint()
        pos = self._need(length)
        try:
            return str(self.buf[pos:pos + length], "utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"corrupt string field: {exc}") from None


def _decode_value_v2(reader: _V2Reader):
    # Tag dispatch is frequency-ordered to mirror the encoder: backrefs
    # and activity-id strings exit the chain first.
    pos = reader.pos
    if pos >= reader.end:
        raise WireFormatError(
            f"truncated frame: wanted 1 bytes at offset {pos}, 0 available"
        )
    reader.pos = pos + 1
    tag = reader.buf[pos]
    if tag == _T_BACKREF:
        # Inlined varint: backrefs are the single hottest tag, and a
        # persistent channel's indices live mostly in the two-byte band.
        buf = reader.buf
        pos = reader.pos
        end = reader.end
        if pos < end and buf[pos] < 0x80:
            reader.pos = pos + 1
            index = buf[pos]
        elif pos + 1 < end and buf[pos + 1] < 0x80:
            reader.pos = pos + 2
            index = (buf[pos] & 0x7F) | (buf[pos + 1] << 7)
        else:
            index = reader.varint()
        table = reader.table
        if index < len(table):
            return table[index]
        raise WireFormatError(
            f"backref {index} out of range ({len(table)} interned)"
        )
    if tag == _T_STR:
        value = reader.text()
        reader.table.append(value)
        return value
    if tag == _T_CLOCK:
        value = ActivityClock(reader.zigzag(), _decode_value_v2(reader))
        reader.table.append(value)
        return value
    if tag == _T_REMOTE_REF:
        value = RemoteRef(_decode_value_v2(reader), _decode_value_v2(reader))
        reader.table.append(value)
        return value
    if tag == _T_FLOAT:
        value = reader.f64()
        reader.table.append(value)
        return value
    if tag == _T_INT:
        return reader.zigzag()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_TUPLE:
        count = reader.varint()
        return tuple(_decode_value_v2(reader) for _ in range(count))
    if tag == _T_LIST:
        count = reader.varint()
        return [_decode_value_v2(reader) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.varint()
        return {
            _decode_value_v2(reader): _decode_value_v2(reader)
            for _ in range(count)
        }
    if tag == _T_BIGINT:
        length = reader.varint()
        pos = reader._need(length)
        return int.from_bytes(
            reader.buf[pos:pos + length], "big", signed=True
        )
    if tag == _T_BYTES:
        length = reader.varint()
        pos = reader._need(length)
        return bytes(reader.buf[pos:pos + length])
    if tag == _T_REPLY_ADDRESS:
        value = ReplyAddress(
            _decode_value_v2(reader), _decode_value_v2(reader),
            reader.zigzag(),
        )
        reader.table.append(value)
        return value
    if tag == _T_REQUEST:
        method = _decode_value_v2(reader)
        sender = _decode_value_v2(reader)
        target = _decode_value_v2(reader)
        payload_bytes = reader.zigzag()
        request_id = reader.zigzag()
        refs = _decode_value_v2(reader)
        data = _decode_value_v2(reader)
        reply_to = _decode_value_v2(reader)
        return Request(
            method,
            sender,
            target,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
            reply_to=reply_to,
            request_id=request_id,
        )
    if tag == _T_REPLY:
        future_id = reader.zigzag()
        target_activity = _decode_value_v2(reader)
        payload_bytes = reader.zigzag()
        refs = _decode_value_v2(reader)
        data = _decode_value_v2(reader)
        return Reply(
            future_id,
            target_activity,
            payload_bytes=payload_bytes,
            refs=refs,
            data=data,
        )
    if tag == _T_REG_LOOKUP:
        return RegistryLookup(_decode_value_v2(reader), _decode_value_v2(reader))
    if tag == _T_REG_REPLY:
        future_id = reader.zigzag()
        target_activity = _decode_value_v2(reader)
        name = _decode_value_v2(reader)
        ref = _decode_value_v2(reader)
        lease_s = _decode_value_v2(reader)
        return RegistryReply(future_id, target_activity, name, ref, lease_s)
    if tag == _T_REG_BIND:
        name = _decode_value_v2(reader)
        ref = _decode_value_v2(reader)
        reply_to = _decode_value_v2(reader)
        return RegistryBind(name, ref, reply_to)
    if tag == _T_REG_ACK:
        future_id = reader.zigzag()
        target_activity = _decode_value_v2(reader)
        name = _decode_value_v2(reader)
        ok = reader.u8() != 0
        error = _decode_value_v2(reader)
        return RegistryAck(future_id, target_activity, name, ok, error)
    if tag == _T_REG_RENEW:
        return RegistryRenew(_decode_value_v2(reader), _decode_value_v2(reader))
    if tag == _T_REG_RENEW_ACK:
        return RegistryRenewAck(_decode_value_v2(reader), _decode_value_v2(reader))
    if tag == _T_REG_INVALIDATE:
        return RegistryInvalidate(_decode_value_v2(reader))
    if tag == _T_REG_PUSH:
        return RegistryPush(_decode_value_v2(reader))
    raise WireFormatError(f"unknown value tag 0x{tag:02X}")


def _decode_definition(reader: _V2Reader) -> None:
    """Apply the ``_DEFINE`` record at the cursor: append the value it
    defines to the intern table — a message or response from its
    field-wise struct, anything else from its tagged value."""
    view = reader.buf
    table = reader.table
    pos = reader.pos
    tag = view[pos + 1]
    if tag == _T_DGC_MESSAGE:
        _, _, sender, clock, consensus, sender_ref, sender_ttb = (
            _DEF_MESSAGE.unpack_from(view, pos)
        )
        table.append(DgcMessage(
            table[sender], table[clock], consensus != 0, table[sender_ref],
            sender_ttb,
        ))
        reader.pos = pos + _DEF_MESSAGE.size
    elif tag == _T_DGC_RESPONSE:
        _, _, responder, clock, has_parent, reached, has_depth, depth = (
            _DEF_RESPONSE.unpack_from(view, pos)
        )
        table.append(DgcResponse(
            table[responder], table[clock], has_parent != 0, reached != 0,
            depth if has_depth else None,
        ))
        reader.pos = pos + _DEF_RESPONSE.size
    else:
        reader.pos = pos + 1
        _decode_value_v2(reader)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

#: One staged run: ``(kind, delivery_time, dest_node, items, payloads)``
#: with parallel columns — for the DGC kinds ``(target_id, message)``.
Run = Tuple[str, float, str, list, list]


#: One decoded cross-shard frame: the (shard, seq) stamp that orders it
#: in the merged log, and the runs it carries.
class Frame:
    __slots__ = ("src_shard", "seq", "runs")

    def __init__(self, src_shard: int, seq: int, runs: List[Run]) -> None:
        self.src_shard = src_shard
        self.seq = seq
        self.runs = runs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(shard={self.src_shard}, seq={self.seq}, "
            f"runs={len(self.runs)})"
        )


class ChannelEncoder(_V2Encoder):
    """Persistent encode state for one ordered (src, dst) frame stream.

    Pass the same instance to every :func:`pack_frame` call on the
    channel and the intern table survives between frames:
    the steady state re-sends recurring ids, clocks and messages as
    table indices instead of definitions.  Sound only if the peer
    decodes the channel's frames in pack order with a matching
    :class:`ChannelDecoder` — the shard fabric's ``(src_shard, seq)``
    stamps guarantee exactly that.
    """

    __slots__ = ()


class ChannelDecoder:
    """Decode half of a persistent channel: the cross-frame intern
    table, grown in the paired :class:`ChannelEncoder`'s registration
    order, and the last frame sequence number decoded (a channel's
    frames must arrive in ascending ``seq``).  Discard after any decode
    error — the table is desynced."""

    __slots__ = ("table", "last_seq")

    def __init__(self) -> None:
        self.table: List[object] = []
        self.last_seq = -1


def frame_stamp(buf: bytes) -> Tuple[int, int]:
    """The ``(src_shard, seq)`` stamp from a packed frame's header —
    the global merge key — without decoding the body.  Lets a worker
    order raw buffers *before* decoding, which persistent channel
    decoders require (each channel's frames must decode in seq order).
    """
    if len(buf) < _HEADER.size:
        raise WireFormatError(
            f"truncated frame: {len(buf)} bytes, header needs "
            f"{_HEADER.size}"
        )
    magic, src_shard, seq, _count, _min_delivery = _HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:04X}")
    return src_shard, seq


def pack_frame(
    src_shard: int,
    seq: int,
    runs: Sequence[Run],
    node_index: Dict[str, int],
    channel: Optional[ChannelEncoder] = None,
) -> bytes:
    """Pack staged runs into one wire frame.

    Each run is ``(kind, delivery_time, dest_node, items, payloads)`` —
    what :meth:`repro.net.network.Network.drain_egress` hands over, and
    exactly the columns a staged pulse entry carries minus the channel
    (the receiving shard re-binds its own ingress channel).  ``kind`` is
    a registered kind, never a site-pair aggregate marker.  ``channel``
    persists the intern table across the frames of one ordered shard
    channel.
    """
    # The runs arrive grouped — the network's egress buckets sends by
    # (kind, delivery instant, destination) as they happen — so packing
    # is one pass: a head per run, then a column block (DGC) or the
    # tagged item/payload values (everything else).
    index = kind_index()
    if channel is None:
        encoder = _V2Encoder()
    else:
        encoder = channel
        encoder.out = bytearray()  # fresh frame body, the table persists
    encoder.varint(encoder.count)
    value = encoder.value
    rows = 0
    min_delivery = math.inf
    try:
        for kind, delivery, dest, items, payloads in runs:
            try:
                kind_position = index[kind]
            except KeyError:
                raise WireFormatError(
                    f"kind {kind!r} is not registered with the fabric"
                ) from None
            try:
                dest_position = node_index[dest]
            except KeyError:
                raise WireFormatError(
                    f"destination node {dest!r} is not in the shared "
                    f"topology"
                ) from None
            count = len(items)
            if count == 0 or count != len(payloads):
                raise WireFormatError(
                    f"run of {count} items and {len(payloads)} payloads: "
                    f"columns must be parallel and non-empty"
                )
            if delivery < min_delivery:
                min_delivery = delivery
            is_message = kind == KIND_DGC_MESSAGE
            is_dgc = is_message or kind == KIND_DGC_RESPONSE
            if is_dgc:
                # Definitions of values the table lacks land here, ahead
                # of the run that refers to them.
                columns = encoder.dgc_columns(is_message, items, payloads)
            elif kind not in _kinds.ALL_KINDS:
                raise WireFormatError(
                    f"kind {kind!r} is an in-memory aggregate marker: a "
                    f"DGC run rides the wire under its base kind"
                )
            encoder.out += _RUN_HEAD.pack(
                kind_position, dest_position, count, delivery
            )
            if is_dgc:
                encoder.out += columns
                rows += 1
            else:
                for position in range(count):
                    value(items[position])
                    value(payloads[position])
                rows += count
    except struct.error as exc:
        raise WireFormatError(f"field out of range for the wire: {exc}") from None
    return _HEADER.pack(
        FRAME_MAGIC,
        src_shard,
        seq,
        rows,
        min_delivery if rows else 0.0,
    ) + bytes(encoder.out)


def unpack_frame(
    buf: bytes,
    node_names: Sequence[str],
    channel: Optional[ChannelDecoder] = None,
) -> Frame:
    """Decode one frame; inverse of :func:`pack_frame`.

    ``node_names`` is the shared topology's node tuple (both sides
    derive it from the same :class:`~repro.net.topology.Topology`).
    Kinds come back as the canonical interned constants, so identity
    dispatch in the columnar fire loop works on injected runs.
    ``channel`` persists the intern table across the frames of one
    ordered shard channel; it must mirror the packing side's
    :class:`ChannelEncoder` frame for frame.
    """
    if len(buf) < _HEADER.size:
        raise WireFormatError(
            f"truncated frame: {len(buf)} bytes, header needs {_HEADER.size}"
        )
    magic, src_shard, seq, count, _min_delivery = _HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic 0x{magic:04X}")
    kinds = kind_table()
    node_count = len(node_names)
    reader = _V2Reader(memoryview(buf), _HEADER.size, len(buf))
    if channel is not None:
        if seq <= channel.last_seq:
            raise WireFormatError(
                f"frame (shard {src_shard}, seq {seq}) arrived after seq "
                f"{channel.last_seq} on the same channel: duplicated or "
                f"reordered"
            )
        channel.last_seq = seq
        reader.table = channel.table
    table = reader.table
    expected = reader.varint()
    if expected != len(table):
        raise WireFormatError(
            f"intern table out of step at frame (shard {src_shard}, seq "
            f"{seq}): the encoder had {expected} entries, this decoder "
            f"has {len(table)} — a frame was dropped, duplicated or "
            f"reordered on the channel"
        )
    view = reader.buf
    decode = _decode_value_v2
    runs: List[Run] = []
    rows = 0
    try:
        while rows < count:
            pos = reader.pos
            if view[pos] == _DEFINE:
                _decode_definition(reader)
                continue
            kind_position, dest_position, length, delivery = (
                _RUN_HEAD.unpack_from(view, pos)
            )
            if kind_position >= len(kinds):
                raise WireFormatError(
                    f"kind index {kind_position} out of range "
                    f"({len(kinds)} kinds)"
                )
            if dest_position >= node_count:
                raise WireFormatError(
                    f"destination index {dest_position} out of range "
                    f"({node_count} nodes)"
                )
            if length == 0:
                raise WireFormatError("empty run")
            kind = kinds[kind_position]
            pos += _RUN_HEAD.size
            if kind is KIND_DGC_MESSAGE or kind is KIND_DGC_RESPONSE:
                wide = len(table) > _NARROW_TABLE
                columns = struct.unpack_from(
                    ("!%dI" if wide else "!%dH") % (2 * length), view, pos
                )
                reader.pos = pos + length * (8 if wide else 4)
                items = [table[position] for position in columns[:length]]
                payloads = [table[position] for position in columns[length:]]
                rows += 1
            elif kind in _kinds.ALL_KINDS:
                reader.pos = pos
                items = []
                payloads = []
                for _ in range(length):
                    items.append(decode(reader))
                    payloads.append(decode(reader))
                rows += length
            else:
                raise WireFormatError(
                    f"aggregate marker {kind!r} cannot ride a frame"
                )
            runs.append(
                (kind, delivery, node_names[dest_position], items, payloads)
            )
    except (struct.error, IndexError) as exc:
        raise WireFormatError(f"truncated or corrupt frame: {exc}") from None
    if rows != count:
        raise WireFormatError(
            f"runs overflow the header's row count {count} (decoded {rows})"
        )
    if reader.pos != reader.end:
        raise WireFormatError(
            f"frame has {reader.end - reader.pos} trailing bytes"
        )
    return Frame(src_shard, seq, runs)
