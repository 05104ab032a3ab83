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

A frame is a header (magic ``0x5D5A``, the ``(src_shard, seq)`` stamp,
row count, earliest delivery) and a body of columns, not of records:
the runs ``(kind, delivery, dest, items, payloads)`` the network's
shard egress stages, laid out so that a frame costs a handful of
``struct`` calls whatever its run count.  Layout after the header:

* ``varint table_size`` — the encoder's intern-table size when it began
  the frame; the decoder compares it with its own table before reading
  anything else (see *Channel persistence*);
* the **definition block**: a zero byte if the DGC runs need nothing
  new; else a one byte, the counts of new strings, clocks, refs,
  messages and responses, and each new value *field-wise*, grouped in
  that order (a group refers only to earlier ones): strings as one
  column of lengths plus one UTF-8 text, the rest as one struct;
* the **run table**: ``varint n_runs``, then the kind, destination,
  count and delivery (IEEE bits) columns in one struct;
* the **index block**: every DGC run's targets, then every
  ``dgc.message`` payload, then every ``dgc.response`` payload, as
  intern-table indices in one struct (two bytes each until the table
  outgrows that).  The decoder maps the whole block through the table
  at once and slices it per run; repeats restore *sharing* — a beat's
  one ``DgcMessage`` fanned out across dozens of targets comes back as
  one object;
* the **values** of the other runs, in run order: ``count`` ``(item,
  payload)`` pairs of tagged values — one tag byte, then the fields
  recursively, or ``_T_BACKREF`` into the same table (strings, floats,
  clocks and refs intern in encode order; a reply address, unique per
  request, never does), integers as zigzag varints — but a ``Request``
  with no data whose strings and refs are in the table is one
  ``_T_REQUEST_ROW`` struct of indices;
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
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.clock import ActivityClock
from repro.core.wire import DgcMessage, DgcResponse
from repro.errors import NetworkError
from repro.net.kinds import (
    ALL_KINDS,
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


def _cannot_encode(value, where: str) -> WireFormatError:
    return WireFormatError(f"cannot encode {type(value).__name__!r} {where}")


#: Frame magic: rejects frames from a foreign protocol (or a desynced
#: stream) before any lengths are trusted.  It doubles as the format
#: version: ``0x5D57`` was the retired entry-at-a-time format, ``0x5D58``
#: the retired record-per-run format, ``0x5D59`` the columnar format
#: whose requests still carried a request id.
FRAME_MAGIC = 0x5D5A

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
#: A ``Request`` as one struct of table indices (``_Encoder.value``).
_T_REQUEST_ROW = 0x1F

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


#: Kind -> wire index: the kind's position in
#: :data:`~repro.net.kinds.ALL_KINDS`, which both sides of a pipe share.
#: The site-pair aggregate markers have no index — a DGC run rides the
#: wire under its base kind.
KIND_INDEX: Dict[str, int] = {
    kind: position for position, kind in enumerate(ALL_KINDS)
}


#: Which payload classes each traffic kind puts on the cross-shard
#: wire — ``registry.reply`` and ``registry.renew`` each carry two
#: (the reply doubles as the bind/unbind ack; the renew kind carries
#: both the batch and its ack).  ``tests/unit/test_net_kinds.py`` checks
#: the manifest is total over :data:`~repro.net.kinds.ALL_KINDS`, and
#: ``tests/property/test_wire_codec.py`` round-trips one sample of every
#: class named here under its kind, so a class the codec cannot carry
#: fails a tier-1 test instead of raising :class:`WireFormatError`
#: mid-run.
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
# Encoding (interning + varints + field-wise definitions)
# ----------------------------------------------------------------------

#: Sentinel dict keys for the two float zeroes — ``-0.0 == 0.0`` hashes
#: identically, but bit-identical round-trips must keep them apart.
_POS_ZERO = ("f64-zero", 1.0)
_NEG_ZERO = ("f64-zero", -1.0)


def _float_key(value: float):
    if value == 0.0:
        return _NEG_ZERO if math.copysign(1.0, value) < 0 else _POS_ZERO
    return value


#: Table indices are two bytes wide while the table fits.
_NARROW_TABLE = 0x10000
#: ``_T_REQUEST_ROW`` after its tag: method, sender and target indices
#: (u16, u32 once the table is wide), payload bytes (i64), ref count (u16)
#: — 17 bytes with the tag for a ref-less request on a narrow table —
#: then one index per ref, then a tagged ``reply_to``.
_REQUEST_ROW = (struct.Struct("!3HqH"), struct.Struct("!3IqH"))
#: Definition records after the strings — clock, ref, message, response:
#: leading table-index fields, then the scalars' struct codes and size.
_DEFINITION_RECORDS = ((1, "q", 8), (2, "", 0), (3, "?d", 9), (2, "???q", 11))


class _Encoder:
    """One frame's encode state: output buffer plus the intern table.

    Interned values get indices in *encode order*, which is exactly the
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

    def dgc_indices(self, targets: list, messages: list, responses: list) -> list:
        """The index block: ``targets``, ``messages``, then ``responses``
        as table indices — two comprehensions of field-tuple probes
        whatever the frame's length.  A miss raises ``KeyError`` (or
        ``AttributeError``); the caller then runs :meth:`_define_dgc`."""
        memo = self.memo
        # ``-0.0 == 0.0`` and they hash alike: a zero declared TTB keys
        # by its repr so the two never share a slot.
        return [
            *map(memo.__getitem__, targets),
            *[
                memo[(
                    _T_DGC_MESSAGE, m.sender, m.clock.value, m.clock.owner,
                    m.consensus, m.sender_ref.activity_id, m.sender_ref.node,
                    m.sender_ttb or f"{m.sender_ttb!r}",
                )]
                for m in messages
            ],
            *[
                memo[(
                    _T_DGC_RESPONSE, r.responder, r.clock.value,
                    r.clock.owner, r.has_parent, r.consensus_reached, r.depth,
                )]
                for r in responses
            ],
        ]

    def _define_dgc(self, targets: list, messages: list, responses: list) -> None:
        """Register and write, grouped in this order, every string,
        clock, ref, message and response the DGC runs need and the table
        lacks: strings as lengths plus one text, the rest as one struct."""
        memo = self.memo
        # Per group, key -> record: its table links (keys), then scalars.
        wanted: List[dict] = [{}, {}, {}, {}, {}]
        strings, clocks, refs, dgc_messages, dgc_responses = wanted
        for target in targets:
            if type(target) is not str:
                raise _cannot_encode(target, "as a DGC target")
            strings[target] = None
        for value in messages:
            if type(value) is not DgcMessage:
                raise _cannot_encode(value, "in a dgc.message run")
            clock = value.clock
            ref = value.sender_ref
            clock_key = (_T_CLOCK, clock.value, clock.owner)
            ref_key = (_T_REMOTE_REF, ref.activity_id, ref.node)
            strings[value.sender] = strings[clock.owner] = None
            strings[ref.activity_id] = strings[ref.node] = None
            clocks[clock_key] = (clock.owner, clock.value)
            refs[ref_key] = (ref.activity_id, ref.node)
            dgc_messages[(
                _T_DGC_MESSAGE, value.sender, clock.value, clock.owner,
                value.consensus, ref.activity_id, ref.node,
                value.sender_ttb or f"{value.sender_ttb!r}",
            )] = (
                value.sender, clock_key, ref_key, value.consensus,
                value.sender_ttb,
            )
        for value in responses:
            if type(value) is not DgcResponse:
                raise _cannot_encode(value, "in a dgc.response run")
            clock = value.clock
            clock_key = (_T_CLOCK, clock.value, clock.owner)
            strings[value.responder] = strings[clock.owner] = None
            clocks[clock_key] = (clock.owner, clock.value)
            dgc_responses[(
                _T_DGC_RESPONSE, value.responder, clock.value, clock.owner,
                value.has_parent, value.consensus_reached, value.depth,
            )] = (
                value.responder, clock_key, value.has_parent,
                value.consensus_reached, value.depth is not None,
                value.depth or 0,
            )
        groups = [
            {key: record for key, record in group.items() if key not in memo}
            for group in wanted
        ]
        for text in groups[0]:
            if type(text) is not str:
                raise _cannot_encode(text, "in a DGC field")
        out = self.out
        out.append(1)
        count = self.count
        for group in groups:
            self.varint(len(group))
            for key in group:
                memo[key] = count
                count += 1
        self.count = count
        if groups[0]:
            raw = "".join(groups[0]).encode("utf-8")
            out += struct.pack(
                "!%dH" % len(groups[0]), *map(len, groups[0])
            )
            self.varint(len(raw))
            out += raw
        w = "H" if count <= _NARROW_TABLE else "I"
        layout = "!"
        fields: list = []
        for group, (links, scalars, _) in zip(groups[1:], _DEFINITION_RECORDS):
            # Links, then a column per scalar: counted codes compile small.
            layout += f"{links * len(group)}{w}"
            for record in group.values():
                fields += map(memo.__getitem__, record[:links])
            for position, code in enumerate(scalars, links):
                layout += f"{len(group)}{code}"
                fields += [record[position] for record in group.values()]
        out += struct.pack(layout, *fields)

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
            # Never interned: the future id is unique per request, so an
            # entry would only grow the channel's table.
            out.append(_T_REPLY_ADDRESS)
            self.value(value.node)
            self.value(value.activity)
            self.zigzag(value.future_id)
        elif cls is Request:
            # A row if there is no data and every string and ref is a
            # table entry; else the tagged fields, which intern them.
            memo = self.memo
            if value.data is None and (
                type(value.method) is type(value.sender)
                is type(value.target) is str
            ):
                try:
                    refs = [
                        memo[(_T_REMOTE_REF, ref.activity_id, ref.node)]
                        for ref in value.refs
                    ]
                    n = len(refs)
                    w = "I" if self.count > _NARROW_TABLE else "H"
                    out += struct.pack(
                        f"!B3{w}qH{n}{w}", _T_REQUEST_ROW,
                        memo[value.method], memo[value.sender],
                        memo[value.target], value.payload_bytes, n, *refs,
                    )
                except (KeyError, AttributeError, TypeError, struct.error):
                    pass
                else:
                    self.value(value.reply_to)
                    return
            out.append(_T_REQUEST)
            self.value(value.method)
            self.value(value.sender)
            self.value(value.target)
            self.zigzag(value.payload_bytes)
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
            raise _cannot_encode(value, "on the shard wire")


# ----------------------------------------------------------------------
# Value decoding
# ----------------------------------------------------------------------


class _Reader:
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


def _decode_value(reader: _Reader):
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
        try:
            return reader.table[index]
        except IndexError:
            raise WireFormatError(
                f"backref {index} out of range ({len(reader.table)} interned)"
            ) from None
    if tag == _T_REQUEST_ROW:
        # ``unpack_from`` bounds itself: the reader ends where ``buf`` does.
        table = reader.table
        wide = len(table) > _NARROW_TABLE
        head = _REQUEST_ROW[wide]
        method, sender, target, payload_bytes, count = head.unpack_from(
            reader.buf, pos + 1
        )
        pos += 1 + head.size
        refs = struct.unpack_from(
            ("!%dI" if wide else "!%dH") % count, reader.buf, pos
        )
        reader.pos = pos + count * (4 if wide else 2)
        return Request(
            table[method], table[sender], table[target],
            payload_bytes=payload_bytes,
            refs=tuple(map(table.__getitem__, refs)),
            reply_to=_decode_value(reader),
        )
    if tag == _T_STR:
        value = reader.text()
        reader.table.append(value)
        return value
    if tag == _T_CLOCK:
        value = ActivityClock(reader.zigzag(), _decode_value(reader))
        reader.table.append(value)
        return value
    if tag == _T_REMOTE_REF:
        value = RemoteRef(_decode_value(reader), _decode_value(reader))
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
        return tuple(_decode_value(reader) for _ in range(count))
    if tag == _T_LIST:
        count = reader.varint()
        return [_decode_value(reader) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.varint()
        try:
            return {
                _decode_value(reader): _decode_value(reader)
                for _ in range(count)
            }
        except TypeError as exc:  # a corrupt key decoded to a list, dict...
            raise WireFormatError(f"corrupt dict key: {exc}") from None
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
        return ReplyAddress(
            _decode_value(reader), _decode_value(reader),
            reader.zigzag(),
        )
    # Composites: arguments evaluate left to right, in the encoder's order.
    decode = _decode_value
    if tag == _T_REQUEST:
        return Request(
            decode(reader), decode(reader), decode(reader),
            payload_bytes=reader.zigzag(),
            refs=decode(reader), data=decode(reader), reply_to=decode(reader),
        )
    if tag == _T_REPLY:
        return Reply(
            reader.zigzag(), decode(reader), payload_bytes=reader.zigzag(),
            refs=decode(reader), data=decode(reader),
        )
    if tag == _T_REG_LOOKUP:
        return RegistryLookup(decode(reader), decode(reader))
    if tag == _T_REG_REPLY:
        return RegistryReply(
            reader.zigzag(), decode(reader), decode(reader), decode(reader),
            decode(reader),
        )
    if tag == _T_REG_BIND:
        return RegistryBind(decode(reader), decode(reader), decode(reader))
    if tag == _T_REG_ACK:
        return RegistryAck(
            reader.zigzag(), decode(reader), decode(reader),
            reader.u8() != 0, decode(reader),
        )
    if tag == _T_REG_RENEW:
        return RegistryRenew(_decode_value(reader), _decode_value(reader))
    if tag == _T_REG_RENEW_ACK:
        return RegistryRenewAck(_decode_value(reader), _decode_value(reader))
    if tag == _T_REG_INVALIDATE:
        return RegistryInvalidate(_decode_value(reader))
    if tag == _T_REG_PUSH:
        return RegistryPush(_decode_value(reader))
    raise WireFormatError(f"unknown value tag 0x{tag:02X}")


def _decode_definitions(reader: _Reader) -> None:
    """Append the definition block at the cursor to the intern table
    (see :meth:`_Encoder._define_dgc`)."""
    counts = [reader.varint() for _ in range(5)]
    table = reader.table
    view = reader.buf
    if counts[0]:
        lengths = struct.unpack_from(
            "!%dH" % counts[0], view, reader._need(2 * counts[0])
        )
        text = reader.text()
        ends = list(accumulate(lengths))
        if ends[-1] != len(text):
            raise WireFormatError(f"string lengths {ends[-1]} != {len(text)}")
        table += [text[end - length:end] for length, end in zip(lengths, ends)]
    groups = list(zip(_DEFINITION_RECORDS, counts[1:]))
    size = 2 if len(table) + sum(counts[1:]) <= _NARROW_TABLE else 4
    # Bound the struct by the bytes left before its format is built.
    pos = reader._need(sum(
        (links * size + scalar_size) * count
        for (links, _, scalar_size), count in groups
    ))
    fields = struct.unpack_from("!" + "".join(
        f"{links * count}{'H' if size == 2 else 'I'}"
        + "".join(f"{count}{code}" for code in scalars)
        for (links, scalars, _), count in groups
    ), view, pos)
    rows = []
    start = 0
    for (links, scalars, _), count in groups:
        stop = start + links * count
        columns = [fields[start + k:stop:links] for k in range(links)]
        for _ in scalars:
            start, stop = stop, stop + count
            columns.append(fields[start:stop])
        rows.append(zip(*columns))
        start = stop
    clocks, refs, messages, responses = rows
    table += [ActivityClock(value, table[owner]) for owner, value in clocks]
    table += [RemoteRef(table[activity_id], table[node]) for activity_id, node in refs]
    table += [
        DgcMessage(table[sender], table[clock], consensus, table[ref], ttb)
        for sender, clock, ref, consensus, ttb in messages
    ]
    table += [
        DgcResponse(
            table[responder], table[clock], has_parent, reached,
            depth if has_depth else None,
        )
        for responder, clock, has_parent, reached, has_depth, depth in responses
    ]


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


class ChannelEncoder(_Encoder):
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
    one of :data:`~repro.net.kinds.ALL_KINDS`, never a site-pair
    aggregate marker.  ``channel`` persists the intern table across the
    frames of one ordered shard channel.
    """
    # The runs are transposed once, the run table and the index block
    # are one pack, and only the non-DGC runs are walked value by value.
    if channel is None:
        encoder = _Encoder()
    else:
        encoder = channel
        encoder.out = bytearray()  # fresh frame body, the table persists
    encoder.varint(encoder.count)
    kinds, deliveries, dests, items, payloads = zip(*runs) if runs else [()] * 5
    index = KIND_INDEX
    counts = [*map(len, items)]
    if 0 in counts or counts != [*map(len, payloads)]:
        for count, run_payloads in zip(counts, payloads):
            if count == 0 or count != len(run_payloads):
                raise WireFormatError(
                    f"run of {count} items and {len(run_payloads)} "
                    f"payloads: columns must be parallel and non-empty"
                )
    targets: list = []
    messages: list = []
    responses: list = []
    rows = 0
    for kind, dest, count, run_items, run_payloads in zip(
        kinds, dests, counts, items, payloads
    ):
        if kind not in index:
            raise WireFormatError(
                f"kind {kind!r} is not registered with the fabric"
            )
        if dest not in node_index:
            raise WireFormatError(
                f"destination node {dest!r} is not in the shared topology"
            )
        if kind == KIND_DGC_MESSAGE:
            targets += run_items
            messages += run_payloads
            rows += 1
        elif kind == KIND_DGC_RESPONSE:
            targets += run_items
            responses += run_payloads
            rows += 1
        else:
            rows += count
    try:
        try:
            block = encoder.dgc_indices(targets, messages, responses)
            encoder.out += b"\0"  # nothing to define
        except (KeyError, AttributeError):
            encoder._define_dgc(targets, messages, responses)
            block = encoder.dgc_indices(targets, messages, responses)
        n = len(counts)
        encoder.varint(n)
        encoder.out += struct.pack(
            f"!{n}B{n}H{n}I{n}d{len(block)}"
            f"{'I' if encoder.count > _NARROW_TABLE else 'H'}",
            *map(index.__getitem__, kinds), *map(node_index.__getitem__, dests),
            *counts, *deliveries, *block,
        )
        value = encoder.value
        for kind, run_items, run_payloads in zip(kinds, items, payloads):
            if kind != KIND_DGC_MESSAGE and kind != KIND_DGC_RESPONSE:
                for item, payload in zip(run_items, run_payloads):
                    value(item)
                    value(payload)
    except struct.error as exc:
        raise WireFormatError(f"field out of range for the wire: {exc}") from None
    return _HEADER.pack(
        FRAME_MAGIC, src_shard, seq, rows, min(deliveries) if rows else 0.0,
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
    reader = _Reader(memoryview(buf), _HEADER.size, len(buf))
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
    try:
        reader.pos += 1
        if view[reader.pos - 1]:  # the definition block's flag
            _decode_definitions(reader)
        n = reader.varint()
        head = struct.unpack_from(
            f"!{n}B{n}H{n}I{n}d", view, reader._need(15 * n)
        )
        counts = head[2 * n:3 * n]
        if n:
            if max(head[:n]) >= len(ALL_KINDS):
                raise WireFormatError(
                    f"kind index {max(head[:n])} out of range "
                    f"({len(ALL_KINDS)} kinds)"
                )
            if max(head[n:2 * n]) >= len(node_names):
                raise WireFormatError(
                    f"destination index {max(head[n:2 * n])} out of range "
                    f"({len(node_names)} nodes)"
                )
            if 0 in counts:
                raise WireFormatError("empty run")
        run_kinds = [*map(ALL_KINDS.__getitem__, head[:n])]
        dgc_runs = messages = responses = generic = 0
        for kind, length in zip(run_kinds, counts):
            if kind is KIND_DGC_MESSAGE:
                dgc_runs += 1
                messages += length
            elif kind is KIND_DGC_RESPONSE:
                dgc_runs += 1
                responses += length
            else:
                generic += length
        if dgc_runs + generic != count:
            raise WireFormatError(
                f"runs overflow the header's row count {count} (decoded "
                f"{dgc_runs + generic})"
            )
        dgc = messages + responses
        wide = len(table) > _NARROW_TABLE
        block = struct.unpack_from(
            ("!%dI" if wide else "!%dH") % (2 * dgc), view,
            reader._need((8 if wide else 4) * dgc),
        )
        values = [*map(table.__getitem__, block)]
        tagged = [_decode_value(reader) for _ in range(2 * generic)]
        # Cursors into the index block's three sections (targets, then
        # message payloads, then response payloads) and the tagged values.
        target = cursor = 0
        starts = {KIND_DGC_MESSAGE: dgc, KIND_DGC_RESPONSE: dgc + messages}
        runs: List[Run] = [None] * n  # type: ignore[list-item]
        for position, kind in enumerate(run_kinds):
            length = counts[position]
            if kind in starts:
                start = starts[kind]
                starts[kind] = start + length
                items = values[target:target + length]
                payloads = values[start:start + length]
                target += length
            else:
                stop = cursor + 2 * length
                items = tagged[cursor:stop:2]
                payloads = tagged[cursor + 1:stop:2]
                cursor = stop
            runs[position] = (
                kind, head[3 * n + position], node_names[head[n + position]],
                items, payloads,
            )
    except (struct.error, IndexError) as exc:
        raise WireFormatError(f"truncated or corrupt frame: {exc}") from None
    if reader.pos != reader.end:
        raise WireFormatError(
            f"frame has {reader.end - reader.pos} trailing bytes"
        )
    return Frame(src_shard, seq, runs)
