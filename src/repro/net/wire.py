"""Struct-packed cross-shard wire frames.

The sharded world (:mod:`repro.shard`) reuses the columnar pulse as the
*literal* wire frame between shard processes: a staged pulse entry —
delivery instant, destination node, traffic kind, item/payload columns —
is exactly what a remote shard needs to stage the delivery into its own
pulse, so the egress packs those fields and nothing else.  Frames are
pickle-free: a small tagged ``struct`` codec knows the closed set of
fabric message types (:mod:`repro.runtime.request`, DGC messages and
responses, refs, clocks) and the plain containers their fields use.
The shard protocol relies on two properties:

* **round-trip is bit-identical** — every field compares equal, and a
  *kind* comes back as the canonical interned constant of
  :mod:`repro.net.kinds` (the columnar fire loop dispatches on identity);
* **frames are self-delimiting and validated** — a truncated, corrupted
  or out-of-order frame raises :class:`WireFormatError`.

A frame is a header (magic ``0x5D5B``, the ``(src_shard, seq)`` stamp,
row count, earliest delivery) and a body of columns, so it costs a
handful of ``struct`` calls whatever its run count:

* ``varint ordinal`` and ``varint table_size`` — the frame's position on
  its channel and the encoder's intern-table size when it began the
  frame, both checked before anything else is read;
* the **definition block**: a zero byte if the DGC runs need nothing
  new; else a one byte, the counts of new strings, clocks, refs,
  messages and responses, and each new value *field-wise*, grouped in
  that order (a group refers only to earlier ones): strings as one
  column of lengths plus one UTF-8 text, the rest as one struct;
* the **run table**: ``varint n_runs``, then the kind, destination,
  count and delivery (IEEE bits) columns in one struct;
* the **index block**: every DGC run's targets, then every message, then
  every response payload, as table indices in one struct (two bytes each
  while the table fits); repeats restore *sharing* — a beat's one
  message fanned out over dozens of targets comes back as one object;
* the **values** of the other runs: ``(item, payload)`` pairs of tagged
  values — a tag byte and the fields, or ``_T_BACKREF`` into the table
  (strings, floats, clocks and refs intern in encode order; a reply
  address, unique per request, never does) — but a data-less
  ``Request`` whose strings and refs are in the table is one
  ``_T_REQUEST_ROW`` struct of indices.

Decode is zero-copy (one ``memoryview``, ``struct.unpack_from``,
``str(view, "utf-8")``).  The site-pair aggregate markers never ride a
frame: a DGC run travels under its base kind.

**Channel persistence.**  A :class:`ChannelEncoder` /
:class:`ChannelDecoder` pair — one direction of one (src, dst) shard
pair — carries the table *across* frames: a value defined in frame
``n`` is an index in frame ``n+k``.  That is sound because the
coordinator routes each channel's frames in order and the worker
decodes them in seq order, so the decode table replays the encoder's
registrations move for move.

* *The ordinal.*  The decoder accepts a frame only if it carries the
  last ordinal plus one, so every frame dropped, duplicated or
  reordered raises — one that defined nothing too, which the table-size
  check cannot see.  After any :class:`WireFormatError` the channel is
  desynced; the worker treats decode errors as fatal.
* *The bound.*  Every :data:`EPOCH_FRAMES`-th ordinal starts an empty
  table on both ends, derived from the checked ordinal, so nothing else
  rides the wire.  DGC messages are fixed-size and recur every TTB
  (paper Sec. 4.3), so the bound costs re-definitions, not growth with
  run length.  The decoder keeps the previous epoch's clocks and
  responses and hands the same objects back when they are re-defined:
  the protocol's identity-first compares keep their sharing.
* *Identity is trusted only within one frame.*  The table is keyed by
  *value* (a string itself, a composite by the tuple of its primitive
  fields: probes hash in C, equal-but-distinct objects share a slot);
  an object's ``id``, which a collected object's address could alias
  later, only dedupes the DGC section of the frame whose runs hold every
  object alive.

The DGC *protocol* message types stay in :mod:`repro.core.wire`; this
module owns only their transport encoding.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

import math
import struct
from dataclasses import fields
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
#: whose requests still carried a request id, ``0x5D5A`` the format
#: whose channel tables grew without bound and carried no ordinal.
FRAME_MAGIC = 0x5D5B

#: Every ``EPOCH_FRAMES``-th frame of a channel (ordinal 0, 32, 64, ...)
#: starts an empty intern table on both ends.  A power of two; 32 keeps
#: a long channel's frame bytes within 15 % of an unbounded table's.
EPOCH_FRAMES = 32

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
_T_FLOAT = 0x05
_T_STR = 0x06
_T_TUPLE = 0x08
_T_LIST = 0x09
# 0x04, 0x07 and 0x0A (ints wider than int64, bytes, dicts) are retired:
# no fabric field carries one, so the encoder refuses them and the
# decoder raises on their tags.
#: A varint index into the frame's intern table.
_T_BACKREF = 0x0B
_T_CLOCK = 0x10
_T_REMOTE_REF = 0x11
_T_REPLY_ADDRESS = 0x12
_T_REQUEST = 0x13
_T_REPLY = 0x14
_T_DGC_MESSAGE = 0x15
_T_DGC_RESPONSE = 0x16
#: A ``Request`` as one struct of table indices (``_Encoder.value``).
_T_REQUEST_ROW = 0x1F

#: Registry message class -> (tag 0x17-0x1E, field names): the fields,
#: in dataclass order, ride as tagged values after the tag.
_REGISTRY_MESSAGES = {
    cls: (tag, tuple(field.name for field in fields(cls)))
    for tag, cls in enumerate((
        RegistryLookup, RegistryReply, RegistryBind, RegistryAck,
        RegistryRenew, RegistryRenewAck, RegistryInvalidate, RegistryPush,
    ), 0x17)
}
_REGISTRY_TAGS = {tag: (cls, names) for cls, (tag, names) in _REGISTRY_MESSAGES.items()}

_STR_TYPE = {str}
_NONE = bytes((_T_NONE,))

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


#: Kind -> wire index: the kind's position in
#: :data:`~repro.net.kinds.ALL_KINDS`, which both sides of a pipe share.
#: The site-pair aggregate markers have no index — a DGC run rides the
#: wire under its base kind.
KIND_INDEX: Dict[str, int] = {
    kind: position for position, kind in enumerate(ALL_KINDS)
}


#: Which payload classes each kind puts on the wire (a registry reply
#: doubles as the bind ack; renew carries the batch and its ack); tier-1
#: tests keep it total over the kinds and round-trip every class.
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
#: Each one-byte varint, a backref to each of the first 128 entries, and
#: the struct of one to the next 16 256, so the encoder emits them with
#: no ``append`` call: every epoch re-defines what it uses, and without
#: these (and the ``None`` shortcuts) ``sharded2`` made more calls per op
#: than the unbounded tables did.
_BYTES = [bytes((value,)) for value in range(0x80)]
_SHORT_BACKREFS = [bytes((_T_BACKREF, index)) for index in range(0x80)]
_BACKREF_2 = struct.Struct("!3B")
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

    __slots__ = ("out", "memo", "count", "ordinal")

    def __init__(self) -> None:
        self.out = bytearray()
        self.memo: Dict[object, int] = {}
        self.count = 0
        #: The next frame's channel ordinal (a one-frame encoder's is 0).
        self.ordinal = 0

    def varint(self, value: int) -> None:
        if value < 0x80:
            self.out += _BYTES[value]
            return
        out = self.out
        while value >= 0x80:
            out.append((value & 0x7F) | 0x80)
            value >>= 7
        out.append(value)

    def zigzag(self, value: int) -> None:
        value = (value << 1) ^ (value >> 63)
        if value < 0x80:
            self.out += _BYTES[value]
        else:
            self.varint(value)

    def _intern(self, key) -> bool:
        """Emit a backref if ``key`` is already in the table (True);
        otherwise return False — the caller encodes the value and then
        calls :meth:`_register`."""
        try:
            index = self.memo[key]
        except KeyError:
            return False
        if index < 0x80:
            self.out += _SHORT_BACKREFS[index]
        elif index < 0x4000:
            self.out += _BACKREF_2.pack(
                _T_BACKREF, (index & 0x7F) | 0x80, index >> 7
            )
        else:
            self.out.append(_T_BACKREF)
            self.varint(index)
        return True

    def _register(self, key) -> None:
        self.memo[key] = self.count
        self.count += 1

    def dgc_block(self, targets: list, messages: list, responses: list) -> list:
        """Write the DGC runs' definition block; return their index block
        (``targets``, ``messages``, then ``responses`` as table indices).

        One pass: each distinct message or response *object* is keyed
        once, found by ``id`` — sound only inside this frame, whose runs
        hold every object alive — and only what the table lacks is
        defined (:meth:`_define`), in sight order."""
        memo = self.memo
        # Every target by exact type, before any is hashed: a table slot
        # may hold an equal float (``17 == 17.0``), and a non-string
        # must raise even when the table already "has" it.
        if not {*map(type, targets)} <= _STR_TYPE:
            raise _cannot_encode(
                next(t for t in targets if type(t) is not str), "as a DGC target"
            )
        strings = dict.fromkeys(targets)
        # Per group, key -> record: its table links (keys), then scalars.
        clocks, refs, new_messages, new_responses = {}, {}, {}, {}
        message_ids = [*map(id, messages)]
        message_keys = dict(zip(message_ids, messages))
        for oid, value in message_keys.items():
            if type(value) is not DgcMessage:
                raise _cannot_encode(value, "in a dgc.message run")
            clock = value.clock
            ref = value.sender_ref
            # ``-0.0 == 0.0`` and they hash alike: a zero declared TTB
            # keys by its repr so the two never share a slot.
            key = message_keys[oid] = (
                _T_DGC_MESSAGE, value.sender, clock.value, clock.owner,
                value.consensus, ref.activity_id, ref.node,
                value.sender_ttb or f"{value.sender_ttb!r}",
            )
            if key not in memo and key not in new_messages:
                clock_key = (_T_CLOCK, clock.value, clock.owner)
                ref_key = (_T_REMOTE_REF, ref.activity_id, ref.node)
                strings[value.sender] = strings[clock.owner] = None
                strings[ref.activity_id] = strings[ref.node] = None
                clocks[clock_key] = (clock.owner, clock.value)
                refs[ref_key] = (ref.activity_id, ref.node)
                new_messages[key] = (
                    value.sender, clock_key, ref_key, value.consensus,
                    value.sender_ttb,
                )
        response_ids = [*map(id, responses)]
        response_keys = dict(zip(response_ids, responses))
        for oid, value in response_keys.items():
            if type(value) is not DgcResponse:
                raise _cannot_encode(value, "in a dgc.response run")
            clock = value.clock
            key = response_keys[oid] = (
                _T_DGC_RESPONSE, value.responder, clock.value, clock.owner,
                value.has_parent, value.consensus_reached, value.depth,
            )
            if key not in memo and key not in new_responses:
                clock_key = (_T_CLOCK, clock.value, clock.owner)
                strings[value.responder] = strings[clock.owner] = None
                clocks[clock_key] = (clock.owner, clock.value)
                new_responses[key] = (
                    value.responder, clock_key, value.has_parent,
                    value.consensus_reached, value.depth is not None,
                    value.depth or 0,
                )
        if new_messages or new_responses or not strings.keys() <= memo.keys():
            # Every field too, also one an equal table slot would absorb.
            if not {*map(type, strings)} <= _STR_TYPE:
                raise _cannot_encode(
                    next(t for t in strings if type(t) is not str), "in a DGC field"
                )
            self._define(
                [text for text in strings if text not in memo],
                [{key: record for key, record in group.items() if key not in memo}
                 for group in (clocks, refs)] + [new_messages, new_responses],
            )
        else:
            self.out.append(0)  # nothing to define
        for keys in (message_keys, response_keys):
            for oid, key in keys.items():
                keys[oid] = memo[key]
        block = [*map(memo.__getitem__, targets)]
        block += map(message_keys.__getitem__, message_ids)
        block += map(response_keys.__getitem__, response_ids)
        return block

    def _define(self, texts: list, groups: list) -> None:
        """Register and write a definition block: ``texts``, then the
        clock, ref, message and response ``groups``."""
        memo = self.memo
        out = self.out
        out.append(1)
        count = self.count
        sizes = [*map(len, (texts, *groups))]
        for group, size in zip((texts, *groups), sizes):
            self.varint(size)
            for key in group:
                memo[key] = count
                count += 1
        self.count = count
        if texts:
            raw = "".join(texts).encode("utf-8")
            out += struct.pack("!%dH" % sizes[0], *map(len, texts))
            self.varint(len(raw))
            out += raw
        w = "H" if count <= _NARROW_TABLE else "I"
        layout = "!"
        fields: list = []
        for group, size, (links, scalars, _) in zip(
            groups, sizes[1:], _DEFINITION_RECORDS
        ):
            # Links, then a column per scalar: counted codes compile small.
            layout += f"{links * size}{w}"
            records = [*group.values()]
            for record in records:
                fields += map(memo.__getitem__, record[:links])
            for position, code in enumerate(scalars, links):
                layout += f"{size}{code}"
                fields += [record[position] for record in records]
        out += struct.pack(layout, *fields)

    def value(self, value) -> None:
        # The dispatch chain is frequency-ordered for the generic lane's
        # traffic mix — activity-id strings first, then the interned
        # composites — because every app/registry field funnels through
        # here.  DGC messages and responses never do: they are defined
        # field-wise by :meth:`dgc_block`.
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
            out += _NONE
        elif cls is bool:
            out.append(_T_TRUE if value else _T_FALSE)
        elif cls is int:
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise WireFormatError(
                    f"cannot encode int {value} on the shard wire: "
                    f"outside int64"
                )
            out.append(_T_INT)
            self.zigzag(value)
        elif cls is float:
            key = _float_key(value)
            if self._intern(key):
                return
            out.append(_T_FLOAT)
            out += _F64.pack(value)
            self._register(key)
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
                    ] if value.refs else ()
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
        elif cls in _REGISTRY_MESSAGES:
            tag, names = _REGISTRY_MESSAGES[cls]
            out.append(tag)
            for name in names:
                self.value(getattr(value, name))
        else:
            raise _cannot_encode(value, "on the shard wire")


# ----------------------------------------------------------------------
# Value decoding
# ----------------------------------------------------------------------


class _Reader:
    """Bounds-checked zero-copy cursor over one frame; ``table`` is the
    decode-side intern table, grown in the encoder's registration order."""

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
        ) if count else ()
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
        return tuple([_decode_value(reader) for _ in range(count)])
    if tag == _T_LIST:
        count = reader.varint()
        return [_decode_value(reader) for _ in range(count)]
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
    if tag in _REGISTRY_TAGS:
        cls, names = _REGISTRY_TAGS[tag]
        return cls(*[decode(reader) for _ in names])
    raise WireFormatError(f"unknown value tag 0x{tag:02X}")


def _by_value(table: list) -> dict:
    """The clocks and DGC responses of a finished epoch's table, by value."""
    return {
        (o.value, o.owner) if type(o) is ActivityClock else (
            o.responder, o.clock.value, o.clock.owner, o.has_parent,
            o.consensus_reached, o.depth): o
        for o in table if type(o) is ActivityClock or type(o) is DgcResponse
    }


def _decode_definitions(reader: _Reader, kept: dict) -> None:
    """Append the definition block at the cursor to the intern table
    (see :meth:`_Encoder._define`).  A clock or response the channel's
    previous epoch defined (``kept``, by value) comes back as *that*
    object, so sharing survives a table reset."""
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
    keys = [(value, table[owner]) for owner, value in clocks]
    table += [kept[key] if key in kept else ActivityClock(*key) for key in keys]
    table += [RemoteRef(table[activity_id], table[node]) for activity_id, node in refs]
    table += [
        DgcMessage(table[sender], table[clock], consensus, table[ref], ttb)
        for sender, clock, ref, consensus, ttb in messages
    ]
    args = [(table[r], table[c], p, a, d if h else None)
            for r, c, p, a, h, d in responses]
    keys = [(r, c.value, c.owner, p, a, d) for r, c, p, a, d in args]
    table += [kept[k] if k in kept else DgcResponse(*x) for k, x in zip(keys, args)]


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
        return f"Frame(shard={self.src_shard}, seq={self.seq}, runs={len(self.runs)})"


class ChannelEncoder(_Encoder):
    """Persistent encode state for one ordered (src, dst) frame stream:
    pass it to every :func:`pack_frame` call on the channel and recurring
    ids, clocks and messages ride as indices within an epoch.  The peer
    decodes with a matching :class:`ChannelDecoder`, in pack order."""

    __slots__ = ()


class ChannelDecoder:
    """Decode half of a persistent channel: the intern table, grown in
    the paired :class:`ChannelEncoder`'s registration order, the last
    frame ordinal decoded (the next frame must carry it plus one) and the
    last ``seq`` (ascending).  Discard after any decode error — the table
    is desynced."""

    __slots__ = ("table", "last_seq", "ordinal", "kept")

    def __init__(self) -> None:
        self.table: List[object] = []
        self.last_seq = -1
        self.ordinal = -1
        #: The previous epoch's clocks and responses by value
        #: (:func:`_decode_definitions`).
        self.kept: Dict[tuple, object] = {}


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
    frames of one ordered shard channel.  The runs are transposed once,
    the run table and the index block are one pack, and only the non-DGC
    runs are walked value by value.
    """
    if channel is None:
        encoder = _Encoder()
    else:
        encoder = channel
        encoder.out = bytearray()  # fresh frame body, the table persists
        if not encoder.ordinal % EPOCH_FRAMES:
            encoder.memo = {}  # an epoch starts: the peer empties its table too
            encoder.count = 0
    encoder.varint(encoder.ordinal)
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
        block = encoder.dgc_block(targets, messages, responses)
        n = len(counts)
        encoder.varint(n)
        encoder.out += struct.pack(
            f"!{n}B{n}H{n}I{n}d{len(block)}"
            f"{'I' if encoder.count > _NARROW_TABLE else 'H'}",
            *map(index.__getitem__, kinds), *map(node_index.__getitem__, dests),
            *counts, *deliveries, *block,
        )
        value = encoder.value
        out = encoder.out
        for kind, run_items, run_payloads in zip(kinds, items, payloads):
            if kind != KIND_DGC_MESSAGE and kind != KIND_DGC_RESPONSE:
                for item, payload in zip(run_items, run_payloads):
                    value(item)
                    if payload is None:  # every generic kind's payload today
                        out += _NONE
                    else:
                        value(payload)
    except struct.error as exc:
        raise WireFormatError(f"field out of range for the wire: {exc}") from None
    encoder.ordinal += 1
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
    ordinal = reader.varint()
    if channel is not None and seq <= channel.last_seq:
        raise WireFormatError(
            f"frame (shard {src_shard}, seq {seq}) arrived after seq "
            f"{channel.last_seq} on the same channel: duplicated or reordered"
        )
    expected = 0 if channel is None else channel.ordinal + 1
    if ordinal != expected:
        raise WireFormatError(
            f"channel ordinal out of step at frame (shard {src_shard}, seq "
            f"{seq}): it carries ordinal {ordinal}, this decoder expects "
            f"ordinal {expected} — a frame was dropped, duplicated or "
            f"reordered on the channel"
        )
    kept: dict = {}
    if channel is not None:
        channel.last_seq, channel.ordinal = seq, ordinal
        if not ordinal % EPOCH_FRAMES:  # the encoder emptied its table too
            channel.table, channel.kept = [], _by_value(channel.table)
        reader.table, kept = channel.table, channel.kept
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
            _decode_definitions(reader, kept)
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
