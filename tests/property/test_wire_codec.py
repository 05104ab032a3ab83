"""The shard wire codec round-trips staged runs bit-identically.

The cross-shard frame is the columnar pulse made literal: the runs the
egress stages — ``(kind, delivery, dest, items, payloads)`` — must come
back from ``unpack_frame(pack_frame(...))`` field-for-field equal, for
every traffic family the fabric routes: app requests/replies, registry
messages, and the DGC runs whose flat target/message columns ride a
schema-specialised column block.  Kinds must come back as the
*canonical interned constants* (the columnar fire loop dispatches on
kind identity).  Truncated or corrupted buffers must raise
:class:`WireFormatError`, never return garbage.

The format's own paths — varints, the intern table and its backrefs,
definitions, column blocks, the frame-ordinal, table-size and sequence
checks of a persistent channel and its bounded epochs — have targeted
coverage.

The frame keeps the runs it is given, in order.  The grouping itself
happens where the sends are staged (``Network``'s shard egress): sends
sharing ``(kind, delivery instant, destination)`` share one run, runs
appear in first-send order, and items keep send order within a run.
:func:`v2_normalized` is the reference model of that staging, and the
suite checks that whatever it produces survives the wire unchanged.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ActivityClock
from repro.core.wire import DgcMessage, DgcResponse
from repro.net import kinds
from repro.net.wire import (
    EPOCH_FRAMES,
    ChannelDecoder,
    ChannelEncoder,
    Frame,
    KIND_INDEX,
    KIND_PAYLOAD_TYPES,
    WireFormatError,
    frame_stamp,
    pack_frame,
    unpack_frame,
)
from repro.runtime.proxy import RemoteRef
from repro.runtime.request import (
    RegistryAck,
    RegistryBind,
    RegistryInvalidate,
    RegistryLookup,
    RegistryPush,
    RegistryRenew,
    RegistryRenewAck,
    RegistryReply,
    Reply,
    ReplyAddress,
    Request,
)

NODES = tuple(f"site-{index}" for index in range(6))
NODE_INDEX = {name: position for position, name in enumerate(NODES)}

AGG_DGC_MESSAGE = kinds.AGGREGATE_KINDS[kinds.KIND_DGC_MESSAGE]
DGC_KINDS = (kinds.KIND_DGC_MESSAGE, kinds.KIND_DGC_RESPONSE)


# ----------------------------------------------------------------------
# Strategies: one per fabric message family
# ----------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=999999).map(
    lambda n: f"ao-{n:08d}:slave{n % 97}"
)
node_names = st.sampled_from(NODES)
clocks = st.builds(
    ActivityClock, st.integers(min_value=0, max_value=1 << 40), ids
)
remote_refs = st.builds(RemoteRef, ids, node_names)
reply_addresses = st.builds(
    ReplyAddress, node_names, ids, st.integers(min_value=1, max_value=1 << 50)
)
plain_data = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        st.floats(allow_nan=False),
        st.text(max_size=12),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=8,
)

requests = st.builds(
    Request,
    method=st.sampled_from(["do_hold", "do_run", "do_ping"]),
    sender=ids,
    target=ids,
    payload_bytes=st.integers(min_value=0, max_value=1 << 20),
    refs=st.lists(remote_refs, max_size=5).map(tuple),
    data=plain_data,
    reply_to=st.one_of(st.none(), reply_addresses),
)
replies = st.builds(
    Reply,
    future_id=st.integers(min_value=1, max_value=1 << 40),
    target_activity=ids,
    payload_bytes=st.integers(min_value=0, max_value=1 << 20),
    refs=st.lists(remote_refs, max_size=5).map(tuple),
    data=plain_data,
)
dgc_messages = st.builds(
    DgcMessage,
    sender=ids,
    clock=clocks,
    consensus=st.booleans(),
    sender_ref=remote_refs,
    sender_ttb=st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)
dgc_responses = st.builds(
    DgcResponse,
    responder=ids,
    clock=clocks,
    has_parent=st.booleans(),
    consensus_reached=st.booleans(),
    depth=st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
)
registry_items = st.one_of(
    st.builds(
        RegistryLookup,
        name=st.text(max_size=16),
        reply_to=st.one_of(st.none(), reply_addresses),
    ),
    st.builds(
        RegistryReply,
        future_id=st.integers(min_value=1, max_value=1 << 40),
        target_activity=ids,
        name=st.text(max_size=16),
        ref=st.one_of(st.none(), remote_refs),
        lease_s=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    st.builds(
        RegistryBind,
        name=st.text(max_size=16),
        ref=st.one_of(st.none(), remote_refs),
        reply_to=st.one_of(st.none(), reply_addresses),
    ),
    st.builds(
        RegistryAck,
        future_id=st.integers(min_value=1, max_value=1 << 40),
        target_activity=ids,
        name=st.text(max_size=16),
        ok=st.booleans(),
        error=st.text(max_size=24),
    ),
    st.builds(
        RegistryRenew,
        node=node_names,
        names=st.lists(st.text(max_size=10), max_size=5),
    ),
    st.builds(
        RegistryRenewAck,
        names=st.lists(st.text(max_size=10), max_size=5),
        lease_s=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    ),
    st.builds(
        RegistryInvalidate,
        names=st.lists(st.text(max_size=10), max_size=5),
    ),
    st.builds(
        RegistryPush,
        bindings=st.lists(
            st.tuples(st.text(max_size=10), remote_refs), max_size=5
        ).map(tuple),
    ),
)

deliveries = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def columns_for(kind):
    """``(item, payload)`` strategies matching ``kind``'s column shape."""
    if kind is kinds.KIND_DGC_MESSAGE:
        return ids, dgc_messages
    if kind is kinds.KIND_DGC_RESPONSE:
        return ids, dgc_responses
    if kind is kinds.KIND_APP_REQUEST:
        return requests, st.none()
    if kind is kinds.KIND_APP_REPLY:
        return replies, st.none()
    return registry_items, st.none()


def entry_for(kind):
    """One staged send: ``(delivery, dest, kind, item, payload)``."""
    item, payload = columns_for(kind)
    return st.tuples(deliveries, node_names, st.just(kind), item, payload)


def run_for(kind):
    """One staged run with parallel, non-empty columns."""
    item, payload = columns_for(kind)
    pairs = st.lists(st.tuples(item, payload), min_size=1, max_size=6)
    return st.builds(
        lambda delivery, dest, pairs: (
            kind, delivery, dest,
            [pair[0] for pair in pairs], [pair[1] for pair in pairs],
        ),
        deliveries, node_names, pairs,
    )


staged_entries = st.one_of([entry_for(kind) for kind in kinds.ALL_KINDS])
staged_batches = st.lists(staged_entries, max_size=12)
staged_runs = st.lists(
    st.one_of([run_for(kind) for kind in kinds.ALL_KINDS]), max_size=8
)
stamps = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=1 << 30),
)


# ----------------------------------------------------------------------
# Round-trip
# ----------------------------------------------------------------------


def _delivery_bits(delivery: float) -> bytes:
    return struct.pack("!d", delivery)


def v2_normalized(entries):
    """The egress staging, modelled independently of the fabric: group
    sends by (kind, delivery IEEE bits, dest) in first-occurrence order,
    items keeping send order within a run."""
    groups = {}
    for delivery, dest, kind, item, payload in entries:
        delivery = float(delivery)
        run = groups.setdefault(
            (kind, _delivery_bits(delivery), dest),
            (kind, delivery, dest, [], []),
        )
        run[3].append(item)
        run[4].append(payload)
    return list(groups.values())


def flattened(runs):
    """The message sequence a list of runs delivers."""
    return [
        (kind, _delivery_bits(delivery), dest, item, payload)
        for kind, delivery, dest, items, payloads in runs
        for item, payload in zip(items, payloads)
    ]


def wire_rows(runs):
    """Pulse entries the receiver stages: one per DGC run, one per item
    of any other run."""
    return sum(1 if run[0] in DGC_KINDS else len(run[3]) for run in runs)


def frame_rows(buf):
    return struct.unpack_from("!I", buf, 8)[0]  # the header's count field


def assert_same_runs(decoded, expected):
    assert decoded == expected
    for left, right in zip(decoded, expected):
        # Bit identity for the delivery instant (== conflates ±0.0).
        assert _delivery_bits(left[1]) == _delivery_bits(float(right[1]))
        # Kind identity, not just equality: the columnar fire loop
        # dispatches with ``is`` against the canonical constants.
        assert left[0] is right[0]


@settings(max_examples=200, deadline=None)
@given(runs=staged_runs, stamp=stamps)
def test_roundtrip_bit_identical(runs, stamp):
    shard, seq = stamp
    buf = pack_frame(shard, seq, runs, NODE_INDEX)
    assert frame_stamp(buf) == stamp
    assert frame_rows(buf) == wire_rows(runs)
    frame = unpack_frame(buf, NODES)
    assert isinstance(frame, Frame)
    assert frame.src_shard == shard
    assert frame.seq == seq
    assert_same_runs(frame.runs, runs)


@settings(max_examples=200, deadline=None)
@given(batch=staged_batches, stamp=stamps)
def test_staged_sends_survive_the_wire_as_the_model_groups_them(batch, stamp):
    """``v2_normalized`` models the egress staging; the frame returns
    exactly the runs it produces — same grouping, same order."""
    runs = v2_normalized(batch)
    assert sorted(map(repr, flattened(runs))) == sorted(
        repr((kind, _delivery_bits(float(delivery)), dest, item, payload))
        for delivery, dest, kind, item, payload in batch
    )
    frame = unpack_frame(
        pack_frame(stamp[0], stamp[1], runs, NODE_INDEX), NODES
    )
    assert_same_runs(frame.runs, runs)


@settings(max_examples=100, deadline=None)
@given(runs=staged_runs, stamp=stamps)
def test_truncation_always_raises(runs, stamp):
    buf = pack_frame(stamp[0], stamp[1], runs, NODE_INDEX)
    for cut in range(0, len(buf), max(1, len(buf) // 17)):
        with pytest.raises(WireFormatError):
            unpack_frame(buf[:cut], NODES)


@settings(max_examples=100, deadline=None)
@given(runs=staged_runs, data=st.data())
def test_v2_corruption_never_escapes_as_another_exception(runs, data):
    """A flipped byte either still decodes or raises WireFormatError —
    never an IndexError, struct.error or the like."""
    buf = bytearray(pack_frame(0, 0, runs, NODE_INDEX))
    position = data.draw(st.integers(min_value=2, max_value=len(buf) - 1))
    buf[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        unpack_frame(bytes(buf), NODES)
    except WireFormatError:
        pass


def test_every_kind_has_a_column_shape():
    """The strategy table covers every registered kind — a kind added
    without extending the codec test fails here, not silently."""
    covered = set(DGC_KINDS) | {kinds.KIND_APP_REQUEST, kinds.KIND_APP_REPLY}
    for kind in kinds.ALL_KINDS:
        assert kind in covered or kind.startswith("registry."), kind


_REF = RemoteRef("ao-00000007:svc", NODES[2])
_REPLY_TO = ReplyAddress(NODES[3], "ao-00000009:caller", 41)
_CLOCK = ActivityClock(5, "ao-00000009:caller")

#: One hand-built value of every payload class the codec carries, every
#: optional field set, so a missing or lossy branch shows.
PAYLOAD_SAMPLES = {
    DgcMessage: DgcMessage("ao-00000009:caller", _CLOCK, True, _REF, 2.5),
    DgcResponse: DgcResponse("ao-00000007:svc", _CLOCK, True, True, 3),
    Request: Request(
        "do_run", "ao-00000009:caller", "ao-00000007:svc", 512, (_REF,),
        ("k", [1, -2.5, "v", True, None]), _REPLY_TO,
    ),
    Reply: Reply(41, "ao-00000009:caller", 64, (_REF,), ("done", 3)),
    RegistryLookup: RegistryLookup("svc", _REPLY_TO),
    RegistryReply: RegistryReply(41, "ao-00000009:caller", "svc", _REF, 30.0),
    RegistryAck: RegistryAck(41, "ao-00000009:caller", "svc", False, "taken"),
    RegistryBind: RegistryBind("svc", _REF, _REPLY_TO),
    RegistryInvalidate: RegistryInvalidate(("svc", "db")),
    RegistryRenew: RegistryRenew(NODES[1], ("svc", "db")),
    RegistryRenewAck: RegistryRenewAck(("svc",), 45.0),
    RegistryPush: RegistryPush((("svc", _REF), ("db", _REF))),
}


def _fields(value):
    return [
        (field.name, getattr(value, field.name))
        for field in dataclasses.fields(value)
    ]


def _sample_runs():
    """One single-item run per ``(kind, payload class)`` pair of
    ``KIND_PAYLOAD_TYPES``: a DGC class rides the payload column beside
    its target id, every other class the item column."""
    runs = []
    for kind, classes in KIND_PAYLOAD_TYPES.items():
        for cls in classes:
            sample = PAYLOAD_SAMPLES[cls]
            if kind in DGC_KINDS:
                item, payload = "ao-00000007:svc", sample
            else:
                item, payload = sample, None
            runs.append((kind, 2.5, NODES[1], [item], [payload]))
    return runs


@pytest.mark.parametrize("persistent", [False, True], ids=["frame", "channel"])
def test_every_payload_class_roundtrips_under_its_kind(persistent):
    """The codec carries every class ``KIND_PAYLOAD_TYPES`` names for a
    kind, each field equal after the trip — per frame, and on a
    persistent channel twice over (the second frame reads the values
    the first one interned)."""
    runs = _sample_runs()
    assert len(runs) == sum(map(len, KIND_PAYLOAD_TYPES.values()))
    encoder, decoder = (
        (ChannelEncoder(), ChannelDecoder()) if persistent else (None, None)
    )
    for seq in range(1 + persistent):
        buf = pack_frame(0, seq, runs, NODE_INDEX, channel=encoder)
        decoded = unpack_frame(buf, NODES, channel=decoder).runs
        assert len(decoded) == len(runs)
        for got, sent in zip(decoded, runs):
            assert got[0] is sent[0]
            pairs = zip(got[3] + got[4], sent[3] + sent[4])
            for got_value, sent_value in pairs:
                assert type(got_value) is type(sent_value), sent[0]
                if dataclasses.is_dataclass(sent_value):
                    assert _fields(got_value) == _fields(sent_value), sent[0]
                else:
                    assert got_value == sent_value, sent[0]


def test_bad_magic_rejected():
    buf = pack_frame(1, 7, [], NODE_INDEX)
    assert buf[:2] == b"\x5d\x5b"
    # A foreign stream, and the retired entry-at-a-time, record-per-run,
    # request-id-carrying and unbounded-table formats' magics.
    for magic in (b"\x00\x00", b"\x5d\x57", b"\x5d\x58", b"\x5d\x59", b"\x5d\x5a"):
        with pytest.raises(WireFormatError, match="magic"):
            unpack_frame(magic + buf[2:], NODES)


def _request_run(target="ao-2:b", count=1):
    return (
        kinds.KIND_APP_REQUEST, 1.0, NODES[0],
        [Request("do_ping", "ao-1:a", target) for _ in range(count)],
        [None] * count,
    )


# ----------------------------------------------------------------------
# Format-specific paths: varints, intern table, run heads
# ----------------------------------------------------------------------

_BODY = 20  # the !HHIId header; the body opens with the frame ordinal
# Then the table size, the definition block's flag byte and the run
# count; one run's row of the run table: u8 kind, u16 dest, u32 count,
# f64 delivery.
_RUN = _BODY + 4
_VALUES = _RUN + 15


def _v2_single_run_frame(count=1):
    """A one-run frame from a fresh encoder: the ordinal and table-size
    varints, the definition flag and the run count are one byte each, so
    the run's row of the run table and the first value tag sit at known
    offsets for surgical corruption."""
    buf = pack_frame(0, 0, [_request_run(count=count)], NODE_INDEX)
    assert buf[_BODY] == 0  # a channel's first frame
    assert buf[_BODY + 1] == 0  # empty intern table
    assert buf[_BODY + 2] == 0  # nothing defined
    assert buf[_BODY + 3] == 1  # one run
    assert buf[_RUN] == KIND_INDEX[kinds.KIND_APP_REQUEST]
    assert struct.unpack_from("!I", buf, _RUN + 3) == (count,)
    return buf


def _patched(buf, offset, replacement):
    return buf[:offset] + replacement + buf[offset + len(replacement):]


def test_v2_unknown_tag_rejected():
    corrupt = _patched(_v2_single_run_frame(), _VALUES, b"\xfe")
    with pytest.raises(WireFormatError, match="tag"):
        unpack_frame(corrupt, NODES)


def test_v2_backref_out_of_range_rejected():
    # A backref into the still-empty intern table where the request was.
    corrupt = _patched(_v2_single_run_frame(), _VALUES, b"\x0b\x05")
    with pytest.raises(WireFormatError, match="backref"):
        unpack_frame(corrupt, NODES)


@pytest.mark.parametrize(
    "data, tag",
    [({"k": 1}, 0x0A), (b"raw", 0x07), (1 << 63, 0x04), (-(1 << 63) - 1, 0x04)],
    ids=["dict", "bytes", "int-above-int64", "int-below-int64"],
)
def test_retired_value_tags_rejected(data, tag):
    """No fabric field carries a dict, bytes or an int wider than int64:
    the encoder refuses each, and a frame carrying the retired tag does
    not decode."""
    run = _request_run()
    run[3][0].data = data
    with pytest.raises(WireFormatError, match="cannot encode"):
        pack_frame(0, 0, [run], NODE_INDEX)
    corrupt = _patched(_v2_single_run_frame(), _VALUES, bytes((tag,)))
    with pytest.raises(WireFormatError, match=f"unknown value tag 0x{tag:02X}"):
        unpack_frame(corrupt, NODES)


def test_v2_empty_run_rejected():
    corrupt = _patched(_v2_single_run_frame(), _RUN + 3, b"\0\0\0\0")
    with pytest.raises(WireFormatError, match="empty run"):
        unpack_frame(corrupt, NODES)


def test_v2_run_overflowing_row_count_rejected():
    # The header announces one row, the run carries two.
    corrupt = _patched(
        _v2_single_run_frame(count=2), 8, struct.pack("!I", 1)
    )
    with pytest.raises(WireFormatError, match="overflow"):
        unpack_frame(corrupt, NODES)


def test_v2_overlong_varint_rejected():
    buf = _v2_single_run_frame()
    # An 11-byte all-continuation varint where the ordinal belongs.
    corrupt = buf[:_BODY] + b"\x80" * 10 + b"\x01" + buf[_BODY + 1:]
    with pytest.raises(WireFormatError, match="varint"):
        unpack_frame(corrupt, NODES)


def test_v2_bad_kind_index_rejected():
    corrupt = _patched(_v2_single_run_frame(), _RUN, b"\x7f")
    with pytest.raises(WireFormatError, match="kind index"):
        unpack_frame(corrupt, NODES)


def test_v2_bad_destination_index_rejected():
    corrupt = _patched(_v2_single_run_frame(), _RUN + 1, b"\xff\xfe")
    with pytest.raises(WireFormatError, match="destination index"):
        unpack_frame(corrupt, NODES)


def test_v2_aggregate_markers_never_ride_the_wire():
    """A DGC run is encoded under its base kind whatever its length:
    the in-memory aggregate markers have no wire index, so they are
    rejected on both sides."""
    run = (AGG_DGC_MESSAGE, 1.0, NODES[0], ["ao-1:a"], [_message(1)])
    with pytest.raises(WireFormatError, match="not registered"):
        pack_frame(0, 0, [run], NODE_INDEX)
    # The first index past the kinds.
    corrupt = _patched(
        _v2_single_run_frame(), _RUN, bytes([len(kinds.ALL_KINDS)]),
    )
    with pytest.raises(WireFormatError, match="kind index"):
        unpack_frame(corrupt, NODES)


# ----------------------------------------------------------------------
# The DGC column block
# ----------------------------------------------------------------------


def _message(n, *, consensus=True, ttb=5.0):
    sender = f"ao-{n:08d}:slave{n}"
    return DgcMessage(
        sender=sender,
        clock=ActivityClock(3, sender),
        consensus=consensus,
        sender_ref=RemoteRef(sender, NODES[n % len(NODES)]),
        sender_ttb=ttb,
    )


def _message_run(targets, messages, dest=NODES[0], delivery=7.5):
    return (kinds.KIND_DGC_MESSAGE, delivery, dest, targets, messages)


def test_v2_same_object_repeats_decode_to_one_shared_object():
    """A beat's one DgcMessage fanned out across a run's targets decodes
    back to *one* shared object — the in-process sharing the fan-out had
    before it crossed the wire."""
    message = _message(1)
    targets = [f"ao-{n:08d}:slave{n}" for n in range(8)]
    runs = [
        _message_run(list(targets), [message] * 8, dest=NODES[0]),
        _message_run(list(targets), [message] * 8, dest=NODES[2]),
    ]
    frame = unpack_frame(pack_frame(0, 0, runs, NODE_INDEX), NODES)
    assert_same_runs(frame.runs, runs)
    first = frame.runs[0][4][0]
    for run in frame.runs:
        assert all(decoded is first for decoded in run[4])


def test_v2_equal_but_distinct_objects_share_one_definition():
    """Two referencers building the same message value (every beat
    builds a fresh, equal object) cost one definition, and decode to
    one shared object."""
    twins = [_message(4), _message(4)]
    assert twins[0] == twins[1] and twins[0] is not twins[1]
    once = pack_frame(
        0, 0, [_message_run(["ao-1:a"], twins[:1])], NODE_INDEX
    )
    twice = pack_frame(
        0, 0, [_message_run(["ao-1:a", "ao-1:a"], twins)], NODE_INDEX
    )
    assert len(twice) == len(once) + 4  # two more two-byte indices
    decoded = unpack_frame(twice, NODES).runs[0][4]
    assert decoded == twins
    assert decoded[0] is decoded[1]
    # Responses, too (their clocks are equal but distinct objects).
    responses = [
        DgcResponse("ao-9:z", ActivityClock(2, "ao-9:z"), True, False, depth)
        for depth in (None, None, 0, 3)
    ]
    run = (kinds.KIND_DGC_RESPONSE, 2.0, NODES[1], ["t"] * 4, responses)
    decoded = unpack_frame(pack_frame(0, 0, [run], NODE_INDEX), NODES).runs[0][4]
    assert decoded == responses
    assert decoded[0] is decoded[1]
    assert decoded[2].depth == 0 and decoded[2] is not decoded[0]
    assert decoded[0].clock is decoded[3].clock


def test_v2_negative_zero_sender_ttb_is_kept_apart():
    """``-0.0 == 0.0`` and they hash alike, but the round-trip is
    bit-identical: the two declared TTBs never share a table slot."""
    plus, minus = _message(1, ttb=0.0), _message(1, ttb=-0.0)
    assert plus == minus  # which is exactly the trap
    for order in ([plus, minus, plus], [minus, plus, minus]):
        run = _message_run(["t1", "t2", "t3"], order)
        decoded = unpack_frame(
            pack_frame(0, 0, [run], NODE_INDEX), NODES
        ).runs[0][4]
        assert [math.copysign(1.0, m.sender_ttb) for m in decoded] == [
            math.copysign(1.0, m.sender_ttb) for m in order
        ]
        assert decoded[0] is decoded[2] and decoded[0] is not decoded[1]


def test_v2_channel_survives_id_reuse_after_gc():
    """The encoder's table is keyed by value, never by object identity:
    a collected message whose address a *different* message reuses in a
    later frame must not alias the old table slot."""
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    seen_ids = set()
    reused = 0
    frames = []
    for seq in range(40):
        messages = [_message(seq * 3 + offset) for offset in range(3)]
        reused += sum(id(message) in seen_ids for message in messages)
        seen_ids.update(id(message) for message in messages)
        frames.append(pack_frame(
            0, seq, [_message_run(["t1", "t2", "t3"], messages)],
            NODE_INDEX, channel=encoder,
        ))
        del messages
        gc.collect()
    for seq, buf in enumerate(frames):
        decoded = unpack_frame(buf, NODES, channel=decoder).runs[0][4]
        assert decoded == [_message(seq * 3 + offset) for offset in range(3)]
    assert reused, "the allocator never reused an address: test is vacuous"


def test_v2_runs_spanning_frames_define_each_value_once():
    """A heartbeat stream across several frames of one channel: frame
    one defines the ids, clocks, refs and messages, every later frame is
    run heads plus index columns, and all frames decode to the *same*
    objects."""
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    targets = [f"ao-{n:08d}:slave{n}" for n in range(12)]
    frames = []
    for seq in range(4):
        # Fresh, equal objects every beat, as the collector builds them.
        messages = [_message(n % 3) for n in range(12)]
        runs = [
            _message_run(targets[:7], messages[:7], delivery=5.0 * seq),
            _message_run(targets[7:], messages[7:], dest=NODES[3],
                         delivery=5.0 * seq),
        ]
        buf = pack_frame(2, seq, runs, NODE_INDEX, channel=encoder)
        frames.append((buf, runs))
    sizes = [len(buf) for buf, _ in frames]
    assert sizes[1] == sizes[2] == sizes[3]
    # header + ordinal + table size + definition flag + run count + 2
    # rows of the run table + a two-byte target and message index per
    # constituent
    assert sizes[1] == 20 + 1 + 1 + 1 + 1 + 2 * 15 + 2 * 2 * 12
    decoded = []
    for buf, runs in frames:
        frame = unpack_frame(buf, NODES, channel=decoder)
        assert_same_runs(frame.runs, runs)
        decoded.append(frame.runs)
    for later in decoded[1:]:
        for run, first in zip(later, decoded[0]):
            assert all(a is b for a, b in zip(run[3], first[3]))
            assert all(a is b for a, b in zip(run[4], first[4]))


def test_v2_columns_widen_when_the_table_outgrows_two_bytes():
    count = 0x10000 + 3
    targets = [f"ao-{n}" for n in range(count)]
    message = _message(1)
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    big = _message_run(targets, [message] * count)
    small = _message_run(targets[-2:], [message] * 2, delivery=8.0)
    first = pack_frame(0, 0, [big], NODE_INDEX, channel=encoder)
    second = pack_frame(0, 1, [small], NODE_INDEX, channel=encoder)
    # ordinal, three-byte table size, flag, run count, one row, four-byte
    # indices
    assert len(second) == 20 + 1 + 3 + 1 + 1 + 15 + 4 * 4
    assert_same_runs(unpack_frame(first, NODES, channel=decoder).runs, [big])
    assert_same_runs(
        unpack_frame(second, NODES, channel=decoder).runs, [small]
    )


def test_v2_column_index_out_of_range_rejected():
    run = _message_run(["ao-1:a", "ao-2:b"], [_message(1)] * 2)
    buf = pack_frame(0, 0, [run], NODE_INDEX)
    # The block's four two-byte indices are the frame's last 8 bytes.
    corrupt = buf[:-2] + b"\xff\xff"
    with pytest.raises(WireFormatError, match="corrupt"):
        unpack_frame(corrupt, NODES)


def test_v2_definition_field_out_of_range_rejected():
    run = _message_run(["ao-1:a"], [_message(1)])
    buf = pack_frame(0, 0, [run], NODE_INDEX)
    # The message definition ends the definition block, ahead of the run
    # count, the run's row and the four-byte index block: u16 sender,
    # clock and ref, bool consensus, f64 ttb.  The strings come first,
    # in sight order: the target, then the sender.
    definition = len(buf) - 4 - 15 - 1 - 15
    assert struct.unpack_from("!H", buf, definition) == (1,)
    corrupt = _patched(buf, definition, struct.pack("!H", 999))
    with pytest.raises(WireFormatError, match="corrupt"):
        unpack_frame(corrupt, NODES)


def test_v2_column_block_disagreeing_with_the_run_table_rejected():
    run = _message_run(["ao-1:a", "ao-2:b"], [_message(1)] * 2)
    buf = pack_frame(0, 0, [run], NODE_INDEX)
    # The run's row sits just before the eight-byte index block.
    count_at = len(buf) - 8 - 15 + 3
    assert struct.unpack_from("!I", buf, count_at) == (2,)
    with pytest.raises(WireFormatError, match="trailing"):
        unpack_frame(_patched(buf, count_at, struct.pack("!I", 1)), NODES)
    with pytest.raises(WireFormatError, match="truncated"):
        unpack_frame(_patched(buf, count_at, struct.pack("!I", 3)), NODES)


def test_v2_malformed_dgc_runs_rejected_at_pack():
    response = DgcResponse("ao-9:z", ActivityClock(2, "ao-9:z"), True)
    for run, match in [
        (_message_run(["ao-1:a"], [response]), "dgc.message run"),
        ((kinds.KIND_DGC_RESPONSE, 1.0, NODES[0], ["t"], [_message(1)]),
         "dgc.response run"),
        (_message_run([17], [_message(1)]), "DGC target"),
        (_message_run(["ao-1:a"], [None]), "dgc.message run"),
        (_message_run(["ao-1:a", "ao-2:b"], [_message(1)]), "parallel"),
        (_message_run([], []), "non-empty"),
    ]:
        with pytest.raises(WireFormatError, match=match):
            pack_frame(0, 0, [run], NODE_INDEX)
    with pytest.raises(WireFormatError, match="DGC target"):
        pack_frame(0, 0, [_message_run([["ao-1:a"]], [_message(1)])], NODE_INDEX)
    # On a channel whose table holds the float 17.0 (and 1.0), an int 17
    # or ``True`` compares equal to a slot but is still no string.
    floats = (kinds.KIND_APP_REQUEST, 1.0, NODES[0], ["ao-1:a"], [
        Request("do_run", "ao-1:a", "ao-2:b", data=[17.0, 1.0]),
    ])
    renamed = dataclasses.replace(_message(1), sender=17)
    for run, match in [
        (_message_run([17], [_message(1)]), "DGC target"),
        (_message_run([True], [_message(1)]), "DGC target"),
        (_message_run(["ao-1:a"], [renamed]), "DGC field"),
    ]:
        encoder = ChannelEncoder()
        pack_frame(0, 0, [floats], NODE_INDEX, channel=encoder)
        with pytest.raises(WireFormatError, match=match):
            pack_frame(0, 1, [run], NODE_INDEX, channel=encoder)


def test_v2_shrinks_fanout_traffic():
    """The intern table must collapse repeated messages/ids: a sharing-
    heavy batch of runs costs a few bytes per constituent (5.94 when
    this budget was set), not a ~100-byte message spelled out each."""
    message = _message(42, consensus=False)
    targets = [f"ao-{n:08d}:slave{n % 7}" for n in range(32)]
    runs = [
        _message_run(list(targets), [message] * 32,
                     dest=NODES[index % len(NODES)], delivery=100.25 + index)
        for index in range(16)
    ]
    buf = pack_frame(0, 0, runs, NODE_INDEX)
    assert len(buf) <= 8 * 16 * 32
    assert_same_runs(unpack_frame(buf, NODES).runs, runs)


# ----------------------------------------------------------------------
# Persistent channels: the intern table across frames
# ----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(staged_runs, min_size=1, max_size=4))
def test_channel_roundtrip_across_frames(batches):
    """A ChannelEncoder/ChannelDecoder pair round-trips a whole frame
    stream: every frame decodes to its own runs, values bit-identical,
    regardless of what earlier frames interned."""
    encoder = ChannelEncoder()
    decoder = ChannelDecoder()
    for seq, runs in enumerate(batches):
        buf = pack_frame(3, seq, runs, NODE_INDEX, channel=encoder)
        assert frame_stamp(buf) == (3, seq)
        frame = unpack_frame(buf, NODES, channel=decoder)
        assert_same_runs(frame.runs, runs)


#: A ref-less request row on a narrow table: tag, three two-byte
#: indices (method, sender, target), the i64 payload size, the u16 ref
#: count.  No request id rides the wire.
REF_LESS_ROW_BYTES = 1 + 3 * 2 + 8 + 2


def test_ref_less_request_row_length_is_pinned():
    """Once its strings are in the table, a ref-less request costs the
    17-byte row plus the one-byte ``None`` reply address — the second
    frame of a channel grows by exactly that per request."""
    encoder = ChannelEncoder()
    pack_frame(0, 0, [_request_run()], NODE_INDEX, channel=encoder)
    one = pack_frame(0, 1, [_request_run(count=1)], NODE_INDEX, channel=encoder)
    three = pack_frame(0, 2, [_request_run(count=3)], NODE_INDEX, channel=encoder)
    assert one[_VALUES] == 0x1F
    assert len(three) - len(one) == 2 * (REF_LESS_ROW_BYTES + 1 + 1)
    assert len(one) == _VALUES + REF_LESS_ROW_BYTES + 1 + 1


def test_request_row_once_its_fields_are_in_the_table():
    """A request's first sighting takes the tagged fields, which intern
    its strings; from then on it is one row of table indices — and a row
    index out of range is rejected, not resolved."""
    encoder = ChannelEncoder()
    first = pack_frame(0, 0, [_request_run()], NODE_INDEX, channel=encoder)
    runs = [_request_run(count=2)]
    second = pack_frame(0, 1, runs, NODE_INDEX, channel=encoder)
    assert first[_VALUES] == 0x13 and second[_VALUES] == 0x1F
    # Per request: the 17-byte ref-less row, its reply, its payload.
    assert len(second) == _VALUES + 2 * (REF_LESS_ROW_BYTES + 1 + 1)
    corrupt = _patched(second, _VALUES + 1, struct.pack("!H", 999))
    for buf in (second, corrupt):
        decoder = ChannelDecoder()
        unpack_frame(first, NODES, channel=decoder)
        if buf is second:
            assert_same_runs(unpack_frame(buf, NODES, channel=decoder).runs, runs)
            continue
        with pytest.raises(WireFormatError, match="corrupt"):
            unpack_frame(buf, NODES, channel=decoder)


def test_reply_addresses_never_grow_the_channel_table():
    """A reply address's future id is unique per request: interning it
    would register one table entry per request that nothing ever hits.
    A thousand request-with-reply runs, as rows and as tagged fields
    (inside a lookup), grow the table by the distinct strings only."""
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    for seq in range(1000):
        reply = ReplyAddress(NODES[2], "ao-1:a", seq + 1)
        runs = [
            (kinds.KIND_APP_REQUEST, 1.0, NODES[0],
             [Request("do_ping", "ao-1:a", "ao-2:b", reply_to=reply)], [None]),
            (kinds.KIND_REGISTRY_LOOKUP, 1.0, NODES[0],
             [RegistryLookup("svc", reply)], [None]),
        ]
        buf = pack_frame(0, seq, runs, NODE_INDEX, channel=encoder)
        assert_same_runs(unpack_frame(buf, NODES, channel=decoder).runs, runs)
    distinct = {"do_ping", "ao-1:a", "ao-2:b", NODES[2], "svc"}
    assert len(decoder.table) == encoder.count <= len(distinct)


def _channel_frames(count=4):
    """``count`` frames of one channel, each defining something new."""
    encoder = ChannelEncoder()
    return [
        pack_frame(
            5, seq,
            [_message_run([f"ao-{seq}:t"], [_message(seq)]),
             _request_run(target=f"ao-{seq}:t")],
            NODE_INDEX, channel=encoder,
        )
        for seq in range(count)
    ]


def test_channel_indices_carry_across_frames():
    """The second frame of a repetitive stream is run heads and indices
    only — and decoding it *without* the channel state proves the
    dependency (its indices point into a table only frame one built)."""
    message = _message(1)
    runs = [_message_run(["ao-00000002:slave2"], [message])]
    encoder = ChannelEncoder()
    first = pack_frame(0, 0, runs, NODE_INDEX, channel=encoder)
    second = pack_frame(0, 1, runs, NODE_INDEX, channel=encoder)
    assert len(second) < len(first) - 20  # body shrank to indices
    decoder = ChannelDecoder()
    one = unpack_frame(first, NODES, channel=decoder)
    two = unpack_frame(second, NODES, channel=decoder)
    assert one.runs == two.runs
    # Cross-frame sharing: both frames decode to the *same* objects.
    assert one.runs[0][4][0] is two.runs[0][4][0]
    assert one.runs[0][3][0] is two.runs[0][3][0]
    # Stateless decode of frame two must fail, not fabricate values.
    with pytest.raises(WireFormatError, match="ordinal out of step"):
        unpack_frame(second, NODES)


def test_channel_dropped_frame_detected_before_any_value_decodes():
    frames = _channel_frames()
    decoder = ChannelDecoder()
    unpack_frame(frames[0], NODES, channel=decoder)
    size = len(decoder.table)
    with pytest.raises(WireFormatError) as failure:
        unpack_frame(frames[2], NODES, channel=decoder)
    # The error names the frame and both ordinals.
    message = str(failure.value)
    assert "shard 5, seq 2" in message
    assert "it carries ordinal 2" in message
    assert "this decoder expects ordinal 1" in message
    assert "dropped, duplicated or reordered" in message
    assert len(decoder.table) == size  # nothing was decoded into it
    assert decoder.ordinal == 0 and decoder.last_seq == 0


def _steady_frames(count=3):
    """``count`` frames of one channel after a first that defines every
    value: the later ones define nothing (one zero flag byte)."""
    encoder = ChannelEncoder()
    runs = [_message_run(["ao-1:a", "ao-2:b"], [_message(1)] * 2)]
    first = pack_frame(5, 0, runs, NODE_INDEX, channel=encoder)
    later = [
        pack_frame(5, seq, runs, NODE_INDEX, channel=encoder)
        for seq in range(1, count + 1)
    ]
    return first, later


def test_dropped_steady_state_frame_raises():
    """A frame that defined nothing, dropped: the next frame's ordinal
    does not follow, whatever the table sizes say."""
    first, (one, two, three) = _steady_frames()
    assert one[_BODY + 2] == two[_BODY + 2] == 0  # definition-free
    decoder = ChannelDecoder()
    unpack_frame(first, NODES, channel=decoder)
    unpack_frame(one, NODES, channel=decoder)
    with pytest.raises(WireFormatError, match="expects ordinal 2"):
        unpack_frame(three, NODES, channel=decoder)


def test_channel_roundtrips_across_epoch_boundaries():
    """A channel crossing three epoch boundaries: every frame decodes to
    its own runs, bit-identical, and both tables restart empty at each
    epoch's first frame (which then defines what it uses again) — yet a
    re-defined clock or response comes back as the object the last epoch
    decoded."""
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    sizes = []
    clocks, responses = {}, {}
    for seq in range(3 * EPOCH_FRAMES + 2):
        response = DgcResponse("ao-9:z", ActivityClock(2, "ao-9:z"), True, False, seq % 3)
        runs = [
            _message_run([f"ao-{seq % 5}:t", "ao-9:z"], [_message(seq % 7)] * 2),
            _request_run(target=f"ao-{seq % 3}:t"),
            (kinds.KIND_DGC_RESPONSE, 2.0, NODES[1], ["ao-1:a"], [response]),
        ]
        buf = pack_frame(1, seq, runs, NODE_INDEX, channel=encoder)
        decoded = unpack_frame(buf, NODES, channel=decoder).runs
        assert_same_runs(decoded, runs)
        assert len(decoder.table) == encoder.count
        sizes.append(struct.unpack_from("!B", buf, _BODY + 1)[0])
        clock = decoded[0][4][0].clock
        assert clocks.setdefault(repr(clock), clock) is clock
        response = decoded[2][4][0]
        assert responses.setdefault(response.depth, response) is response
    for epoch_start in range(0, len(sizes), EPOCH_FRAMES):
        assert sizes[epoch_start] == 0  # the table size the frame began at
        assert sizes[epoch_start + 1] > 0
    assert len(clocks) == 7 and len(responses) == 3


def test_tables_stay_bounded_with_fresh_clocks_in_every_frame():
    """A thousand frames, each with clocks and messages never seen
    before: neither table holds more than one epoch's definitions."""
    encoder, decoder = ChannelEncoder(), ChannelDecoder()
    largest = 0
    for seq in range(1000):
        sender = f"ao-{seq % 4}:s"
        message = DgcMessage(
            sender, ActivityClock(seq, sender), True, RemoteRef(sender, NODES[1])
        )
        runs = [_message_run(["ao-1:a"], [message])]
        buf = pack_frame(0, seq, runs, NODE_INDEX, channel=encoder)
        assert_same_runs(unpack_frame(buf, NODES, channel=decoder).runs, runs)
        largest = max(largest, len(decoder.table), len(encoder.memo))
    # A fresh clock and message per frame, plus the five ids and the ref
    # each epoch defines once; the decoder keeps the last epoch's clocks.
    assert largest <= 2 * EPOCH_FRAMES + 10
    assert len(decoder.table) == encoder.count == len(encoder.memo)
    assert len(decoder.kept) <= EPOCH_FRAMES


def test_channel_duplicated_frame_detected():
    frames = _channel_frames()
    decoder = ChannelDecoder()
    unpack_frame(frames[0], NODES, channel=decoder)
    unpack_frame(frames[1], NODES, channel=decoder)
    with pytest.raises(WireFormatError, match="duplicated or reordered"):
        unpack_frame(frames[1], NODES, channel=decoder)


def test_channel_swapped_frames_detected():
    frames = _channel_frames()
    decoder = ChannelDecoder()
    unpack_frame(frames[0], NODES, channel=decoder)
    with pytest.raises(WireFormatError, match="out of step"):
        unpack_frame(frames[2], NODES, channel=decoder)
    decoder = ChannelDecoder()
    unpack_frame(frames[0], NODES, channel=decoder)
    unpack_frame(frames[1], NODES, channel=decoder)
    unpack_frame(frames[2], NODES, channel=decoder)
    with pytest.raises(WireFormatError, match="duplicated or reordered"):
        unpack_frame(frames[1], NODES, channel=decoder)


def test_frame_stamp_matches_header():
    run = (kinds.KIND_APP_REPLY, 2.5, NODES[1], [Reply(4, "ao-9:z")], [None])
    buf = pack_frame(6, 12345, [run], NODE_INDEX)
    assert frame_stamp(buf) == (6, 12345)
    assert frame_rows(buf) == 1
    with pytest.raises(WireFormatError, match="truncated"):
        frame_stamp(buf[:10])
    with pytest.raises(WireFormatError, match="magic"):
        frame_stamp(b"\x00\x00" + buf[2:])


def test_trailing_garbage_rejected():
    buf = pack_frame(0, 0, [], NODE_INDEX)
    with pytest.raises(WireFormatError, match="trailing"):
        unpack_frame(buf + b"\x00", NODES)


def test_unknown_destination_rejected_at_pack():
    run = (kinds.KIND_APP_REPLY, 0.0, "mars-0", [Reply(1, "ao-1:a")], [None])
    with pytest.raises(WireFormatError, match="topology"):
        pack_frame(0, 0, [run], NODE_INDEX)


def test_unpicklable_item_rejected_at_pack():
    run = (kinds.KIND_APP_REQUEST, 0.0, NODES[0], [object()], [None])
    with pytest.raises(WireFormatError, match="encode"):
        pack_frame(0, 0, [run], NODE_INDEX)
