"""Unit tests for the bandwidth accountant."""

from repro.net.accounting import BandwidthAccountant
from repro.net.message import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    Envelope,
)


def make_envelope(kind: str, size: int, src="a", dst="b") -> Envelope:
    return Envelope(
        source_node=src,
        dest_node=dst,
        kind=kind,
        size_bytes=size,
        payload=None,
        deliver=lambda payload: None,
    )


def test_totals_by_kind():
    accountant = BandwidthAccountant()
    accountant.observe(make_envelope(KIND_APP_REQUEST, 100))
    accountant.observe(make_envelope(KIND_APP_REPLY, 50))
    accountant.observe(make_envelope(KIND_DGC_MESSAGE, 64))
    accountant.observe(make_envelope(KIND_DGC_RESPONSE, 48))
    assert accountant.app_bytes == 150
    assert accountant.dgc_bytes == 112
    assert accountant.total_bytes == 262
    assert accountant.total_messages == 4


def test_bytes_and_messages_for_specific_kind():
    accountant = BandwidthAccountant()
    for __ in range(3):
        accountant.observe(make_envelope(KIND_DGC_MESSAGE, 64))
    assert accountant.bytes_for(KIND_DGC_MESSAGE) == 192
    assert accountant.messages_for(KIND_DGC_MESSAGE) == 3
    assert accountant.bytes_for("unknown") == 0
    assert accountant.messages_for("unknown") == 0


def test_megabytes_uses_decimal_mb():
    accountant = BandwidthAccountant()
    accountant.observe(make_envelope(KIND_APP_REQUEST, 2_000_000))
    assert accountant.megabytes() == 2.0


def test_summary_is_a_copy():
    accountant = BandwidthAccountant()
    accountant.observe(make_envelope(KIND_APP_REQUEST, 10))
    summary = accountant.summary()
    summary[KIND_APP_REQUEST].bytes = 999
    assert accountant.bytes_for(KIND_APP_REQUEST) == 10


def test_describe_reports_kinds_uniformly_across_sinks():
    """Typed and envelope sinks account with the same kind constants, in
    the fabric's canonical order — the summary stays greppable by kind."""
    from repro.net.message import KIND_APP_REQUEST, KIND_DGC_MESSAGE

    accountant = BandwidthAccountant()
    # One observation through the envelope form, one through the typed
    # (pre-sized) form, one unknown extension kind.
    accountant.observe(make_envelope(kind=KIND_APP_REQUEST, size=100))
    accountant.observe_sized(KIND_DGC_MESSAGE, 64, ("a", "b"))
    accountant.observe_sized("custom.kind", 10, ("a", "b"))
    lines = accountant.describe().splitlines()
    # Canonical ALL_KINDS order (DGC first), unknown kinds last.
    assert lines == [
        "dgc.message: 1 msgs, 64 B",
        "app.request: 1 msgs, 100 B",
        "custom.kind: 1 msgs, 10 B",
    ]


def test_envelope_repr_uses_the_uniform_traffic_description():
    from repro.net.message import describe_traffic

    envelope = make_envelope(kind="dgc.message", size=64)
    assert describe_traffic("dgc.message", envelope.source_node,
                            envelope.dest_node, 64) in repr(envelope)


def test_pair_box_is_live_and_shared_with_observers():
    accountant = BandwidthAccountant()
    box = accountant.pair_box(("a", "b"))
    assert accountant.pair_bytes(("a", "b")) == 0
    accountant.observe_sized("app.request", 100, ("a", "b"))
    assert box[0] == 100
    box[0] += 50  # a hot sender bumping its lent box
    assert accountant.pair_bytes(("a", "b")) == 150
