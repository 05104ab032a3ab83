"""Unit tests for the bandwidth accountant."""

from repro.net.accounting import BandwidthAccountant
from repro.net.kinds import (
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
)


def observe(accountant, kind: str, size: int, src="a", dst="b") -> None:
    accountant.observe_sized(kind, size, (src, dst))


def test_totals_by_kind():
    accountant = BandwidthAccountant()
    observe(accountant, KIND_APP_REQUEST, 100)
    observe(accountant, KIND_APP_REPLY, 50)
    observe(accountant, KIND_DGC_MESSAGE, 64)
    observe(accountant, KIND_DGC_RESPONSE, 48)
    assert accountant.app_bytes == 150
    assert accountant.dgc_bytes == 112
    assert accountant.total_bytes == 262
    assert accountant.total_messages == 4


def test_bytes_and_messages_for_specific_kind():
    accountant = BandwidthAccountant()
    for __ in range(3):
        observe(accountant, KIND_DGC_MESSAGE, 64)
    assert accountant.bytes_for(KIND_DGC_MESSAGE) == 192
    assert accountant.messages_for(KIND_DGC_MESSAGE) == 3
    assert accountant.bytes_for("unknown") == 0
    assert accountant.messages_for("unknown") == 0


def test_megabytes_uses_decimal_mb():
    accountant = BandwidthAccountant()
    observe(accountant, KIND_APP_REQUEST, 2_000_000)
    assert accountant.megabytes() == 2.0


def test_summary_is_a_copy():
    accountant = BandwidthAccountant()
    observe(accountant, KIND_APP_REQUEST, 10)
    summary = accountant.summary()
    summary[KIND_APP_REQUEST].bytes = 999
    assert accountant.bytes_for(KIND_APP_REQUEST) == 10


def test_describe_reports_kinds_uniformly_across_sinks():
    """Every lane accounts with the same kind constants, in the
    fabric's canonical order — the summary stays greppable by kind."""
    accountant = BandwidthAccountant()
    # One observation through observe_sized, one through a
    # lent category (the pulse lanes' form), one unknown extension kind.
    observe(accountant, KIND_APP_REQUEST, 100)
    category = accountant.category(KIND_DGC_MESSAGE)
    category.bytes += 64
    category.messages += 1
    observe(accountant, "custom.kind", 10)
    lines = accountant.describe().splitlines()
    # Canonical ALL_KINDS order (DGC first), unknown kinds last.
    assert lines == [
        "dgc.message: 1 msgs, 64 B",
        "app.request: 1 msgs, 100 B",
        "custom.kind: 1 msgs, 10 B",
    ]


def test_pair_box_is_live_and_shared_with_observers():
    accountant = BandwidthAccountant()
    box = accountant.pair_box(("a", "b"))
    assert accountant.pair_bytes(("a", "b")) == 0
    accountant.observe_sized("app.request", 100, ("a", "b"))
    assert box[0] == 100
    box[0] += 50  # a hot sender bumping its lent box
    assert accountant.pair_bytes(("a", "b")) == 150
