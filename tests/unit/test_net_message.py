"""Unit tests for the wire-size model."""

from repro.net.message import WireSizeModel


def test_request_size_includes_references():
    model = WireSizeModel()
    base = model.request_size(0, 0)
    with_refs = model.request_size(0, 3)
    assert with_refs - base == 3 * model.reference_bytes


def test_request_size_includes_payload():
    model = WireSizeModel()
    assert model.request_size(1000, 0) - model.request_size(0, 0) == 1000


def test_reply_size():
    model = WireSizeModel()
    assert (
        model.reply_size(10, 1)
        == model.reply_header_bytes + 10 + model.reference_bytes
    )


def test_dgc_sizes_are_fixed_constants():
    model = WireSizeModel()
    assert model.dgc_message_bytes > 0
    assert model.dgc_response_bytes > 0


def test_custom_model_overrides():
    model = WireSizeModel(dgc_message_bytes=2048, reference_bytes=64)
    assert model.dgc_message_bytes == 2048
    assert model.request_size(0, 2) == model.request_header_bytes + 128
