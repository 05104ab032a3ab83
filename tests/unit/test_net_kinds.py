"""Unit tests for the central traffic-kind registry."""

import pytest

from repro.net import kinds, message


def test_all_kinds_are_unique_and_orderd_dgc_first():
    assert len(set(kinds.ALL_KINDS)) == len(kinds.ALL_KINDS)
    assert kinds.ALL_KINDS[0] == kinds.KIND_DGC_MESSAGE
    assert kinds.ALL_KINDS[1] == kinds.KIND_DGC_RESPONSE


def test_registry_family_contains_all_naming_kinds():
    assert set(kinds.REGISTRY_KINDS) == {
        "registry.lookup",
        "registry.reply",
        "registry.bind",
        "registry.invalidate",
        "registry.renew",
        "registry.push",
    }
    assert set(kinds.APP_KINDS) == {"app.request", "app.reply"}
    assert set(kinds.DGC_KINDS) == {"dgc.message", "dgc.response"}


def test_aggregate_kinds_are_exactly_the_dgc_ones():
    assert set(kinds.AGGREGATE_KINDS) == {
        kinds.KIND_DGC_MESSAGE, kinds.KIND_DGC_RESPONSE
    }


def test_message_module_reexports_the_registry():
    # Back-compat: the historical import site still works and agrees.
    assert message.ALL_KINDS == kinds.ALL_KINDS
    assert message.KIND_REGISTRY_BIND == "registry.bind"
    assert message.AGGREGATE_KINDS is kinds.AGGREGATE_KINDS


def test_register_kind_rejects_duplicates():
    with pytest.raises(ValueError):
        kinds.register_kind(kinds.KIND_APP_REQUEST)


def test_register_kind_extends_family_and_order():
    before = kinds.ALL_KINDS
    try:
        kinds.register_kind("registry.gossip")
        assert kinds.ALL_KINDS[-1] == "registry.gossip"
        assert "registry.gossip" in kinds.REGISTRY_KINDS
    finally:
        # Undo: the registry rebinding is append-only by design; restore
        # the module state so other tests see the built-ins only.
        kinds.ALL_KINDS = before
        kinds.REGISTRY_KINDS = tuple(
            k for k in kinds.REGISTRY_KINDS if k != "registry.gossip"
        )


def test_describe_traffic_is_greppable_by_kind():
    line = kinds.describe_traffic("registry.renew", "site-1", "site-0", 56)
    assert line == "registry.renew site-1->site-0 56B"


def test_dispatch_shapes_are_bound_by_network_and_node():
    # Importing the fabric (done above through repro.net.message's
    # consumers in other suites, and unconditionally here) records the
    # binders that snapshot AGGREGATE_KINDS.
    import repro.net.network  # noqa: F401
    import repro.runtime.node  # noqa: F401

    assert "repro.net.network" in kinds._DISPATCH_SHAPE_BINDERS
    assert "repro.runtime.node" in kinds._DISPATCH_SHAPE_BINDERS


def test_late_aggregate_registration_raises_without_mutating_registry():
    import repro.net.network  # noqa: F401  (ensures a binder is recorded)

    before_all = kinds.ALL_KINDS
    before_agg = dict(kinds.AGGREGATE_KINDS)
    with pytest.raises(RuntimeError, match="dispatch shape"):
        kinds.register_kind("dgc.late", aggregate="dgc.late[]")
    # The failed registration left no trace.
    assert kinds.ALL_KINDS == before_all
    assert kinds.AGGREGATE_KINDS == before_agg


def test_late_plain_registration_stays_legal_after_binding():
    import repro.runtime.node  # noqa: F401  (ensures a binder is recorded)

    before = kinds.ALL_KINDS
    try:
        kinds.register_kind("registry.late_plain")
        assert kinds.ALL_KINDS[-1] == "registry.late_plain"
    finally:
        kinds.ALL_KINDS = before
        kinds.REGISTRY_KINDS = tuple(
            k for k in kinds.REGISTRY_KINDS if k != "registry.late_plain"
        )


def test_aggregate_registration_allowed_before_any_binder(monkeypatch):
    # Simulate the pre-import world: no binder recorded yet.
    monkeypatch.setattr(kinds, "_DISPATCH_SHAPE_BINDERS", ())
    before_all = kinds.ALL_KINDS
    try:
        kinds.register_kind("dgc.early", aggregate="dgc.early[]")
        assert kinds.AGGREGATE_KINDS["dgc.early"] == "dgc.early[]"
    finally:
        kinds.ALL_KINDS = before_all
        kinds.AGGREGATE_KINDS.pop("dgc.early", None)
        kinds.DGC_KINDS = tuple(
            k for k in kinds.DGC_KINDS if k != "dgc.early"
        )


def test_size_sources_manifest_is_total_and_priced():
    # Every registered kind is priced, by a real WireSizeModel attribute.
    assert set(message.KIND_SIZE_SOURCES) == set(kinds.ALL_KINDS)
    model = message.WireSizeModel()
    for kind, attr in message.KIND_SIZE_SOURCES.items():
        assert hasattr(model, attr), (kind, attr)


def test_payload_types_manifest_is_total():
    from repro.net import wire

    assert set(wire.KIND_PAYLOAD_TYPES) == set(kinds.ALL_KINDS)
    for kind, types in wire.KIND_PAYLOAD_TYPES.items():
        assert types, kind
        for payload_type in types:
            assert isinstance(payload_type, type), (kind, payload_type)
