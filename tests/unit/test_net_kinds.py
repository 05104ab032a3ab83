"""Unit tests for the closed traffic-kind set and its manifests.

The kinds are declared once in :mod:`repro.net.kinds`; these tests
check, on the real objects, that every module keyed by kind covers the
whole set: the wire-size manifest prices every kind, the codec manifest
names every kind's payload classes (the round trip of each class is in
``tests/property/test_wire_codec.py``), and every node of a world
dispatches every kind.
"""

import pytest

from repro.core.config import RegistryConfig
from repro.net import kinds, message
from repro.net.topology import uniform_topology
from repro.world import World


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


def test_family_rollups_partition_all_kinds():
    families = kinds.DGC_KINDS + kinds.APP_KINDS + kinds.REGISTRY_KINDS
    assert sorted(families) == sorted(kinds.ALL_KINDS)


def test_aggregate_kinds_are_exactly_the_dgc_ones():
    assert set(kinds.AGGREGATE_KINDS) == {
        kinds.KIND_DGC_MESSAGE, kinds.KIND_DGC_RESPONSE
    }
    assert not set(kinds.AGGREGATE_KINDS.values()) & set(kinds.ALL_KINDS)


def test_describe_traffic_is_greppable_by_kind():
    line = kinds.describe_traffic("registry.renew", "site-1", "site-0", 56)
    assert line == "registry.renew site-1->site-0 56B"


def test_size_sources_manifest_is_total_and_priced():
    # Every kind is priced, by a real WireSizeModel attribute.
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


@pytest.mark.parametrize("placement", ["home", "replicated", "hashed"])
def test_every_node_dispatches_every_kind(placement):
    """A kind missing from a node's table dead-letters at that node, so
    every node of a world — registry home, replicas and plain nodes —
    must hold a handler for exactly the declared kinds."""
    world = World(
        uniform_topology(3),
        registry=RegistryConfig(placement=placement),
        trace=False,
    )
    assert len(world.nodes) == 3
    for name, node in world.nodes.items():
        assert set(node._kind_handlers) == set(kinds.ALL_KINDS), name
        assert world.network._kind_tables[name] is node._kind_handlers
