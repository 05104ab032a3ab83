"""Unit tests for the naming service: config validation, placement
routing, the lease cache, root-pin refcounting, and the beat-quantized
coherence channel's egress lifecycle."""

import pytest

from repro.core.config import (
    COHERENCE_BEAT,
    COHERENCE_EAGER,
    PLACEMENT_HASHED,
    PLACEMENT_REPLICATED,
    RegistryConfig,
)
from repro.errors import ConfigurationError, RegistryError
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.registry import LeaseCache


# ----------------------------------------------------------------------
# RegistryConfig
# ----------------------------------------------------------------------


def test_registry_config_defaults_are_static_home_uncached():
    config = RegistryConfig()
    assert config.placement == "home"
    assert not config.caching


def test_registry_config_rejects_unknown_placement():
    with pytest.raises(ConfigurationError):
        RegistryConfig(placement="gossip")


def test_registry_config_rejects_negative_lease():
    with pytest.raises(ConfigurationError):
        RegistryConfig(lease_ttb=-1)
    with pytest.raises(ConfigurationError):
        RegistryConfig(cache_size=-1)
    with pytest.raises(ConfigurationError):
        RegistryConfig(lease_beat_s=0.0)


def test_caching_needs_both_lease_and_capacity():
    assert RegistryConfig(lease_ttb=4).caching
    assert not RegistryConfig(lease_ttb=4, cache_size=0).caching
    assert not RegistryConfig(lease_ttb=0).caching
    # Replicated placement keeps coherent replicas instead of leases.
    assert not RegistryConfig(
        placement=PLACEMENT_REPLICATED, lease_ttb=4
    ).caching


def test_with_overrides_is_functional():
    base = RegistryConfig()
    cached = base.with_overrides(lease_ttb=8)
    assert base.lease_ttb == 0
    assert cached.lease_ttb == 8


def test_registry_config_coherence_defaults_to_beat():
    assert RegistryConfig().coherence == COHERENCE_BEAT == "beat"
    assert RegistryConfig(coherence=COHERENCE_EAGER).coherence == "eager"


def test_registry_config_rejects_unknown_coherence():
    with pytest.raises(ConfigurationError):
        RegistryConfig(coherence="gossip")


# ----------------------------------------------------------------------
# Placement routing
# ----------------------------------------------------------------------


def test_home_placement_routes_everything_to_home(make_world):
    world = make_world(4)
    naming = world.registry
    assert naming.home_node == world.topology.nodes[0]
    for name in ("a", "b", "c", "zeta"):
        assert naming.authority_node(name) == naming.home_node


def test_home_node_override_must_exist(make_world):
    with pytest.raises(RegistryError):
        make_world(2, registry=RegistryConfig(home_node="nowhere"))


def test_home_node_override_is_honoured(make_world):
    nodes = make_world(4).topology.nodes
    world = make_world(4, registry=RegistryConfig(home_node=nodes[2]))
    assert world.registry.home_node == nodes[2]
    assert world.registry.authority_node("x") == nodes[2]


def test_hashed_placement_spreads_authorities(make_world):
    world = make_world(8, registry=RegistryConfig(placement=PLACEMENT_HASHED))
    naming = world.registry
    authorities = {naming.authority_node(f"svc-{i}") for i in range(32)}
    assert len(authorities) > 1
    # Stable: the same name always hashes to the same node.
    assert naming.authority_node("svc-0") == naming.authority_node("svc-0")


def test_hashed_placement_is_deterministic_across_worlds(make_world):
    a = make_world(8, registry=RegistryConfig(placement=PLACEMENT_HASHED))
    b = make_world(8, registry=RegistryConfig(placement=PLACEMENT_HASHED))
    for i in range(16):
        name = f"svc-{i}"
        assert a.registry.authority_node(name) == b.registry.authority_node(name)


# ----------------------------------------------------------------------
# LeaseCache
# ----------------------------------------------------------------------


def test_lease_cache_hit_requires_live_lease():
    cache = LeaseCache(capacity=4)
    cache.put("a", "ref-a", expires_at=10.0)
    assert cache.get("a", now=5.0) == "ref-a"
    assert cache.get("a", now=10.0) is None  # lapsed exactly at expiry
    assert cache.get("missing", now=0.0) is None


def test_lease_cache_get_marks_used_for_the_sweep():
    cache = LeaseCache(capacity=4)
    cache.put("a", "ref-a", expires_at=10.0)
    assert cache.entries["a"][2] is False
    cache.get("a", now=1.0)
    assert cache.entries["a"][2] is True


def test_lease_cache_capacity_evicts_fifo():
    cache = LeaseCache(capacity=2)
    cache.put("a", "ref-a", 10.0)
    cache.put("b", "ref-b", 10.0)
    cache.put("c", "ref-c", 10.0)
    assert "a" not in cache.entries
    assert cache.get("b", 0.0) == "ref-b"
    assert cache.get("c", 0.0) == "ref-c"
    assert cache.capacity_evictions == 1


def test_lease_cache_put_updates_in_place_without_eviction():
    cache = LeaseCache(capacity=2)
    cache.put("a", "ref-a", 10.0)
    cache.put("b", "ref-b", 10.0)
    cache.put("a", "ref-a2", 20.0)
    assert len(cache) == 2
    assert cache.get("a", 15.0) == "ref-a2"


def test_lease_cache_extend_only_extends():
    cache = LeaseCache(capacity=2)
    cache.put("a", "ref-a", 10.0)
    cache.extend("a", 20.0)
    assert cache.entries["a"][1] == 20.0
    cache.extend("a", 5.0)  # never shortens
    assert cache.entries["a"][1] == 20.0
    cache.extend("ghost", 30.0)  # unknown names are ignored


# ----------------------------------------------------------------------
# Root-pin refcounting (the authoritative shard owns the pin)
# ----------------------------------------------------------------------


def _spawn(world, name="svc"):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name=name)
    return world.find_activity(proxy.activity_id), proxy


def test_pin_count_tracks_bindings(make_world):
    world = make_world(2, dgc=None)
    activity, proxy = _spawn(world)
    assert world.registry.pin_count(activity.id) == 0
    world.registry.bind("one", proxy.ref)
    world.registry.bind("two", proxy.ref)
    assert world.registry.pin_count(activity.id) == 2
    world.registry.unbind("one")
    assert world.registry.pin_count(activity.id) == 1
    assert activity.is_root
    world.registry.unbind("two")
    assert world.registry.pin_count(activity.id) == 0
    assert not activity.is_root


def test_aliasing_across_hashed_authorities_keeps_pin(make_world):
    """The same activity bound under names owned by *different*
    authoritative shards stays pinned until the last unbind — the pin
    refcount is world-level, not per-shard."""
    world = make_world(8, dgc=None,
                       registry=RegistryConfig(placement=PLACEMENT_HASHED))
    naming = world.registry
    activity, proxy = _spawn(world)
    # Find two names with distinct authorities.
    names = [f"alias-{i}" for i in range(64)]
    first = names[0]
    second = next(
        n for n in names
        if naming.authority_node(n) != naming.authority_node(first)
    )
    naming.bind(first, proxy.ref)
    naming.bind(second, proxy.ref)
    assert activity.is_root
    naming.unbind(first)
    assert activity.is_root, "pin dropped while an alias is still bound"
    naming.unbind(second)
    assert not activity.is_root


# ----------------------------------------------------------------------
# Beat-coherence egress: queues drain, the sweep stops itself
# ----------------------------------------------------------------------


BEAT_REPLICATED = RegistryConfig(
    placement=PLACEMENT_REPLICATED, coherence="beat", lease_beat_s=2.0
)


def test_beat_egress_flushes_and_stops_when_drained(make_world):
    world = make_world(4, dgc=None, registry=BEAT_REPLICATED)
    naming = world.registry
    nodes = world.topology.nodes
    _activity, proxy = _spawn(world)
    naming.bind("svc", proxy.ref)
    shard = naming.shard(naming.home_node)
    # Staged to every other node, nothing on the wire yet, beat running.
    assert naming.coherence_staged == len(nodes) - 1
    assert shard.channel.pending() == len(nodes) - 1
    assert shard.egress_handle is not None
    for node in nodes[1:]:
        assert "svc" not in naming.shard(node).replica
    # One beat: the queues flush as one registry.push per destination.
    world.run_for(2.1)
    assert shard.channel.empty
    assert naming.pushes_sent == len(nodes) - 1
    assert naming.coherence_messages_sent == len(nodes) - 1
    assert naming.coherence_names_sent == len(nodes) - 1
    for node in nodes[1:]:
        assert naming.shard(node).replica["svc"] is proxy.ref
    # A second idle beat: the sweep sees empty queues and stops itself.
    world.run_for(2.1)
    assert shard.egress_handle is None
    # New traffic lazily re-registers it.
    naming.unbind("svc")
    assert shard.egress_handle is not None
    world.run_for(2.1)
    assert naming.invalidations_sent == len(nodes) - 1
    for node in nodes[1:]:
        assert "svc" not in naming.shard(node).replica


def test_beat_coherence_coalesces_rebind_to_single_push(make_world):
    """Unbind + rebind inside one beat must cross the wire as one push
    of the surviving ref — never an invalidate that could drop the
    replica after the rebind."""
    world = make_world(3, dgc=None, registry=BEAT_REPLICATED)
    naming = world.registry
    nodes = world.topology.nodes
    _activity, proxy = _spawn(world)
    naming.bind("svc", proxy.ref)
    world.run_for(2.1)  # initial push lands everywhere
    before_invalidates = naming.invalidations_sent
    naming.unbind("svc")
    naming.bind("svc", proxy.ref)
    world.run_for(2.1)
    assert naming.invalidations_sent == before_invalidates
    assert naming.coherence_coalesced == len(nodes) - 1
    for node in nodes[1:]:
        assert naming.shard(node).replica["svc"] is proxy.ref


def test_eager_never_touches_the_channel(make_world):
    world = make_world(
        3, dgc=None,
        registry=RegistryConfig(
            placement=PLACEMENT_REPLICATED, coherence=COHERENCE_EAGER
        ),
    )
    naming = world.registry
    _activity, proxy = _spawn(world)
    naming.bind("svc", proxy.ref)
    naming.unbind("svc")
    world.run_for(1.0)
    assert naming.coherence_staged == 0
    assert naming.coherence_messages_sent == 0
    assert naming.shard(naming.home_node).egress_handle is None


def test_unbind_of_dead_activity_releases_cleanly(make_world):
    """Unbinding a name whose target already terminated must remove the
    binding and the pin book-keeping without raising."""
    world = make_world(2, dgc=None)
    activity, proxy = _spawn(world)
    world.registry.bind("svc", proxy.ref)
    activity.terminate("explicit")
    world.registry.unbind("svc")
    assert world.registry.resolve("svc") is None
    assert world.registry.pin_count(activity.id) == 0
    # And the name is rebindable afterwards.
    other, other_proxy = _spawn(world, name="svc2")
    world.registry.bind("svc", other_proxy.ref)
    assert other.is_root
