"""Unit tests for the registry and root pinning."""

import pytest

from repro.errors import RegistryError
from repro.runtime.behaviors import SinkBehavior


@pytest.fixture
def world(make_world):
    return make_world(2, dgc=None)


def test_bind_marks_activity_as_root(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    activity = world.find_activity(proxy.activity_id)
    assert not activity.is_root
    world.registry.bind("service", proxy.ref)
    assert activity.is_root


def test_lookup_returns_bound_ref(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    world.registry.bind("service", proxy.ref)
    assert world.registry.lookup("service").activity_id == proxy.activity_id


def test_unbind_releases_root_pin(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    world.registry.bind("service", proxy.ref)
    world.registry.unbind("service")
    activity = world.find_activity(proxy.activity_id)
    assert not activity.is_root


def test_double_binding_same_activity_keeps_pin(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    world.registry.bind("one", proxy.ref)
    world.registry.bind("two", proxy.ref)
    world.registry.unbind("one")
    activity = world.find_activity(proxy.activity_id)
    assert activity.is_root
    world.registry.unbind("two")
    assert not activity.is_root


def test_aliased_unbind_order_does_not_matter(world):
    """The same ref bound under two names: whichever alias is unbound
    last releases the pin (refcounted, not last-writer-wins)."""
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    activity = world.find_activity(proxy.activity_id)
    world.registry.bind("one", proxy.ref)
    world.registry.bind("two", proxy.ref)
    world.registry.unbind("two")  # reverse order of binding
    assert activity.is_root
    world.registry.unbind("one")
    assert not activity.is_root
    # Rebinding re-pins from a clean slate.
    world.registry.bind("again", proxy.ref)
    assert activity.is_root


def test_unbind_dead_activity_does_not_raise_and_frees_name(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    world.registry.bind("service", proxy.ref)
    world.find_activity(proxy.activity_id).terminate("explicit")
    world.registry.unbind("service")  # must not raise
    assert world.registry.resolve("service") is None
    # The released name is immediately rebindable.
    fresh = driver.context.create(SinkBehavior(), name="svc2")
    world.registry.bind("service", fresh.ref)
    assert world.find_activity(fresh.activity_id).is_root


def test_aliased_dead_activity_unbind_keeps_books_consistent(world):
    """Dead target bound under two aliases: both unbinds succeed and the
    pin refcount drains to zero without touching the dead activity."""
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc")
    activity_id = proxy.activity_id
    world.registry.bind("one", proxy.ref)
    world.registry.bind("two", proxy.ref)
    world.find_activity(activity_id).terminate("explicit")
    world.registry.unbind("one")
    world.registry.unbind("two")
    assert world.registry.pin_count(activity_id) == 0
    assert world.registry.names() == []


def test_bind_duplicate_name_rejected(world):
    driver = world.create_driver()
    a = driver.context.create(SinkBehavior(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    world.registry.bind("x", a.ref)
    with pytest.raises(RegistryError):
        world.registry.bind("x", b.ref)


def test_lookup_missing_rejected(world):
    with pytest.raises(RegistryError):
        world.registry.lookup("ghost")


def test_unbind_missing_rejected(world):
    with pytest.raises(RegistryError):
        world.registry.unbind("ghost")


def test_bind_dead_activity_rejected(world):
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="a")
    world.find_activity(proxy.activity_id).terminate("explicit")
    with pytest.raises(RegistryError):
        world.registry.bind("x", proxy.ref)


def test_names_sorted(world):
    driver = world.create_driver()
    a = driver.context.create(SinkBehavior(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    world.registry.bind("zeta", a.ref)
    world.registry.bind("alpha", b.ref)
    assert world.registry.names() == ["alpha", "zeta"]


def test_shard_of_an_unknown_node_is_an_error_not_a_new_shard(world):
    """Shards are built per node: a typo must not mint a phantom shard
    nothing ever serves."""
    for _ in range(2):
        with pytest.raises(RegistryError, match="typo"):
            world.registry.shard("typo")


def test_shard_is_the_nodes_own_endpoint(world):
    for name, node in world.nodes.items():
        assert world.registry.shard(name) is node.registry_shard


def test_non_local_topology_node_keeps_a_shard(make_world):
    """A sharded world hosts only its node group but shares the
    topology: the control plane may still address any authority."""
    world = make_world(3, dgc=None, local_nodes=["site-1"])
    assert list(world.nodes) == ["site-1"]
    remote = world.registry.shard("site-0")
    assert remote is world.registry.shard("site-0")
    assert remote.node_name == "site-0" and remote.pending is None
    with pytest.raises(RegistryError):
        world.registry.shard("site-3")


# ----------------------------------------------------------------------
# Registry lookups over the fabric (registry.lookup / registry.reply)
# ----------------------------------------------------------------------


def test_lookup_via_fabric_resolves_future_with_proxy(world):
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    driver_activity = world.find_activity(driver.id)
    future = driver_activity.context.lookup("service")
    assert not future.resolved
    world.run_for(1.0)
    assert future.resolved
    proxy = future.value
    assert proxy.activity_id == svc.activity_id
    # The stub was acquired through the deserialization hook: the DGC
    # edge exists and the proxy is held by the looker-up.
    assert driver_activity.proxies.holds(svc.activity_id)


def test_lookup_via_fabric_is_accounted_as_registry_traffic(world):
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    driver_activity = world.find_activity(driver.id)
    driver_activity.context.lookup("service")
    world.run_for(1.0)
    sizes = world.wire_sizes
    assert world.accountant.registry_bytes == (
        sizes.registry_lookup_size() + sizes.registry_reply_size(True)
    )


def test_lookup_via_fabric_unbound_name_resolves_none(world):
    driver = world.create_driver(node="site-1")
    driver_activity = world.find_activity(driver.id)
    future = driver_activity.context.lookup("nothing-here")
    world.run_for(1.0)
    assert future.resolved
    assert future.value is None


def test_ctx_lookup_from_registry_home_node_is_free(world):
    """A lookup from the registry's own node is intra-node traffic:
    resolved at the same instant, not accounted."""
    driver = world.create_driver(node=world.registry.home_node)
    svc = driver.context.create(SinkBehavior(), node="site-1", name="svc")
    world.registry.bind("service", svc.ref)
    future = world.find_activity(driver.id).context.lookup("service")
    world.run_for(0.1)
    assert future.resolved
    assert world.accountant.registry_bytes == 0


def test_lookup_reply_to_terminated_caller_is_dead_lettered(world):
    driver = world.create_driver(node="site-1")
    looker = driver.context.create(SinkBehavior(), node="site-1", name="lk")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    looker_activity = world.find_activity(looker.activity_id)
    future = looker_activity.context.lookup("service")
    looker_activity.terminate("explicit")
    world.run_for(1.0)
    assert not future.resolved
    assert world.nodes["site-1"].dead_letter_count >= 1
