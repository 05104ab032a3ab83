"""Roots (Sec. 4.1): registered activities and dummy referencers are
never collected; unbinding releases them to the collector."""

from repro.core import events
from repro.core.config import DgcConfig
from repro.runtime.behaviors import SinkBehavior
from repro.workloads.app import Peer, link, release_all


def test_registered_activity_survives_unreferenced(make_world, fast_dgc):
    world = make_world()
    driver = world.create_driver()
    service = driver.context.create(Peer(), name="service")
    world.registry.bind("svc", service.ref)
    world.run_for(1.0)
    release_all(driver, [service])
    world.run_for(40 * fast_dgc.tta)
    assert world.find_activity(service.activity_id) is not None


def test_unbound_activity_becomes_collectable(make_world, fast_dgc):
    world = make_world()
    driver = world.create_driver()
    service = driver.context.create(Peer(), name="service")
    world.registry.bind("svc", service.ref)
    world.run_for(1.0)
    release_all(driver, [service])
    world.run_for(10 * fast_dgc.tta)
    world.registry.unbind("svc")
    assert world.run_until_collected(40 * fast_dgc.tta)
    assert world.stats.collected_acyclic == 1


def test_registered_root_keeps_its_cycle_alive(make_world, fast_dgc):
    world = make_world()
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    link(driver, b, a)
    world.registry.bind("svc", a.ref)
    world.run_for(2.0)
    release_all(driver, [a, b])
    world.run_for(40 * fast_dgc.tta)
    assert len(world.live_non_roots()) == 1  # b, pinned via root a
    assert world.find_activity(b.activity_id) is not None
    world.registry.unbind("svc")
    assert world.run_until_collected(60 * fast_dgc.tta)
    assert world.stats.collected_cyclic == 2


def test_driver_is_a_dummy_root(make_world, fast_dgc):
    world = make_world()
    driver = world.create_driver()
    world.run_for(40 * fast_dgc.tta)
    assert world.find_activity(driver.id) is not None
    assert not driver.is_idle()


def test_lookup_then_acquire_creates_edge(make_world, fast_dgc):
    world = make_world()
    driver = world.create_driver()
    service = driver.context.create(Peer(), name="service")
    world.registry.bind("svc", service.ref)
    release_all(driver, [service])
    # A different party looks the service up and holds it.
    client_proxy = driver.context.create(Peer(), name="client")
    client = world.find_activity(client_proxy.activity_id)
    looked_up = client.context.acquire(world.registry.lookup("svc"))
    assert client.proxies.holds(service.activity_id)
    world.registry.unbind("svc")
    world.run_for(40 * fast_dgc.tta)
    # Still alive: the client (held by the root driver) references it.
    assert world.find_activity(service.activity_id) is not None


def test_lookup_over_fabric_creates_live_dgc_edge(make_world, fast_dgc):
    """A behavior yields ``ctx.lookup(name)``; the acquired stub is a
    real reference-graph edge the DGC honours: the service stays alive
    while held and collects after the holder drops it and unbinds."""
    from repro.runtime.behaviors import Behavior

    class LookerUp(Behavior):
        def do_find(self, ctx, request, proxies):
            future = ctx.lookup("svc")
            yield future
            self.found = ctx.keep(future.value)
            return None

        def do_forget(self, ctx, request, proxies):
            ctx.drop(self.found)
            return None

    world = make_world()
    driver = world.create_driver()
    service = driver.context.create(Peer(), node="site-1", name="service")
    world.registry.bind("svc", service.ref)
    looker = driver.context.create(LookerUp(), node="site-2", name="looker")
    driver.context.call(looker, "find")
    world.run_for(2.0)
    world.registry.unbind("svc")
    release_all(driver, [service])
    # Held through the looked-up stub (the looker stays pinned by the
    # driver): the service survives well past TTA.
    world.run_for(20 * fast_dgc.tta)
    assert world.find_activity(service.activity_id) is not None
    driver.context.call(looker, "forget")
    world.run_for(1.0)
    release_all(driver, [looker])
    assert world.run_until_collected(60 * fast_dgc.tta)
    assert world.accountant.registry_bytes > 0


def test_terminating_a_bound_activity_leaves_no_live_non_root(make_world):
    """A non-root made a root by a binding, then terminated explicitly
    while still bound, is subtracted from the live non-root count: it was
    counted at creation, as a non-root."""
    world = make_world()
    driver = world.create_driver()
    sink = driver.context.create(SinkBehavior(), name="sink")
    world.registry.bind("sink", sink.ref)
    activity = world.find_activity(sink.activity_id)
    assert activity.is_root and world.live_non_root_count == 1
    activity.terminate(events.REASON_EXPLICIT)
    assert world.live_non_roots() == []
    assert world.live_non_root_count == 0
    assert world.all_collected()


def test_root_created_activity_stays_a_root_after_unbind(make_world):
    """Unbinding a name gives the activity back the status it was created
    with: one created as a root stays a root, and is never collected."""
    world = make_world(dgc=DgcConfig(ttb=1, tta=3))
    sink = world.create_activity(SinkBehavior(), name="sink", root=True)
    world.registry.bind("sink", sink.context.self_ref())
    world.run_for(1.0)
    world.registry.unbind("sink")
    world.run_for(10.0)
    assert world.find_activity(sink.id) is sink
    assert world.stats.collected_acyclic == world.stats.collected_cyclic == 0
    assert sink.is_root
