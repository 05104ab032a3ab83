"""Integration tests for the naming service as a fabric subsystem:
bind/unbind over the wire, lease caching with explicit invalidation and
renewal, replica pushes, hashed authorities, and the in-flight-miss
semantics of ``ctx.lookup``.
"""

import pytest

from repro.core.config import RegistryConfig
from repro.net.kinds import (
    KIND_REGISTRY_BIND,
    KIND_REGISTRY_INVALIDATE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_RENEW,
)
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.future import reset_future_ids
from repro.runtime.ids import reset_id_counter
from repro.runtime.registry import ACKED, REJECTED
from repro.shard.worker import REGISTRY_COUNTERS
from repro.workloads.app import release_all


CACHED = RegistryConfig(lease_ttb=10, lease_beat_s=1.0)


# ----------------------------------------------------------------------
# bind/unbind over the fabric
# ----------------------------------------------------------------------


def test_fabric_bind_pins_root_at_authority(make_world):
    world = make_world(3, dgc=None)
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-2", name="svc")
    future = driver.context.bind("service", svc)
    assert not future.resolved  # the authority is remote
    world.run_for(1.0)
    assert future.value is True
    assert world.find_activity(svc.activity_id).is_root
    assert world.registry.resolve("service").activity_id == svc.activity_id
    assert world.accountant.bytes_for(KIND_REGISTRY_BIND) > 0


def test_fabric_bind_conflict_is_nacked(make_world):
    world = make_world(3, dgc=None)
    driver = world.create_driver(node="site-1")
    a = driver.context.create(SinkBehavior(), node="site-2", name="a")
    b = driver.context.create(SinkBehavior(), node="site-2", name="b")
    first = driver.context.bind("service", a)
    second = driver.context.bind("service", b)
    world.run_for(1.0)
    assert first.value is True
    assert second.value is False
    assert not world.find_activity(b.activity_id).is_root


def test_fabric_unbind_releases_pin_and_unknown_name_is_nacked(make_world):
    world = make_world(3, dgc=None)
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-2", name="svc")
    bind = driver.context.bind("service", svc)
    world.run_for(1.0)
    assert bind.value is True
    unbind = driver.context.unbind("service")
    ghost = driver.context.unbind("ghost")
    world.run_for(1.0)
    assert unbind.value is True
    assert ghost.value is False
    assert not world.find_activity(svc.activity_id).is_root


@pytest.mark.parametrize("placement", ["home", "replicated", "hashed"])
def test_bind_takes_a_stub_or_its_remote_ref_alike(make_world, placement):
    """``ctx.bind`` is :meth:`NamingService.bind_from`, which unwraps a
    :class:`Proxy` itself: binding every service by its stub or by its
    ``RemoteRef`` gives the same futures (the shared ``ACKED`` /
    ``REJECTED`` at the authority, fresh ids elsewhere), counters,
    traffic and tables, a conflicting name included."""

    def run(by_ref):
        reset_id_counter()
        reset_future_ids()
        world = make_world(
            4, dgc=None, registry=RegistryConfig(placement=placement)
        )
        futures = []
        for index, node in enumerate(list(world.nodes)):
            driver = world.create_driver(node=node, name=f"driver{index}")
            svc = driver.context.create(SinkBehavior(), name=f"svc{index}")
            for name in (f"svc-{index}", "shared"):
                futures.append(
                    driver.context.bind(name, svc.ref if by_ref else svc)
                )
        issued = [
            (future is ACKED, future is REJECTED, future.future_id)
            for future in futures
        ]
        world.run_for(5.0)
        registry = world.registry
        return (
            issued,
            [future.value for future in futures],
            {name: getattr(registry, name) for name in REGISTRY_COUNTERS},
            world.accountant.summary(),
            {
                node: (dict(registry.shard(node).authority),
                       dict(registry.shard(node).replica))
                for node in world.nodes
            },
        )

    by_stub = run(by_ref=False)
    assert by_stub == run(by_ref=True)
    values = by_stub[1]
    assert values.count(True) == 5 and values.count(False) == 3


def test_fabric_bind_from_authority_node_is_free_and_immediate(make_world):
    """Applied at the caller's own node, a bind or unbind answers with
    :data:`ACKED` or :data:`REJECTED`, the same two resolved objects
    every time, and sends nothing."""
    world = make_world(3, dgc=None)
    driver = world.create_driver(node=world.registry.home_node)
    svc = driver.context.create(SinkBehavior(), node="site-2", name="svc")
    ctx = driver.context
    future = ctx.bind("service", svc)
    assert future is ACKED and future.resolved and future.value is True
    assert ctx.bind("service", svc) is REJECTED        # already bound
    assert REJECTED.value is False
    assert ctx.bind("alias", svc.ref) is ACKED
    assert ctx.unbind("service") is ACKED
    assert ctx.unbind("service") is REJECTED           # no longer bound
    assert world.registry.pin_count(svc.activity_id) == 1
    assert world.accountant.bytes_for(KIND_REGISTRY_BIND) == 0


@pytest.mark.parametrize("placement", ["home", "replicated"])
def test_local_lookup_is_born_resolved_with_its_stub(make_world, placement):
    """A lookup served at the call site — from the authority table at
    the home node, or from the local replica — returns a future already
    resolved: ``.value`` is the acquired stub and ``.refs`` holds just
    it; a local miss is ``None`` with no refs.  No id is drawn."""
    world = make_world(
        3, dgc=None,
        registry=RegistryConfig(placement=placement, lease_beat_s=1.0),
    )
    home = world.registry.home_node
    node = home if placement == "home" else "site-2"
    driver = world.create_driver(node=node)
    svc = driver.context.create(SinkBehavior(), node="site-1", name="svc")
    world.registry.bind("service", svc.ref)
    world.run_for(2.0)                                 # replicas flushed
    ctx = driver.context
    hit = ctx.lookup("service")
    assert hit.resolved and hit.future_id == 0
    assert hit.value.activity_id == svc.activity_id
    assert hit.refs == (hit.value,)
    assert ctx.holds(svc.activity_id)
    naming = world.registry
    assert (naming.replica_hits, naming.authority_hits) == (
        (1, 0) if placement == "replicated" else (0, 1)
    )
    miss = ctx.lookup("nothing-here")
    assert miss.resolved and miss.future_id == 0
    assert miss.value is None and miss.refs == ()
    assert world.accountant.bytes_for(KIND_REGISTRY_LOOKUP) == 0


# ----------------------------------------------------------------------
# In-flight misses (a name bound after the lookup is issued)
# ----------------------------------------------------------------------


def test_lookup_sees_bind_that_lands_before_serving(make_world):
    """Lookups are served against shard state at *serve* time: a bind
    applied while the lookup is still in flight resolves it."""
    world = make_world(2, dgc=None)
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    future = driver.context.lookup("service")          # issued first...
    world.registry.bind("service", svc.ref)            # ...bound at once
    world.run_for(1.0)                                 # served after bind
    assert future.value.activity_id == svc.activity_id


def test_lookup_served_before_bind_is_a_negative_reply_and_retry_wins(
    make_world,
):
    """A name bound only *after* the authority served the lookup yields
    a negative reply (the future resolves ``None``, it is never held
    open); the caller retries and the retry resolves."""
    world = make_world(2, dgc=None)
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    future = driver.context.lookup("service")
    world.run_for(1.0)                                 # served: unbound
    assert future.resolved and future.value is None
    world.registry.bind("service", svc.ref)
    retry = driver.context.lookup("service")
    world.run_for(1.0)
    assert retry.value.activity_id == svc.activity_id


class RetryingLooker(Behavior):
    """A behavior-level retry loop over negative replies."""

    def __init__(self, period: float = 0.5) -> None:
        self.period = period
        self.attempts = 0
        self.found = None

    def do_find(self, ctx, request, proxies):
        while self.found is None:
            self.attempts += 1
            future = ctx.lookup("service")
            yield future
            if future.value is not None:
                self.found = ctx.keep(future.value)
                return None
            yield ctx.sleep(self.period)
        return None


def test_behavior_retry_loop_converges_after_late_bind(make_world):
    world = make_world(2, dgc=None)
    driver = world.create_driver(node="site-0")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    looker_behavior = RetryingLooker()
    looker = driver.context.create(
        looker_behavior, node="site-1", name="looker"
    )
    driver.context.call(looker, "find")
    world.run_for(2.0)                                 # several misses
    assert looker_behavior.attempts >= 2
    assert looker_behavior.found is None
    world.registry.bind("service", svc.ref)
    world.run_for(2.0)
    assert looker_behavior.found is not None
    looker_activity = world.find_activity(looker.activity_id)
    assert looker_activity.proxies.holds(svc.activity_id)


# ----------------------------------------------------------------------
# Lease caching: hits, explicit invalidation, expiry, renewal
# ----------------------------------------------------------------------


def test_cache_hit_serves_locally_and_invalidation_restores_misses(
    make_world,
):
    world = make_world(
        2, dgc=None, registry=CACHED.with_overrides(coherence="eager")
    )
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    ctx = world.find_activity(driver.id).context

    first = ctx.lookup("service")                      # remote warm-up
    world.run_for(0.5)
    assert first.value.activity_id == svc.activity_id
    lookup_bytes = world.accountant.bytes_for(KIND_REGISTRY_LOOKUP)

    second = ctx.lookup("service")                     # leased cache hit
    assert second.resolved                             # immediate
    assert second.value.activity_id == svc.activity_id
    assert world.registry.cache_hits == 1
    assert world.accountant.bytes_for(KIND_REGISTRY_LOOKUP) == lookup_bytes

    world.registry.unbind("service")
    # The invalidation is in flight: a resolve in this window is a stale
    # hit — the documented lease-consistency window (at most one
    # propagation delay).
    stale = ctx.lookup("service")
    assert stale.resolved and stale.value is not None
    world.run_for(0.5)                                 # invalidate lands
    assert world.accountant.bytes_for(KIND_REGISTRY_INVALIDATE) > 0
    after = ctx.lookup("service")
    assert not after.resolved                          # cache was dropped
    world.run_for(0.5)
    assert after.value is None


def test_unused_lease_expires_without_renewal(make_world):
    world = make_world(
        2, dgc=None, registry=RegistryConfig(lease_ttb=2, lease_beat_s=1.0)
    )
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    ctx = world.find_activity(driver.id).context
    warm = ctx.lookup("service")
    world.run_for(0.5)
    assert warm.value is not None
    assert len(world.registry.shard("site-1").cache) == 1
    world.run_for(4.0)                                 # > lease, unused
    assert len(world.registry.shard("site-1").cache) == 0
    assert world.registry.renew_messages_sent == 0
    assert world.registry.lease_expiries == 1
    # The next resolve goes remote again.
    again = ctx.lookup("service")
    assert not again.resolved


def test_used_lease_renews_through_the_beat_wheel(make_world):
    world = make_world(
        2, dgc=None, registry=RegistryConfig(lease_ttb=2, lease_beat_s=1.0)
    )
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    ctx = world.find_activity(driver.id).context
    warm = ctx.lookup("service")
    world.run_for(0.4)
    assert warm.value is not None
    # Keep using the entry across several lease periods: the sweeps
    # batch renewals and the entry never lapses.
    for _ in range(10):
        hit = ctx.lookup("service")
        assert hit.resolved and hit.value is not None
        world.run_for(0.6)
    assert world.registry.renew_messages_sent >= 3
    assert world.accountant.bytes_for(KIND_REGISTRY_RENEW) > 0
    assert world.registry.lease_expiries == 0
    assert len(world.registry.shard("site-1").cache) == 1


def test_renewal_of_vanished_name_comes_back_as_invalidation(make_world):
    world = make_world(
        2, dgc=None, registry=RegistryConfig(lease_ttb=2, lease_beat_s=1.0)
    )
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    ctx = world.find_activity(driver.id).context
    warm = ctx.lookup("service")
    world.run_for(0.4)
    assert warm.value is not None
    # Drop the authority's lease book entry silently (as if the holder
    # set was forgotten), then unbind: no push-invalidation reaches the
    # client, so its next *renewal* must be answered with one.
    world.registry.shard("site-0").lease_holders.clear()
    world.registry.unbind("service")
    for _ in range(4):
        ctx.lookup("service")                          # keep the entry used
        world.run_for(0.6)
    assert world.accountant.bytes_for(KIND_REGISTRY_INVALIDATE) > 0
    assert len(world.registry.shard("site-1").cache) == 0


# ----------------------------------------------------------------------
# Replicated and hashed placements
# ----------------------------------------------------------------------


def test_replicated_resolves_locally_after_push(make_world):
    world = make_world(
        3, dgc=None,
        registry=RegistryConfig(placement="replicated", coherence="eager"),
    )
    driver = world.create_driver(node="site-1")
    svc = driver.context.create(SinkBehavior(), node="site-2", name="svc")
    ctx = world.find_activity(driver.id).context

    early = ctx.lookup("service")                      # before the bind
    assert early.resolved and early.value is None      # local replica miss
    world.registry.bind("service", svc.ref)
    world.run_for(0.5)                                 # replica push lands
    hit = ctx.lookup("service")
    assert hit.resolved and hit.value.activity_id == svc.activity_id
    assert world.registry.replica_hits == 1
    assert world.registry.local_misses == 1   # the pre-bind resolve
    # No lookup ever crossed the wire; only bind pushes did.
    assert world.accountant.bytes_for(KIND_REGISTRY_LOOKUP) == 0
    assert world.accountant.bytes_for(KIND_REGISTRY_BIND) > 0

    world.registry.unbind("service")
    world.run_for(0.5)                                 # invalidations land
    gone = ctx.lookup("service")
    assert gone.resolved and gone.value is None
    assert world.accountant.bytes_for(KIND_REGISTRY_INVALIDATE) > 0


def test_hashed_lookup_routes_to_hash_authority(make_world):
    world = make_world(
        4, dgc=None, registry=RegistryConfig(placement="hashed")
    )
    naming = world.registry
    driver = world.create_driver(node="site-0")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    # Pick a name whose authority is *not* the client's node.
    name = next(
        f"svc-{i}" for i in range(64)
        if naming.authority_node(f"svc-{i}") != "site-0"
    )
    naming.bind(name, svc.ref)
    assert world.find_activity(svc.activity_id).is_root
    future = world.find_activity(driver.id).context.lookup(name)
    assert not future.resolved
    world.run_for(0.5)
    assert future.value.activity_id == svc.activity_id
    assert world.accountant.bytes_for(KIND_REGISTRY_LOOKUP) > 0


# ----------------------------------------------------------------------
# Cache hits are real DGC edges
# ----------------------------------------------------------------------


class Keeper(Behavior):
    def do_find(self, ctx, request, proxies):
        future = ctx.lookup("service")
        yield future
        self.found = ctx.keep(future.value)
        return None

    def do_forget(self, ctx, request, proxies):
        ctx.drop(self.found)
        return None


def test_cache_hit_creates_live_dgc_edge(make_world, fast_dgc):
    """A resolve served from the lease cache must create the same
    reference-graph edge a remote reply would: the service survives on
    the cached holder's edge alone, well past unbind and TTA."""
    world = make_world(2, registry=CACHED)
    driver = world.create_driver(node="site-0")
    svc = driver.context.create(SinkBehavior(), node="site-0", name="svc")
    world.registry.bind("service", svc.ref)
    warm = driver.context.create(Keeper(), node="site-1", name="warm")
    holder_behavior = Keeper()
    holder = driver.context.create(holder_behavior, node="site-1", name="hold")
    driver.context.call(warm, "find")                  # remote warm-up
    world.run_for(1.0)
    driver.context.call(holder, "find")                # leased cache hit
    world.run_for(1.0)
    assert world.registry.cache_hits >= 1
    assert world.find_activity(holder.activity_id).proxies.holds(
        svc.activity_id
    )
    driver.context.call(warm, "forget")
    world.run_for(1.0)
    world.registry.unbind("service")
    release_all(driver, [svc])
    world.run_for(20 * fast_dgc.tta)
    # Alive purely through the cache-hit edge.
    assert world.find_activity(svc.activity_id) is not None
    driver.context.call(holder, "forget")
    world.run_for(1.0)
    release_all(driver, [warm, holder])
    assert world.run_until_collected(60 * fast_dgc.tta)
