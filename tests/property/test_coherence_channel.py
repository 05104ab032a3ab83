"""The beat-quantized coherence channel stays inside the protocol-safe
reordering class, and its staleness bound holds in live worlds.

Two layers:

1. **Queue mechanics**: for random update sequences, the flush
   schedule is a protocol-safe reordering — in the :mod:`tests.reorder`
   sense — of the *surviving* eager schedule (the last-writer-wins
   filter applied per beat window), over the registry's natural FIFO
   streams: one per (destination, name).  A receiving shard folds every
   coherence message into per-name state (``replica[name]``, a cache
   drop), so per-name order is the whole ordering contract, exactly as
   per-referencer order is the DGC's.  Deliveries only ever *defer*
   (flush instant >= staging instant) and the flush clock is monotone.
   Both stores are driven: the per-holder queues directly, and the
   fan-out log through a ``replicated`` primary's own staging path,
   whose eager schedule is one delivery per (update, replica node).  A
   schedule that hands batches out earlier than their staging instants
   is rejected by the same predicate — the test has teeth.  The two
   stores never mix: a ``replicated`` world fills no holder queue.

2. **Live staleness bound**: in a real world under ``coherence="beat"``
   a cached holder keeps serving an unbound name for at most one lease
   beat plus one propagation delay — the invalidation is staged at
   unbind time and flushed by the next egress beat.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.runtime.registry import CoherenceChannel
from repro.workloads.naming import run_naming
from tests.reorder import find_violation


# ----------------------------------------------------------------------
# 1. Queue mechanics: flush order is protocol-safe per (dest, name)
# ----------------------------------------------------------------------

AUTHORITY = "auth"
DESTS = ("n1", "n2", "n3")
NAMES = tuple(f"svc-{i}" for i in range(5))
BEAT = 1.0


def _random_ops(rng: random.Random, count: int):
    """A time-ordered random holder-update sequence ``(t, (dest,), name,
    ref)`` (``ref=None`` = invalidate) with frequent same-(dest, name)
    re-stagings so coalescing actually triggers."""
    ops = []
    clock = 0.0
    for seq in range(count):
        clock += rng.random() * 0.3
        ref = None if rng.random() < 0.5 else f"ref#{seq}"
        ops.append((clock, (rng.choice(DESTS),), rng.choice(NAMES), ref))
    return ops


def _holder_run(rng: random.Random, count: int):
    """``(channel, ops, stage, counts)`` for a bare channel's holder
    queues; ``counts()`` is ``(staged, coalesced)`` constituents."""
    channel = CoherenceChannel()
    staged = [0, 0]

    def stage(dests, name, ref):
        staged[0] += 1
        staged[1] += channel.stage(dests[0], name, ref)

    return channel, _random_ops(rng, count), stage, lambda: tuple(staged)


def _fanout_run(make_world, rng: random.Random, count: int):
    """``(channel, ops, stage, counts)`` for a ``replicated`` primary:
    random control-plane binds and unbinds (each name toggles), staged
    into the fan-out log and counted by the naming service itself."""
    world = make_world(
        4, dgc=None, registry=RegistryConfig(placement="replicated")
    )
    naming = world.registry
    driver = world.create_driver()
    refs = [
        driver.context.create(SinkBehavior(), name=f"target-{i}").ref
        for i in range(3)
    ]
    channel = naming.shard(naming.home_node).channel
    ops = []
    bound = set()
    clock = 0.0
    for _ in range(count):
        clock += rng.random() * 0.3
        name = rng.choice(NAMES)
        ref = None if name in bound else rng.choice(refs)
        bound ^= {name}
        ops.append((clock, channel.fanout, name, ref))

    def stage(dests, name, ref):
        if ref is None:
            naming.unbind(name)
        else:
            naming.bind(name, ref)

    def counts():
        return naming.coherence_staged, naming.coherence_coalesced

    return channel, ops, stage, counts


def _replay(channel, ops, stage, *, flush_at_window_start=False):
    """Drive ``channel`` through ``ops`` (``(t, dests, name, ref)``,
    staged by ``stage``) with a flush every ``BEAT``; return
    ``(survivors, flushed)`` delivery records ``(time, dest, name,
    ref)``.

    ``survivors`` is the last-writer-wins filter of the eager schedule:
    per beat window, only the final update per (dest, name), at its own
    staging instant.  ``flushed`` is what the channel hands to the wire,
    stamped with the flush instant — or, with ``flush_at_window_start``,
    with the *window-opening* instant (an unsafe, hasty schedule used as
    the negative control)."""
    survivors = []
    flushed = []
    window = {}  # (dest, name) -> (t, dest, name, ref)
    boundary = BEAT

    def flush(at):
        survivors.extend(
            sorted(window.values(), key=lambda record: record[0])
        )
        window.clear()
        stamp = at - BEAT if flush_at_window_start else at
        for dests, invalidates, pushes in channel.flush():
            for dest in dests:
                for name in invalidates:
                    flushed.append((stamp, dest, name, None))
                for name, ref in pushes:
                    flushed.append((stamp, dest, name, ref))

    for t, dests, name, ref in ops:
        while t >= boundary:
            flush(boundary)
            boundary += BEAT
        stage(dests, name, ref)
        for dest in dests:
            window[(dest, name)] = (t, dest, name, ref)
    flush(boundary)
    return survivors, flushed


def _check(survivors, flushed):
    return find_violation(
        survivors,
        flushed,
        key=lambda record: (AUTHORITY, record[1], record[2]),
        time=lambda record: record[0],
        ident=lambda record: (record[2], record[3]),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_flush_schedule_is_protocol_safe_per_dest_name_stream(seed):
    rng = random.Random(seed)
    for _ in range(20):
        channel, ops, stage, counts = _holder_run(rng, rng.randrange(1, 60))
        survivors, flushed = _replay(channel, ops, stage)
        violation = _check(survivors, flushed)
        assert violation is None, violation
        # Every staged constituent either crossed the wire or coalesced.
        staged, coalesced = counts()
        assert staged - coalesced == len(flushed)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fanout_log_flush_is_protocol_safe_per_dest_name_stream(
    make_world, seed
):
    """The fan-out log holds one entry per name for every replica, and
    each replica's flushed sequence is still the last-writer-wins,
    deferral-only reordering of its own eager schedule."""
    rng = random.Random(seed)
    for _ in range(10):
        channel, ops, stage, counts = _fanout_run(
            make_world, rng, rng.randrange(1, 60)
        )
        survivors, flushed = _replay(channel, ops, stage)
        violation = _check(survivors, flushed)
        assert violation is None, violation
        staged, coalesced = counts()
        assert staged == len(ops) * len(channel.fanout)
        assert staged - coalesced == len(flushed)
        assert not channel.queues


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_hasty_flush_is_rejected_by_the_same_predicate(make_world, seed):
    """Stamping batches with the window-opening instant moves survivors
    *earlier* than their staging time — the predicate must catch it
    whenever a window contains a strictly-later staging, for either
    store."""
    rng = random.Random(seed)
    for run in (_holder_run, lambda rng, count: _fanout_run(
        make_world, rng, count
    )):
        caught = 0
        for _ in range(10):
            channel, ops, stage, _ = run(rng, 40)
            survivors, hasty = _replay(
                channel, ops, stage, flush_at_window_start=True
            )
            if _check(survivors, hasty) is not None:
                caught += 1
        assert caught > 0


def test_replicated_world_never_fills_a_holder_queue():
    """The fan-out log and the per-holder queues never mix, which is
    what keeps each flush last-writer-wins per (destination, name):
    ``replicated`` placement grants no leases even when asked for them,
    so every constituent a primary stages is a fan-out one."""
    reset_id_counter()
    nodes = 4
    result = run_naming(
        dgc=DgcConfig(ttb=2.0, tta=6.0),
        registry=RegistryConfig(
            placement="replicated", lease_ttb=4, lease_beat_s=1.0
        ),
        client_count=6, service_count=4, name_count=12, churn_burst=2,
        duration=30.0, lookup_period=1.0, lookup_burst=2, churn_period=2.0,
        topology=uniform_topology(nodes), seed=3, keep_world=True,
    )
    naming = result.world.registry
    assert naming.lease_grants == 0
    updates = naming.binds_applied + naming.unbinds_applied
    assert naming.coherence_staged == updates * (nodes - 1) > 0


def test_flush_batches_have_disjoint_invalidate_and_push_names():
    channel = CoherenceChannel()
    coalesced = [
        channel.stage("n1", "a", "ref-1"),
        channel.stage("n1", "b", None),
        channel.stage("n1", "a", None),     # bind then unbind: invalidate wins
        channel.stage("n1", "b", "ref-2"),  # unbind then rebind: push wins
    ]
    assert channel.pending() == 2
    ((dests, invalidates, pushes),) = channel.flush()
    assert dests == ("n1",)
    assert set(invalidates) == {"a"}
    assert pushes == (("b", "ref-2"),)
    assert coalesced == [False, False, True, True]
    assert channel.empty


def test_last_writer_wins_within_one_beat():
    """A whole churn burst on one name collapses to its final state."""
    channel = CoherenceChannel()
    coalesced = 0
    for round_ in range(10):
        coalesced += channel.stage("n1", "hot", None)
        coalesced += channel.stage("n1", "hot", f"ref#{round_}")
    ((_, invalidates, pushes),) = channel.flush()
    assert invalidates == ()
    assert pushes == (("hot", "ref#9"),)
    assert coalesced == 19


def test_supersede_withdraws_only_that_holders_update():
    """A lease grant withdraws the grantee's staged update of the name
    and nothing else; a holder queue it empties goes with it, so an
    otherwise drained channel reads empty (the egress beat stops)."""
    channel = CoherenceChannel()
    channel.stage("n1", "a", None)
    channel.stage("n1", "b", None)
    channel.stage("n2", "a", None)
    assert channel.supersede("n1", "a")
    assert not channel.supersede("n1", "a")   # already withdrawn
    assert not channel.supersede("n3", "a")   # nothing staged for n3
    assert channel.pending() == 2
    assert channel.flush() == [
        (("n1",), ("b",), ()),
        (("n2",), ("a",), ()),
    ]
    channel.stage("n1", "c", "ref-1")
    assert channel.supersede("n1", "c")
    assert channel.empty
    assert channel.flush() == []


# ----------------------------------------------------------------------
# 2. Live staleness bound: at most one beat + one propagation delay
# ----------------------------------------------------------------------


class _Prober(Behavior):
    """Polls one name on a tight period, recording each hit instant."""

    def __init__(self, name: str, deadline: float) -> None:
        self.name = name
        self.deadline = deadline
        self.hit_times = []

    def on_start(self, ctx):
        while ctx.now < self.deadline:
            yield ctx.sleep(0.1)
            future = ctx.lookup(self.name)
            future.on_resolve(lambda f: self._consume(ctx, f))
        return None

    def _consume(self, ctx, future) -> None:
        proxy = future.value
        if proxy is not None:
            self.hit_times.append(ctx.now)
            ctx.drop(proxy)


LEASE_BEAT = 2.0


@pytest.mark.parametrize("unbind_at", [7.3, 9.0, 11.6])
def test_cached_holder_staleness_bounded_by_one_lease_beat(
    make_world, unbind_at
):
    """After the authority unbinds, a lease-cache holder under beat
    coherence serves the stale entry for at most one lease beat plus
    one propagation delay (the invalidation stages at unbind time and
    flushes by the next egress beat)."""
    world = make_world(
        4,
        dgc=None,
        registry=RegistryConfig(
            lease_ttb=10**6, lease_beat_s=LEASE_BEAT, coherence="beat"
        ),
    )
    nodes = world.topology.nodes
    driver = world.create_driver()
    proxy = driver.context.create(SinkBehavior(), name="svc", node=nodes[0])
    world.registry.bind("svc", proxy.ref)
    prober = _Prober("svc", deadline=unbind_at + 4 * LEASE_BEAT)
    # The prober lives away from the authority so hits come from its
    # lease cache, not the authoritative table.
    world.create_activity(
        prober, node=nodes[2], name="prober", root=True, dgc_enabled=False
    )
    world.kernel.schedule_fire_at(
        unbind_at, lambda: world.registry.unbind("svc"), ()
    )
    world.run_for(unbind_at + 6 * LEASE_BEAT)

    naming = world.registry
    assert naming.cache_hits > 0, "probe never exercised the lease cache"
    assert naming.coherence_staged > 0
    stale = [t for t in prober.hit_times if t > unbind_at]
    assert stale, "no stale window at all — the bound is vacuous here"
    propagation_slack = 0.5
    bound = unbind_at + LEASE_BEAT + propagation_slack
    assert max(prober.hit_times) <= bound, (
        f"stale hit at {max(prober.hit_times)} exceeds the one-beat bound "
        f"{bound}"
    )


class _Looker(Behavior):
    """Looks names up at fixed instants: ``plan`` is ``[(at, name)]``."""

    def __init__(self, plan) -> None:
        self.plan = plan

    def on_start(self, ctx):
        for at, name in self.plan:
            yield ctx.sleep(at - ctx.now)
            future = ctx.lookup(name)
            future.on_resolve(lambda f: self._consume(ctx, f))
        return None

    @staticmethod
    def _consume(ctx, future) -> None:
        if future.value is not None:
            ctx.drop(future.value)


def test_lease_grant_outruns_the_staged_invalidation(make_world):
    """Regression: a holder whose cached entry is gone (evicted from a
    one-entry cache) looks a name up again after an unbind and rebind
    but before the egress beat.  The lease reply caches the new
    binding; the invalidation staged at unbind time is older than that
    reply and must not follow it and drop the fresh entry — the eager
    schedule sends it first, so beat coherence must withdraw it."""
    world = make_world(
        4,
        dgc=None,
        registry=RegistryConfig(
            lease_ttb=10**6, lease_beat_s=LEASE_BEAT, cache_size=1,
            coherence="beat",
        ),
    )
    nodes = world.topology.nodes
    driver = world.create_driver()
    old, fresh, other = (
        driver.context.create(SinkBehavior(), name=label, node=nodes[0])
        for label in ("old", "fresh", "other")
    )
    naming = world.registry
    naming.bind("svc", old.ref)
    naming.bind("other", other.ref)
    holder = nodes[2]
    # "other" evicts "svc" from the holder's cache, but the authority
    # still books the holder as a lease holder of "svc".
    world.create_activity(
        _Looker([(1.0, "svc"), (2.0, "other"), (4.2, "svc")]),
        node=holder, name="looker", root=True, dgc_enabled=False,
    )

    def rebind() -> None:
        naming.unbind("svc")
        naming.bind("svc", fresh.ref)

    world.kernel.schedule_fire_at(4.1, rebind, ())
    world.run_for(4.1 + 3 * LEASE_BEAT)

    assert naming.remote_lookups == 3, "every lookup must miss the cache"
    assert naming.coherence_staged == 1
    assert naming.coherence_staged == (
        naming.coherence_coalesced + naming.coherence_names_sent
    )
    entry = naming.shard(holder).cache.entries.get("svc")
    assert entry is not None, "the staged invalidation dropped the fresh entry"
    assert entry[0].activity_id == fresh.ref.activity_id
