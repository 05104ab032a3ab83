"""Naming-service equivalence suites (the PR's acceptance gates).

Two independent claims:

1. **Delivery-mode equivalence, per placement mode** — the naming
   service is ordinary fabric traffic: for each placement (``home`` with
   leases, ``replicated``, ``hashed`` with leases) a fixed-seed naming
   run is bit-identical (full :class:`~repro.world.WorldStats` including
   per-activity collection instants, the complete tracer stream, and the
   bandwidth split) between the batched pulse transport and the
   per-event envelope baseline.

2. **Cache-transparency equivalence** — when leases never lapse mid-run,
   turning the lease cache on changes *where* resolves are served (and
   how many registry bytes cross the wire) but nothing the world can
   observe: ``WorldStats`` and the tracer stream are bit-identical
   between cached and uncached runs.  This holds because resolution is
   DGC-silent by construction on this workload: lookup clients hold no
   collector (external lookers pinned to services by the registry's
   root pin, not by reference edges) and every acquired stub is dropped
   inside the resolving kernel event — see
   :mod:`repro.workloads.naming`.
"""

import pytest

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.workloads.naming import run_naming
from tests.equiv import outcome_fingerprint, world_fingerprint

CONFIG = DgcConfig(ttb=2.0, tta=6.0)
NODES = 6
CLIENTS = 9
SERVICES = 5
DURATION = 50.0

PLACEMENTS = {
    "home": RegistryConfig(lease_ttb=3, lease_beat_s=2.0),
    "replicated": RegistryConfig(placement="replicated"),
    "hashed": RegistryConfig(placement="hashed", lease_ttb=3,
                             lease_beat_s=2.0),
}


def run(registry: RegistryConfig, seed: int, aggregation: str = "exact"):
    reset_id_counter()
    return run_naming(
        dgc=CONFIG,
        registry=registry,
        client_count=CLIENTS,
        service_count=SERVICES,
        duration=DURATION,
        lookup_period=3.0,
        lookup_burst=2,
        churn_period=6.0,
        topology=uniform_topology(NODES),
        seed=seed,
        aggregation=aggregation,
        trace=True,
        keep_world=True,
    )


def traffic_fingerprint(result):
    return (
        round(result.registry_bandwidth_mb, 9),
        round(result.total_bandwidth_mb, 9),
        round(result.dgc_bandwidth_mb, 9),
        result.resolves_issued,
        result.resolves_completed,
        result.hits,
        result.misses,
        round(result.mean_resolve_latency_s, 12),
        result.cache_hits,
        result.replica_hits,
        result.local_misses,
        result.remote_lookups,
        result.dead_letters,
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_placement_modes_bit_identical_batched_vs_per_event(placement, seed):
    registry = PLACEMENTS[placement]
    batched = run(registry, seed)
    per_event = run(registry, seed, aggregation="per-event")
    assert batched.all_collected and per_event.all_collected
    assert world_fingerprint(batched) == world_fingerprint(per_event)
    assert traffic_fingerprint(batched) == traffic_fingerprint(per_event)
    # The run exercised the mode's resolution machinery.
    if placement == "replicated":
        assert batched.replica_hits > 0
        assert batched.remote_lookups == 0
    else:
        assert batched.cache_hits > 0
        assert batched.remote_lookups > 0
    assert batched.resolves_completed == batched.resolves_issued > 0


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_relaxed_core_matches_per_event_outcomes(placement, seed):
    """Registry traffic rides exact pulses even under the relaxed tier
    (only DGC kinds are deferred), so the whole resolution story — not
    just the reachability verdicts — must match the per-event baseline."""
    registry = PLACEMENTS[placement]
    relaxed = run(registry, seed, aggregation="relaxed")
    per_event = run(registry, seed, aggregation="per-event")
    assert relaxed.all_collected and per_event.all_collected
    assert outcome_fingerprint(relaxed) == outcome_fingerprint(per_event)
    assert relaxed.resolves_issued == per_event.resolves_issued
    assert relaxed.resolves_completed == per_event.resolves_completed
    assert relaxed.hits == per_event.hits
    assert relaxed.misses == per_event.misses
    assert relaxed.binds_applied == per_event.binds_applied
    assert relaxed.unbinds_applied == per_event.unbinds_applied
    assert relaxed.world.network.relaxed_flush_count > 0


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_cached_vs_uncached_bit_identical_when_leases_outlive_run(seed):
    # One lease beat's TTL covers the whole run: nothing lapses mid-run.
    cached = run(RegistryConfig(lease_ttb=10**6, lease_beat_s=2.0), seed)
    uncached = run(RegistryConfig(), seed)
    assert cached.all_collected and uncached.all_collected
    assert world_fingerprint(cached) == world_fingerprint(uncached)
    # Same resolves, same outcomes — served from different places...
    assert cached.resolves_issued == uncached.resolves_issued
    assert cached.hits == uncached.hits
    assert cached.misses == uncached.misses
    assert cached.cache_hits > 0
    assert uncached.cache_hits == 0
    # ...which is the whole point: fewer bytes, lower resolve latency.
    assert cached.registry_bandwidth_mb < uncached.registry_bandwidth_mb
    assert (
        cached.mean_resolve_latency_s < uncached.mean_resolve_latency_s
    )


@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
def test_eager_vs_beat_coherence_world_identical(placement, seed):
    """The beat-quantized coherence channel changes only the registry's
    wire story.  Because resolution is DGC-silent on this workload and
    bind/unbind acks ride the same path in both modes, the equivalence
    is the *strongest* tier — full ``WorldStats`` (every collection
    instant) plus the raw tracer stream — not just outcomes, across
    every placement mode.  Client-visible hit/miss splits may differ
    inside the documented staleness window (replicated lookups can miss
    while a push is queued), so resolution counters are compared as
    issued/completed totals only."""
    eager = run(PLACEMENTS[placement], seed)
    beat = run(PLACEMENTS[placement].with_overrides(coherence="beat"), seed)
    assert eager.all_collected and beat.all_collected
    assert world_fingerprint(beat) == world_fingerprint(eager)
    assert outcome_fingerprint(beat) == outcome_fingerprint(eager)
    assert beat.world.stats.safety_violations == 0
    assert beat.resolves_issued == eager.resolves_issued
    assert beat.resolves_completed == eager.resolves_completed
    assert beat.binds_applied == eager.binds_applied
    assert beat.unbinds_applied == eager.unbinds_applied
    # The channel actually carried the coherence fan-out...
    assert beat.coherence_staged > 0
    assert beat.coherence_messages_sent > 0
    assert eager.coherence_staged == 0
    # ...in strictly fewer messages than the eager fan-out (batching +
    # coalescing): eager sends one invalidate per (name, holder) and,
    # in replicated placement, one replica push per (bind, node).
    eager_messages = eager.invalidations_sent
    if placement == "replicated":
        eager_messages += eager.binds_applied * (NODES - 1)
    assert beat.coherence_messages_sent < eager_messages
    assert beat.registry_bandwidth_mb <= eager.registry_bandwidth_mb


@pytest.mark.parametrize("seed", [5])
def test_replicated_vs_uncached_same_world_outcomes(seed):
    """Replication changes the wire story, not the world's: same
    collection outcomes and dead-letter counts as the static-home run
    (instants may differ — binder acks travel different distances — so
    only the outcome counters are compared)."""
    replicated = run(PLACEMENTS["replicated"], seed)
    home = run(RegistryConfig(), seed)
    for result in (replicated, home):
        assert result.all_collected
        assert result.dead_letters == 0
        assert result.collected_acyclic == SERVICES
    assert replicated.registry_bandwidth_mb < home.registry_bandwidth_mb
    assert replicated.mean_resolve_latency_s < home.mean_resolve_latency_s
