"""The naming workload: bind/resolve/unbind churn across sites.

Paper Sec. 4.1 makes registered active objects DGC roots because "anyone
can look them up at any time".  This workload exercises exactly that
traffic shape — the one the naming service's placement and lease knobs
exist for:

* a **binder** (a root activity with a collector — active code) creates
  ``service_count`` services spread across the grid, binds each under a
  well-known name over the fabric (``ctx.bind``), churns a random name
  every ``churn_period`` (unbind + rebind, driving explicit
  invalidations through the lease book / replica set), and finally
  unbinds everything and drops its stubs so the DGC collapses the
  services;
* ``client_count`` **clients** — root activities *without* collectors,
  modelling external lookers that rely on the registry's root pin rather
  than DGC edges — wake on deterministic sleeps and issue bursts of
  fire-and-forget ``ctx.lookup`` calls, consuming each resolution in its
  ``on_resolve`` callback: count hit/miss, record resolve latency, drop
  the acquired stub.

Because the clients' busy/idle timeline is sleep-driven (they never
yield a lookup future) and every acquired stub is dropped inside the
resolving kernel event, the lookup path is *invisible* to the DGC
timeline: reference graphs at every heartbeat instant, collection
instants and tracer streams are identical whether a resolve was served
by a round trip, a replica or a leased cache entry.  That is what makes
the cached-vs-uncached bit-identical equivalence suite possible — and it
mirrors how a real RMIRegistry/JNDI client interacts with a leased
naming service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.core.config import DgcConfig, RegistryConfig
from repro.errors import ConfigurationError
from repro.net.topology import Topology, uniform_topology
from repro.runtime.behaviors import Behavior, SinkBehavior
from repro.sim.rng import ZipfSampler


class NamingBinder(Behavior):
    """Active code owning the services: creates, binds, churns, tears
    down.  All registry operations ride the fabric through the context
    API and are awaited (the binder yields each ack future).

    ``name_count`` (default: one name per service) scales the *name
    space* past the service population: names alias round-robin onto
    the services, exercising the registry's world-level root-pin
    refcounts at bind-heavy scale without minting one activity per
    name.  ``churn_burst`` unbind+rebinds that many names per churn
    wake, and ``sampler`` (a :class:`~repro.sim.rng.ZipfSampler`) skews
    which names churn — hot names collect the most lease holders, so
    skewed churn maximizes the coherence fan-out the beat channel
    batches.  The defaults reproduce the original draw sequence
    bit-for-bit.
    """

    def __init__(
        self,
        service_count: int,
        churn_deadline: float,
        churn_period: float,
        teardown_at: float,
        name_count: Optional[int] = None,
        churn_burst: int = 1,
        sampler: Optional[ZipfSampler] = None,
    ) -> None:
        self.service_count = service_count
        self.churn_deadline = churn_deadline
        self.churn_period = churn_period
        self.teardown_at = teardown_at
        self.name_count = (
            name_count if name_count is not None else service_count
        )
        if self.name_count < service_count:
            raise ValueError(
                f"name_count ({self.name_count}) must be >= service_count "
                f"({service_count}): every service needs a first name"
            )
        if churn_burst < 1:
            raise ValueError(f"churn_burst must be >= 1, got {churn_burst}")
        self.churn_burst = churn_burst
        self.sampler = sampler
        self.services: dict = {}
        self.proxies: list = []
        self.binds_acked = 0
        self.unbinds_acked = 0
        self.rebinds = 0

    @staticmethod
    def service_name(index: int) -> str:
        return f"svc-{index}"

    def on_start(self, ctx):
        for index in range(self.name_count):
            name = self.service_name(index)
            if index < self.service_count:
                proxy = ctx.create(SinkBehavior(), name=f"named{index}")
                self.proxies.append(proxy)
            else:
                proxy = self.proxies[index % self.service_count]
            self.services[name] = proxy
            future = ctx.bind(name, proxy)
            yield future
            if future.value:
                self.binds_acked += 1
        rng = ctx.rng
        sampler = self.sampler
        while ctx.now < self.churn_deadline:
            yield ctx.sleep(self.churn_period * (0.5 + rng.random()))
            for _ in range(self.churn_burst):
                if sampler is not None:
                    index = sampler.sample(rng)
                else:
                    index = rng.randrange(self.name_count)
                name = self.service_name(index)
                future = ctx.unbind(name)
                yield future
                if not future.value:
                    continue
                self.unbinds_acked += 1
                future = ctx.bind(name, self.services[name])
                yield future
                if future.value:
                    self.rebinds += 1
        if ctx.now < self.teardown_at:
            yield ctx.sleep(self.teardown_at - ctx.now)
        dropped = set()
        for name, proxy in self.services.items():
            future = ctx.unbind(name)
            yield future
            if future.value:
                self.unbinds_acked += 1
            if id(proxy) not in dropped:
                dropped.add(id(proxy))
                ctx.drop(proxy)
        self.services = {}
        self.proxies = []
        return None


class NamingClient(Behavior):
    """An external looker: bursts of fire-and-forget resolves on a
    deterministic sleep schedule; each resolution is consumed (and its
    stub dropped) inside the resolving kernel event.

    A ``sampler`` skews which names get looked up (rank 0 = hottest);
    without one the draw is uniform: ``rng.randrange(len(names))``
    unrolled into the burst loop, preserving the sequence bit-for-bit."""

    def __init__(
        self,
        names: List[str],
        deadline: float,
        period: float,
        burst: int,
        sampler: Optional[ZipfSampler] = None,
    ) -> None:
        if not names:
            raise ConfigurationError("a naming client needs a name to look up")
        self.names = names
        self.deadline = deadline
        self.period = period
        self.burst = burst
        self.sampler = sampler
        self.issued = 0
        self.completed = 0
        self.hits = 0
        self.misses = 0
        self.latency_sum = 0.0

    def on_start(self, ctx):
        rng = ctx.rng
        names = self.names
        count = len(names)
        sampler = self.sampler
        bits = count.bit_length()
        getrandbits = rng.getrandbits
        while ctx.now < self.deadline:
            yield ctx.sleep(self.period * (0.5 + rng.random()))
            # A burst is one synchronous stretch: the clock cannot move.
            consume = partial(self._consume, ctx, ctx.now)
            for _ in range(self.burst):
                if sampler is not None:
                    name = names[sampler.sample(rng)]
                else:
                    pick = getrandbits(bits)
                    while pick >= count:
                        pick = getrandbits(bits)
                    name = names[pick]
                future = ctx.lookup(name)
                self.issued += 1
                future.on_resolve(consume)
        return None

    def _consume(self, ctx, issued_at: float, future) -> None:
        self.completed += 1
        self.latency_sum += ctx.now - issued_at
        proxy = future.value
        if proxy is None:
            self.misses += 1
        else:
            self.hits += 1
            ctx.drop(proxy)


@dataclass
class NamingResult:
    """One naming run's quantities (resolution + coherence traffic)."""

    service_count: int
    client_count: int
    resolves_issued: int
    resolves_completed: int
    hits: int
    misses: int
    #: Mean simulated seconds from ``ctx.lookup`` to resolution.
    mean_resolve_latency_s: float
    #: Naming-service internals (where resolves were served; the hit
    #: counters exclude locally-served negatives).
    authority_hits: int
    replica_hits: int
    cache_hits: int
    local_misses: int
    remote_lookups: int
    invalidations_sent: int
    renew_messages_sent: int
    binds_applied: int
    unbinds_applied: int
    #: Bandwidth split (MB, decimal as in the paper).
    registry_bandwidth_mb: float
    total_bandwidth_mb: float
    dgc_bandwidth_mb: float
    collected_acyclic: int
    collected_cyclic: int
    dead_letters: int
    all_collected: bool
    #: Beat-coherence channel internals (zero under eager coherence).
    coherence_staged: int = 0
    coherence_coalesced: int = 0
    coherence_messages_sent: int = 0
    pushes_sent: int = 0
    #: Names bound (aliases over the services; defaults to services).
    name_count: int = 0
    events_fired: int = 0
    sim_time_s: float = 0.0
    world: Optional[object] = None
    #: The client behaviors, kept for fine-grained assertions.
    clients: List[NamingClient] = field(default_factory=list)


def run_naming(
    *,
    dgc: Optional[DgcConfig],
    registry: Optional[RegistryConfig] = None,
    client_count: int = 32,
    service_count: int = 16,
    name_count: Optional[int] = None,
    zipf_s: float = 0.0,
    churn_burst: int = 1,
    duration: float = 300.0,
    lookup_period: float = 5.0,
    lookup_burst: int = 4,
    churn_period: Optional[float] = None,
    teardown_lag: float = 10.0,
    topology: Optional[Topology] = None,
    seed: int = 0,
    collect_timeout: float = 36_000.0,
    trace: bool = False,
    keep_world: bool = False,
    safety_checks: bool = False,
) -> NamingResult:
    """Run the naming churn and report resolution + coherence numbers.

    The setup is :func:`repro.shard.workloads.build_naming` under a
    one-shard plan (clients first, then the binder) and the run is its
    phase list (:func:`repro.shard.coordinator.run_phases`): with DGC,
    until the services are collected within ``collect_timeout``;
    without, for a minute past the teardown.  ``registry`` picks placement
    and lease policy (default: the uncached static-home baseline);
    delivery-core and heartbeat-slot knobs live on ``dgc``
    (:meth:`~repro.core.config.DgcConfig.with_overrides`).

    The bind-heavy knobs — ``name_count`` (names aliasing round-robin
    over the services, default one per service), ``zipf_s`` (Zipf skew
    for lookup *and* churn name draws; 0 = uniform via the original
    ``randrange`` path) and ``churn_burst`` (names churned per binder
    wake) — default to the original behavior bit-for-bit.
    """
    from repro.shard.coordinator import build_single_process, run_phases

    topology = topology if topology is not None else uniform_topology(32)
    world, env = build_single_process(
        topology,
        "naming",
        dict(
            client_count=client_count,
            service_count=service_count,
            name_count=name_count,
            zipf_s=zipf_s,
            churn_burst=churn_burst,
            duration=duration,
            lookup_period=lookup_period,
            lookup_burst=lookup_burst,
            churn_period=churn_period,
            teardown_lag=teardown_lag,
            collect_timeout=collect_timeout,
        ),
        dgc=dgc, registry=registry, seed=seed, trace=trace,
        safety_checks=safety_checks,
    )
    run_phases(world, env, "naming")

    naming = world.registry
    counts = env.results()
    completed = counts["resolves_completed"]
    accountant = world.accountant
    return NamingResult(
        service_count=service_count,
        client_count=client_count,
        resolves_issued=counts["resolves_issued"],
        resolves_completed=completed,
        hits=counts["hits"],
        misses=counts["misses"],
        mean_resolve_latency_s=(
            counts["latency_sum"] / completed if completed else 0.0
        ),
        authority_hits=naming.authority_hits,
        replica_hits=naming.replica_hits,
        cache_hits=naming.cache_hits,
        local_misses=naming.local_misses,
        remote_lookups=naming.remote_lookups,
        invalidations_sent=naming.invalidations_sent,
        renew_messages_sent=naming.renew_messages_sent,
        binds_applied=naming.binds_applied,
        unbinds_applied=naming.unbinds_applied,
        coherence_staged=naming.coherence_staged,
        coherence_coalesced=naming.coherence_coalesced,
        coherence_messages_sent=naming.coherence_messages_sent,
        pushes_sent=naming.pushes_sent,
        name_count=service_count if name_count is None else name_count,
        registry_bandwidth_mb=accountant.registry_bytes / 1e6,
        total_bandwidth_mb=accountant.megabytes(),
        dgc_bandwidth_mb=accountant.dgc_bytes / 1e6,
        collected_acyclic=world.stats.collected_acyclic,
        collected_cyclic=world.stats.collected_cyclic,
        dead_letters=world.stats.dead_letters,
        all_collected=world.all_collected(),
        events_fired=world.kernel.fired_count,
        sim_time_s=world.kernel.now,
        world=world if keep_world else None,
        clients=env.clients,
    )
