"""The DGC torture test (paper Sec. 5.3).

"A simple master/slave application where slaves continuously exchange
references between themselves and the master during at least ten minutes,
then become idle.  Thus a very complex reference graph is created and the
DGC has to destroy it after the ten minutes of intense activity."

Model:

* the master loops (via self-posting) for ``active_duration`` seconds,
  periodically seeding random slaves with references to other random
  slaves (and to itself, so master references circulate);
* each slave keeps a bounded rotating pool of received references and,
  while the deadline has not passed, forwards a random held reference to
  a random held peer after a short think time — reference exchange chains
  keep the graph churning;
* every activity holds a self-reference during the active phase (so
  nothing is ever trivially unreferenced mid-run) and drops it at its
  last iteration;
* after the deadline everything quiesces; the whole tangle — one big
  mostly-cyclic structure — becomes garbage and the DGC must collapse it
  (Fig. 10).

The driver drops its stubs right after construction: during the active
phase the structure is kept alive purely by activity, exactly the
situation Eq. 1 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.core.config import DgcConfig
from repro.errors import SimulationError
from repro.net.topology import Topology, uniform_topology
from repro.runtime.request import Request
from repro.workloads.app import Peer, release_all
from repro.world import World


class TortureSlave(Peer):
    """A slave: runs an exchange loop, keeping a rotating reference pool.

    While its deadline has not passed, the slave is continuously busy
    (matching the paper's "slaves continuously exchange references ...
    then become idle"): each iteration it thinks for a short while, then
    sends a random held reference to a random held peer.  Incoming
    ``exchange`` requests are queued while it runs; their references
    enter the DGC reference graph at deserialization time and rotate
    into the pool when served.
    """

    def __init__(self, deadline: float, pool_size: int = 8,
                 think_time: float = 3.0, send_probability: float = 0.7) -> None:
        super().__init__()
        self.deadline = deadline
        self.pool_size = pool_size
        self.think_time = think_time
        self.send_probability = send_probability
        self._next_slot = 0
        self.exchanges = 0

    def do_exchange(self, ctx, request: Request, proxies):
        for proxy in proxies:
            self._store(ctx, f"pool{self._next_slot % self.pool_size}", proxy)
            self._next_slot += 1
        self.exchanges += 1
        return None

    def do_run(self, ctx, request: Request, proxies):
        while ctx.now < self.deadline:
            yield ctx.sleep(self.think_time * (0.5 + ctx.rng.random()))
            if ctx.rng.random() >= self.send_probability:
                continue
            pool = [p for p in self.held.values() if not p.released]
            if len(pool) < 2:
                continue
            target = ctx.rng.choice(pool)
            ref = ctx.rng.choice(pool)
            ctx.call(target, "exchange", refs=[ref], payload_bytes=64)
        # Last running iteration: release the self-reference so slaves
        # that end up unreferenced become *acyclic* garbage.
        self._discard(ctx, "self")
        return None


class TortureMaster(Peer):
    """The master: seeds exchange chains among the slaves."""

    def __init__(self, deadline: float, seed_period: float = 10.0,
                 seeds_per_round: int = 16) -> None:
        super().__init__()
        self.deadline = deadline
        self.seed_period = seed_period
        self.seeds_per_round = seeds_per_round
        self.rounds = 0

    def do_exchange(self, ctx, request: Request, proxies):
        # The master keeps circulated references in a bounded pool too
        # (they are served after its run loop completes, i.e. queued while
        # it is busy — exactly like a ProActive single-threaded body).
        for index, proxy in enumerate(proxies):
            self._store(ctx, f"pool{(self.rounds + index) % 8}", proxy)
        return None

    def do_run(self, ctx, request: Request, proxies):
        slaves = [
            proxy for key, proxy in self.held.items() if key.startswith("slave")
        ]
        while ctx.now < self.deadline:
            yield ctx.sleep(self.seed_period)
            self.rounds += 1
            if not slaves:
                continue
            for _ in range(min(self.seeds_per_round, len(slaves))):
                target = ctx.rng.choice(slaves)
                payload_ref = ctx.rng.choice(slaves)
                # Occasionally circulate the master's own reference, as in
                # the paper ("between themselves and the master").
                if ctx.rng.random() < 0.25:
                    ctx.call(target, "exchange", refs=[ctx.self_ref()],
                             payload_bytes=64)
                else:
                    ctx.call(target, "exchange", refs=[payload_ref],
                             payload_bytes=64)
        # The master's job is done: it releases its slave directory and
        # self-reference, keeping only its circulated pool.  Slaves that no
        # longer appear in anybody's pool become *acyclic* garbage (the
        # paper's "some acyclic garbage is quickly reclaimed" phase); the
        # surviving tangle is cyclic and needs the consensus.
        self._discard(ctx, "self")
        for key in [k for k in self.held if k.startswith("slave")]:
            self._discard(ctx, key)
        return None


@dataclass
class TortureResult:
    """Fig. 10's quantities for one run."""

    ttb: float
    tta: float
    ao_count: int
    active_duration_s: float
    last_collected_s: Optional[float]
    all_collected: bool
    total_bandwidth_mb: float
    app_bandwidth_mb: float
    dgc_bandwidth_mb: float
    collected_cyclic: int
    collected_acyclic: int
    dead_letters: int
    #: Sampled (time, idle_count, collected_count) series for the figure.
    series: List[tuple]
    #: Kernel statistics for the perf harness (events executed, queue
    #: high-water mark, final simulated time).
    events_fired: int = 0
    peak_pending_events: int = 0
    sim_time_s: float = 0.0
    #: The world itself, kept only when ``keep_world=True`` (equivalence
    #: tests inspect ``world.stats`` and ``world.tracer`` afterwards).
    world: Optional[object] = None


def run_torture(
    *,
    dgc: Optional[DgcConfig],
    slave_count: int = 320,
    active_duration: float = 600.0,
    topology: Optional[Topology] = None,
    seed: int = 0,
    sample_period: float = 10.0,
    collect_timeout: float = 36_000.0,
    initial_pool: int = 4,
    safety_checks: bool = False,
    beat_slots: Optional[Union[int, str]] = None,
    aggregation: Optional[str] = None,
    trace: bool = False,
    keep_world: bool = False,
) -> TortureResult:
    """Run the torture test and sample the Fig. 10 curves.

    ``beat_slots`` / ``aggregation`` override the corresponding DGC
    config knobs (see :class:`repro.core.config.DgcConfig`): the slot
    count (an int, or ``"auto"`` for the adaptive per-node grid)
    quantizes the start jitter so heartbeats coalesce into beat buckets,
    and ``aggregation`` picks the delivery core by name (``per-event`` /
    ``exact`` / ``relaxed``).
    """
    if dgc is not None:
        overrides = {}
        if beat_slots is not None:
            overrides["beat_slots"] = beat_slots
        if aggregation is not None:
            overrides["aggregation"] = aggregation
        if overrides:
            dgc = dgc.with_overrides(**overrides)
    world = World(
        topology if topology is not None else uniform_topology(32),
        dgc=dgc,
        seed=seed,
        trace=trace,
        safety_checks=safety_checks,
    )
    driver = world.create_driver(name="torture-driver")
    ctx = driver.context
    rng = world.rng_registry.stream("torture.setup")
    deadline = active_duration

    master = ctx.create(TortureMaster(deadline), name="master")
    # Per-slave deadline jitter: last running iterations spread out, so
    # the idle wave of Fig. 10 rises gradually rather than as a step.
    slaves = [
        ctx.create(
            TortureSlave(deadline + rng.uniform(0.0, 0.15 * active_duration)),
            name=f"slave{index}",
        )
        for index in range(slave_count)
    ]
    # Master knows itself and every slave; every slave knows itself, the
    # master and a few random peers.
    ctx.call(master, "hold", refs=[master], data=["self"])
    ctx.call(
        master,
        "hold",
        refs=slaves,
        data=[f"slave{index}" for index in range(slave_count)],
    )
    for index, slave in enumerate(slaves):
        peers = rng.sample(range(slave_count), k=min(initial_pool, slave_count))
        refs = [slave, master] + [slaves[p] for p in peers]
        keys = ["self", "master"] + [f"pool{j}" for j in range(len(peers))]
        ctx.call(slave, "hold", refs=refs, data=keys)

    ctx.call(master, "run")
    for slave in slaves:
        ctx.call(slave, "run")
    # main() returns: from here on, liveness comes from activity alone.
    release_all(driver, [master] + slaves)

    series: List[tuple] = []

    def sample() -> None:
        live = world.live_non_roots()
        idle = sum(1 for activity in live if activity.is_idle())
        collected = world.stats.collected_total
        series.append((world.kernel.now, idle, collected))
        if live or world.kernel.now < deadline:
            world.kernel.schedule(sample_period, sample, label="torture.sample")

    world.kernel.schedule(0.0, sample, label="torture.sample")

    all_collected = True
    if dgc is None:
        world.kernel.run_until_quiescent(
            lambda: all(a.is_idle() for a in world.live_non_roots())
            and not world.inflight_pinned(),
            5.0,
            active_duration + 3_600.0,
        )
        last_collected = None
        all_collected = False
    else:
        all_collected = world.run_until_collected(
            collect_timeout, check_interval=5.0
        )
        if not all_collected:
            raise SimulationError(
                f"torture: {len(world.live_non_roots())} survivors after "
                f"{collect_timeout}s"
            )
        last_collected = max(world.stats.collected_by_id.values())

    # Close the series with the final state (the periodic sampler may
    # have stopped between the penultimate sample and the last death).
    final_live = world.live_non_roots()
    series.append(
        (
            world.kernel.now,
            sum(1 for activity in final_live if activity.is_idle()),
            world.stats.collected_total,
        )
    )

    accountant = world.accountant
    return TortureResult(
        ttb=dgc.ttb if dgc else 0.0,
        tta=dgc.tta if dgc else 0.0,
        ao_count=slave_count + 1,
        active_duration_s=active_duration,
        last_collected_s=last_collected,
        all_collected=all_collected,
        total_bandwidth_mb=accountant.megabytes(),
        app_bandwidth_mb=accountant.app_bytes / 1e6,
        dgc_bandwidth_mb=accountant.dgc_bytes / 1e6,
        collected_cyclic=world.stats.collected_cyclic,
        collected_acyclic=world.stats.collected_acyclic,
        dead_letters=world.stats.dead_letters,
        series=series,
        events_fired=world.kernel.fired_count,
        peak_pending_events=getattr(world.kernel, "peak_pending_count", 0),
        sim_time_s=world.kernel.now,
        world=world if keep_world else None,
    )
