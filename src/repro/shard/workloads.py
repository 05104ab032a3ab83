"""The workload builders: the one place each workload is set up.

The torture test, the naming churn and the NAS kernels are built here
and nowhere else.  A shard worker runs a builder over its shard of the
plan; :func:`~repro.shard.coordinator.replay_single_process` and the
single-process runners (:func:`~repro.workloads.torture.run_torture`,
:func:`~repro.workloads.naming.run_naming`,
:func:`~repro.workloads.nas.common.run_nas_kernel`) run it under a
one-shard plan, in a world they build themselves.

Every shard worker runs the *same* builder over the *same* full
topology (single-program, multiple-data): the builder walks the
complete setup — every create, every RNG draw — in the identical
deterministic order on every shard, but only **materializes** the
activities whose home node the shard owns.  A create whose node lives
elsewhere still mints the activity id (:func:`make_activity_id` is a
process-global counter, so skipping a mint would shift every later id
on that shard) and yields at most a *ghost*: a stub the driver holds,
whose heartbeats and requests travel as cross-shard frames to the shard
that owns the real activity.

Driver-originated traffic (hold/run calls, ``release_all``) is issued
only on the shard that owns the driver's node; every other shard sees
the driver itself as a ghost.  Because every single-process arm runs
this same builder with a one-shard plan after the same id reset
(:func:`repro.shard.worker.reset_process_counters`), setup placement,
activity ids and RNG streams are identical across all arms by
construction.

The run protocol, every ending included, is a list of :class:`Phase`
records (:func:`workload_phases`): each phase has an optional entry
action (run on every shard at the moment the phase starts;
driver-originated traffic only where the driver lives), a bound and a
predicate naming when it completes — ``"collected"`` (no live
non-roots anywhere), ``"balance"`` (application requests and replies
globally sent == delivered, no application frames in flight),
``"replied"`` (every shard's flags true — one NAS reply-barrier wave
answered), ``"ready"`` (balance, plus every shard idle and every
shard's flags true — the NAS "benchmark has its result" instant) or
``"until"`` (the phase's bound has elapsed — a run without DGC that
has no collection to wait for).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import DgcConfig
from repro.errors import ConfigurationError
from repro.runtime.ids import make_activity_id
from repro.runtime.proxy import RemoteRef
from repro.shard.plan import ShardPlan
from repro.workloads.app import release_all
from repro.sim.rng import ZipfSampler
from repro.workloads.naming import NamingBinder, NamingClient
from repro.workloads.nas.common import DEPLOYMENT_BYTES, NasWorker, kernel_spec
from repro.workloads.torture import TortureMaster, TortureSlave
from repro.world import World


@dataclass(frozen=True)
class Phase:
    """One step of a workload's run protocol (see module docstring):
    ``bound`` simulated seconds from its start (a single-process run
    fails a phase still open then; an ``"until"`` phase ends there), and
    a single-process run polls the predicate every ``poll`` seconds."""

    name: str
    predicate: str  # "collected" | "balance" | "replied" | "ready" | "until"
    bound: float
    poll: float = 1.0


class SpmdContext:
    """Deterministic replicated creates over a shard plan."""

    def __init__(self, world: World, plan: ShardPlan, shard: int) -> None:
        self.world = world
        self.plan = plan
        self.shard = shard
        self.node_names = tuple(plan.node_names)
        self.driver = None  # the local driver Activity, if this shard owns it

    def is_local(self, node: str) -> bool:
        return self.plan.shard_of(node) == self.shard

    def create_driver(self, *, node: str, name: str = "driver"):
        """The driver root; returns the Activity locally, ``None`` on
        shards where the driver is a ghost (its id is still minted)."""
        if self.is_local(node):
            # Both paths mint exactly one id for `name`: a real driver
            # here, the ghost make_activity_id below.
            self.driver = self.world.create_driver(node=node, name=name)
            return self.driver
        make_activity_id(name)
        return None

    def create(
        self,
        behavior: Any,
        *,
        node: str,
        name: str = "",
        root: bool = False,
        dgc_enabled: bool = True,
    ):
        """Create (or ghost) one activity at an explicit node.

        Returns the driver's stub when this shard owns the driver —
        for a remote activity the stub is acquired through the regular
        deserialization hook, so the driver->activity DGC edge and its
        cross-shard heartbeats appear exactly as for a received
        reference.  Without a local driver, returns the local Activity
        or ``None`` for a ghost.
        """
        # Every arm mints exactly one id for `name` (a real create here,
        # the ghost id below), keeping the id counters shard-aligned.
        if self.is_local(node):
            if self.driver is not None:
                return self.world.create_activity(
                    behavior, node=node, name=name, root=root,
                    dgc_enabled=dgc_enabled, creator=self.driver,
                )
            return self.world.create_activity(
                behavior, node=node, name=name, root=root,
                dgc_enabled=dgc_enabled,
            )
        ghost_id = make_activity_id(name)
        if self.driver is not None:
            ref = RemoteRef(ghost_id, node)
            return self.driver.node.deserialize_ref(self.driver, ref)
        return None


class ShardEnv:
    """What a built workload hands back to the worker loop."""

    def __init__(self, ctx: SpmdContext, phases: Tuple[Phase, ...]) -> None:
        self.ctx = ctx
        self.phases = phases
        #: phase index -> entry action, run on every shard that has one;
        #: driver-originated traffic is registered only on the shard
        #: that owns the driver.
        self.actions: Dict[int, Callable[[], None]] = {}

    def enter_phase(self, index: int) -> None:
        action = self.actions.get(index)
        if action is not None:
            action()

    def flags(self) -> Dict[str, bool]:
        """Shard-local readiness flags, ANDed across shards by the
        coordinator for ``"replied"`` and ``"ready"`` predicates."""
        return {}

    def results(self) -> Dict[str, Any]:
        """Workload-specific counters for the merged run result."""
        return {}


# ----------------------------------------------------------------------
# Torture (paper Sec. 5.3 / Fig. 10)
# ----------------------------------------------------------------------


def build_torture(
    world: World, plan: ShardPlan, shard: int, params: Dict[str, Any]
) -> ShardEnv:
    """The DGC torture test (paper Sec. 5.3): the master, the slaves,
    their initial reference pools, the ``run`` calls, then the driver
    drops every stub.  :func:`repro.workloads.torture.run_torture`
    adds the Fig. 10 sampler, an observation device, not workload
    behavior."""
    slave_count = int(params.get("slave_count", 320))
    active_duration = float(params.get("active_duration", 600.0))
    initial_pool = int(params.get("initial_pool", 4))

    ctx = SpmdContext(world, plan, shard)
    nodes = ctx.node_names
    driver = ctx.create_driver(node=nodes[0], name="torture-driver")
    rng = world.rng_registry.stream("torture.setup")
    deadline = active_duration

    master = ctx.create(
        TortureMaster(deadline), node=nodes[1 % len(nodes)], name="master"
    )
    slaves = [
        ctx.create(
            TortureSlave(deadline + rng.uniform(0.0, 0.15 * active_duration)),
            node=nodes[(2 + index) % len(nodes)],
            name=f"slave{index}",
        )
        for index in range(slave_count)
    ]
    if driver is not None:
        dctx = driver.context
        dctx.call(master, "hold", refs=[master], data=["self"])
        dctx.call(
            master,
            "hold",
            refs=slaves,
            data=[f"slave{index}" for index in range(slave_count)],
        )
    for index in range(slave_count):
        # The pool draw happens on every shard (stream alignment); the
        # call itself is driver traffic.
        peers = rng.sample(range(slave_count), k=min(initial_pool, slave_count))
        if driver is not None:
            slave = slaves[index]
            refs = [slave, master] + [slaves[p] for p in peers]
            keys = ["self", "master"] + [f"pool{j}" for j in range(len(peers))]
            dctx.call(slave, "hold", refs=refs, data=keys)
    if driver is not None:
        dctx.call(master, "run")
        for slave in slaves:
            dctx.call(slave, "run")
        release_all(driver, [master] + slaves)
    return ShardEnv(ctx, workload_phases("torture", params, world.dgc_config))


# ----------------------------------------------------------------------
# Naming churn (registry traffic)
# ----------------------------------------------------------------------


class _NamingEnv(ShardEnv):
    def __init__(self, ctx, phases, clients: List[NamingClient]) -> None:
        super().__init__(ctx, phases)
        self.clients = clients

    def results(self) -> Dict[str, Any]:
        return {
            "resolves_issued": sum(c.issued for c in self.clients),
            "resolves_completed": sum(c.completed for c in self.clients),
            "hits": sum(c.hits for c in self.clients),
            "misses": sum(c.misses for c in self.clients),
            "latency_sum": sum(c.latency_sum for c in self.clients),
        }


def build_naming(
    world: World, plan: ShardPlan, shard: int, params: Dict[str, Any]
) -> ShardEnv:
    """Bind/resolve/unbind churn, the setup of
    :func:`repro.workloads.naming.run_naming`.

    The binder's *runtime* creates round-robin over its own shard's
    nodes (a shard world only materializes local nodes), so service
    placement differs between a sharded and a single-process run;
    outcome equivalence still holds because the collected set is
    identified by activity ids, which are minted in the same order in
    every arm.

    Build order matters: the **clients are created before the binder**.
    ``World.create_activity`` starts a behavior inline, and the binder's
    ``on_start`` creates the service activities — synchronously, when
    its bind acks resolve locally — minting ids a ghost-binder shard
    would never mint.  Creating the binder last keeps every id that
    crosses shards (the clients', whose per-activity RNG streams are
    keyed by id) aligned across all arms at build time; the service ids
    are minted afterwards, only on the binder's shard and in the replay
    arm, identically in both.
    """
    client_count = int(params.get("client_count", 32))
    service_count = int(params.get("service_count", 16))
    name_count = params.get("name_count")
    name_count = (
        service_count if name_count is None else int(name_count)
    )
    zipf_s = float(params.get("zipf_s", 0.0))
    churn_burst = int(params.get("churn_burst", 1))
    duration = float(params.get("duration", 300.0))
    lookup_period = float(params.get("lookup_period", 5.0))
    lookup_burst = int(params.get("lookup_burst", 4))
    churn_period = params.get("churn_period")
    if churn_period is None:
        churn_period = max(duration / 12.0, 1.0)
    teardown_lag = float(params.get("teardown_lag", 10.0))

    ctx = SpmdContext(world, plan, shard)
    nodes = ctx.node_names
    sampler = ZipfSampler(name_count, zipf_s) if zipf_s > 0.0 else None
    binder = NamingBinder(
        service_count,
        churn_deadline=duration,
        churn_period=float(churn_period),
        teardown_at=duration + teardown_lag,
        name_count=name_count,
        churn_burst=churn_burst,
        sampler=sampler,
    )
    names = [NamingBinder.service_name(i) for i in range(name_count)]
    clients: List[NamingClient] = []
    for index in range(client_count):
        client = NamingClient(
            names, deadline=duration, period=lookup_period,
            burst=lookup_burst, sampler=sampler,
        )
        created = ctx.create(
            client,
            node=nodes[index % len(nodes)],
            name=f"client{index}",
            root=True,
            dgc_enabled=False,
        )
        if created is not None:
            clients.append(client)
    # Last: its inline on_start mints service ids (see docstring).
    ctx.create(binder, node=nodes[0], name="binder", root=True)
    return _NamingEnv(
        ctx, workload_phases("naming", params, world.dgc_config), clients
    )


# ----------------------------------------------------------------------
# NAS kernel skeletons (paper Sec. 5.2)
# ----------------------------------------------------------------------


class _NasEnv(ShardEnv):
    def __init__(self, ctx, phases, spec, workers) -> None:
        super().__init__(ctx, phases)
        self.spec = spec
        self.workers = workers  # driver-shard proxies, [] elsewhere
        self.futures: List[Any] = []
        drain = len(phases) - 1
        if ctx.driver is not None:
            if spec.reply_barrier:
                for i in range(spec.iterations):
                    self.actions[1 + i] = partial(
                        self._call_workers, "step", (i, spec.iter_time_s)
                    )
            else:
                self.actions[1] = partial(
                    self._call_workers, "run",
                    (spec.iterations, spec.iter_time_s),
                )
            self.actions[drain] = self._release
        if ctx.world.dgc_config is None:
            # Paper protocol: without DGC, every shard terminates its
            # own workers explicitly.
            self.actions[drain] = self._terminate

    def _call_workers(self, method: str, data: Tuple) -> None:
        """The ``run`` calls, or one barrier wave of ``step`` calls;
        their futures are the result flag."""
        dctx = self.ctx.driver.context
        self.futures = [
            dctx.call(worker, method, data=data, expect_reply=True)
            for worker in self.workers
        ]

    def _terminate(self) -> None:
        for activity in self.ctx.world.live_non_roots():
            activity.terminate("explicit")
        self._release()  # a no-op where the driver holds no workers

    def _release(self) -> None:
        release_all(self.ctx.driver, self.workers)

    def flags(self) -> Dict[str, bool]:
        if self.ctx.driver is None:
            return {}
        return {
            "nas_result": bool(self.futures)
            and all(future.resolved for future in self.futures)
        }

    def results(self) -> Dict[str, Any]:
        return {"kernel": self.spec.name, "ao_count": self.spec.ao_count}


def build_nas(
    world: World, plan: ShardPlan, shard: int, params: Dict[str, Any]
) -> ShardEnv:
    """One NAS kernel skeleton (paper Sec. 5.2): the workers, the
    complete reference graph (with the deployment payload), then the
    phases of :func:`workload_phases` — settle, run (one asynchronous
    ``run`` call per worker, or, with ``reply_barrier``, one ``step``
    wave per iteration, each waiting on its replies), drain (with DGC
    the driver drops its stubs and the DGC collects the workers;
    without, every shard terminates its workers explicitly)."""
    spec = _nas_spec(params)
    ctx = SpmdContext(world, plan, shard)
    nodes = ctx.node_names
    driver = ctx.create_driver(node=nodes[0], name=f"nas-{spec.name}-driver")
    pattern = spec.pattern_factory()
    workers = [
        ctx.create(
            NasWorker(index, spec.ao_count, pattern),
            node=nodes[(1 + index) % len(nodes)],
            name=f"{spec.name.lower()}{index}",
        )
        for index in range(spec.ao_count)
    ]
    if driver is not None:
        dctx = driver.context
        for index, worker in enumerate(workers):
            others = [w for j, w in enumerate(workers) if j != index]
            keys = [f"peer{j}" for j in range(spec.ao_count) if j != index]
            dctx.call(
                worker, "hold", refs=others, data=keys,
                payload_bytes=DEPLOYMENT_BYTES,
            )
    return _NasEnv(
        ctx, workload_phases("nas", params, world.dgc_config), spec,
        workers if driver is not None else [],
    )


def _nas_spec(params: Dict[str, Any]):
    fields = ("ao_count", "iterations", "iter_time_s", "payload_bytes",
              "reply_barrier")
    return kernel_spec(params["kernel"], **{f: params.get(f) for f in fields})


def workload_phases(
    name: str, params: Dict[str, Any], dgc: Optional[DgcConfig]
) -> Tuple[Phase, ...]:
    """The run protocol for one workload, every ending included; the
    coordinator and every builder call this, so both sides agree on
    phase indices.  Without DGC, torture ends when everything is idle,
    naming a minute after its teardown, NAS by explicit termination."""
    collect = Phase(
        "collect", "collected", float(params.get("collect_timeout", 36_000.0))
    )
    if name == "torture":
        if dgc is not None:
            return (collect,)
        active = float(params.get("active_duration", 600.0))
        return (Phase("idle", "ready", active + 3_600.0, poll=5.0),)
    if name == "naming":
        if dgc is not None:
            return (collect,)
        span = (
            float(params.get("duration", 300.0))
            + float(params.get("teardown_lag", 10.0)) + 60.0
        )
        return (Phase("run", "until", span),)
    if name == "nas":
        spec = _nas_spec(params)
        run = spec.iterations * spec.iter_time_s * 4 + 3_600.0
        waves = spec.iterations if spec.reply_barrier else 0
        return (
            Phase("settle", "balance", 600.0, poll=0.5),
            *(Phase(f"wave{i}", "replied", run) for i in range(waves)),
            Phase("run", "ready", run),
            Phase("drain", "collected", collect.bound),
        )
    raise ConfigurationError(
        f"unknown shard workload {name!r} (have: torture, naming, nas)"
    )


SHARD_WORKLOADS: Dict[str, Callable[..., ShardEnv]] = {
    "torture": build_torture,
    "naming": build_naming,
    "nas": build_nas,
}
