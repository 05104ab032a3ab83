"""NAS kernel skeleton runner.

``run_nas_kernel`` reproduces the paper's measurement protocol
(Sec. 5.2):

1. deploy ``ao_count`` workers round-robin over the topology and build the
   complete reference graph (global barriers),
2. run the kernel; *application time* stops when every worker returned its
   result (all ``run`` futures resolved and traffic drained),
3. with DGC: the driver drops its stubs (``main()`` returns) and the run
   continues until the DGC collects every worker; *DGC time* is the gap
   between the result and the last collection — the paper's "time between
   when the benchmark has its result and when the DGC collects all the
   active objects";
   without DGC: workers are terminated explicitly, as the paper's
   implementation does.

Bandwidth is read from the SOCKS-equivalent accountant at both instants,
giving the Fig. 8 (bandwidth) and Fig. 9 (time) quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.core.config import DgcConfig
from repro.errors import SimulationError
from repro.net.topology import Topology, uniform_topology
from repro.runtime.request import Request
from repro.workloads.app import Peer, release_all
from repro.workloads.nas.patterns import (
    Pattern,
    cg_pattern,
    ep_pattern,
    ft_pattern,
)
from repro.world import World


class NasWorker(Peer):
    """One NAS worker: computes per iteration, then messages partners.

    Two driving modes share the same communication pattern:

    * ``run`` — the asynchronous kernel skeleton: one long-lived handler
      loops through every iteration, exchanges one-way pings, and the
      driver's future resolves with the final result;
    * ``step`` — one iteration per request, for the reply-barrier
      variant: the driver calls ``step`` with ``expect_reply=True`` on
      every worker and waits on all of the returned futures before
      launching the next iteration.  Exchanges stay one-way (a worker
      blocked on futures cannot serve its partners' pings — the paper's
      active objects are single-threaded, so peer-to-peer reply waits
      would deadlock the all-to-all patterns); the barrier rides the
      future/reply path between driver and workers instead.
    """

    def __init__(self, index: int, count: int, pattern: Pattern) -> None:
        super().__init__()
        self.index = index
        self.count = count
        self.pattern = pattern
        self.iterations_done = 0

    def _exchange(self, ctx, iteration: int) -> None:
        for partner, payload in self.pattern(self.index, self.count, iteration):
            proxy = self.held.get(f"peer{partner}")
            if proxy is not None:
                ctx.call(proxy, "ping", payload_bytes=payload)

    def do_run(self, ctx, request: Request, proxies):
        iterations, iter_time = request.data
        for iteration in range(iterations):
            yield ctx.sleep(iter_time)
            self._exchange(ctx, iteration)
            self.iterations_done += 1
        return self.index

    def do_step(self, ctx, request: Request, proxies):
        iteration, iter_time = request.data
        yield ctx.sleep(iter_time)
        self._exchange(ctx, iteration)
        self.iterations_done += 1
        return self.index


@dataclass(frozen=True)
class NasKernelSpec:
    """Shape parameters of one kernel skeleton."""

    name: str
    ao_count: int
    iterations: int
    iter_time_s: float
    pattern_factory: Callable[[], Pattern]
    #: Modelled per-worker deployment payload (code/class shipping); part
    #: of the application traffic in both DGC and no-DGC runs.
    deployment_bytes: int = 4_000
    #: Synchronous variant: every exchange expects a reply and each
    #: iteration barriers on all of them (see :class:`NasWorker`).
    reply_barrier: bool = False

    def scaled(self, ao_count: int) -> "NasKernelSpec":
        """Same kernel shape with a different worker count."""
        return NasKernelSpec(
            self.name,
            ao_count,
            self.iterations,
            self.iter_time_s,
            self.pattern_factory,
            self.deployment_bytes,
            self.reply_barrier,
        )


#: Laptop-scale defaults preserving the paper's relative profiles:
#: CG long + chatty, FT medium + all-to-all-heavy, EP seconds + silent.
KERNELS: Dict[str, NasKernelSpec] = {
    "CG": NasKernelSpec(
        "CG", 64, iterations=75, iter_time_s=20.0,
        pattern_factory=lambda: cg_pattern(payload_bytes=20_000),
    ),
    "EP": NasKernelSpec(
        "EP", 64, iterations=1, iter_time_s=8.0,
        pattern_factory=ep_pattern,
    ),
    "FT": NasKernelSpec(
        "FT", 64, iterations=20, iter_time_s=20.0,
        pattern_factory=lambda: ft_pattern(payload_bytes=1_200),
    ),
}


#: The paper's worker count (class C kernels, 256 active objects).
PAPER_AO_COUNT = 256


def paper_scale_kernels() -> Dict[str, NasKernelSpec]:
    """The paper's 256-worker variants (slow: minutes of wall time)."""
    return {name: spec.scaled(PAPER_AO_COUNT) for name, spec in KERNELS.items()}


def kernel_spec(
    name: str,
    *,
    ao_count: Optional[int] = None,
    iterations: Optional[int] = None,
    iter_time_s: Optional[float] = None,
    payload_bytes: Optional[int] = None,
    reply_barrier: Optional[bool] = None,
) -> NasKernelSpec:
    """One kernel spec with harness-level overrides applied.

    ``payload_bytes`` re-parameterizes the communication pattern (CG's
    boundary vectors, FT's transpose blocks); EP has no payload to
    override.  ``reply_barrier`` switches the kernel to its synchronous
    variant (every exchange replied to, iterations barrier on the
    futures).  The remaining knobs reshape the run without changing the
    kernel's communication structure.
    """
    try:
        base = KERNELS[name.upper()]
    except KeyError:
        raise SimulationError(
            f"unknown NAS kernel {name!r} (have: {', '.join(KERNELS)})"
        ) from None
    factory = base.pattern_factory
    if payload_bytes is not None:
        kernel = base.name
        if kernel == "CG":
            factory = lambda: cg_pattern(payload_bytes=payload_bytes)  # noqa: E731
        elif kernel == "FT":
            factory = lambda: ft_pattern(payload_bytes=payload_bytes)  # noqa: E731
        # EP is silent until the final reduction: nothing to resize.
    return NasKernelSpec(
        base.name,
        ao_count if ao_count is not None else base.ao_count,
        iterations if iterations is not None else base.iterations,
        iter_time_s if iter_time_s is not None else base.iter_time_s,
        factory,
        base.deployment_bytes,
        reply_barrier if reply_barrier is not None else base.reply_barrier,
    )


@dataclass
class NasRunResult:
    """Everything Figs. 8 and 9 need from one run."""

    kernel: str
    dgc_enabled: bool
    app_time_s: float
    dgc_time_s: float
    bandwidth_mb: float
    app_bandwidth_mb: float
    dgc_bandwidth_mb: float
    collected_cyclic: int
    collected_acyclic: int
    dead_letters: int
    ao_count: int
    #: Kernel statistics for the perf harness (events executed, queue
    #: high-water mark, final simulated time).
    events_fired: int = 0
    peak_pending_events: int = 0
    sim_time_s: float = 0.0
    #: The world itself, kept only when ``keep_world=True`` (equivalence
    #: tests inspect ``world.stats`` and ``world.tracer`` afterwards).
    world: Optional[object] = None


def run_nas_kernel(
    spec: NasKernelSpec,
    *,
    dgc: Optional[DgcConfig],
    topology: Optional[Topology] = None,
    seed: int = 0,
    collect_timeout: float = 36_000.0,
    safety_checks: bool = False,
    beat_slots: Optional[Union[int, str]] = None,
    aggregation: Optional[str] = None,
    trace: bool = False,
    keep_world: bool = False,
) -> NasRunResult:
    """Run one kernel once; see the module docstring for the protocol.

    ``beat_slots`` / ``aggregation`` override the corresponding DGC
    config knobs (see :class:`repro.core.config.DgcConfig`):
    ``aggregation`` picks the delivery core by name (``per-event`` /
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
    driver = world.create_driver(name=f"nas-{spec.name}-driver")
    ctx = driver.context
    pattern = spec.pattern_factory()
    workers = [
        ctx.create(
            NasWorker(index, spec.ao_count, pattern),
            name=f"{spec.name.lower()}{index}",
        )
        for index in range(spec.ao_count)
    ]
    # Deployment traffic + the complete reference graph (global barriers).
    for index, worker in enumerate(workers):
        others = [w for j, w in enumerate(workers) if j != index]
        keys = [f"peer{j}" for j in range(spec.ao_count) if j != index]
        ctx.call(
            worker,
            "hold",
            refs=others,
            data=keys,
            payload_bytes=spec.deployment_bytes,
        )
    settled = world.kernel.run_until_quiescent(
        lambda: not world.inflight_pinned(), 0.5, 600.0
    )
    if not settled:
        raise SimulationError("NAS deployment did not settle")

    start_time = world.kernel.now
    horizon = spec.iterations * spec.iter_time_s * 4 + 3_600.0
    if spec.reply_barrier:
        # Synchronous variant: one ``step`` request per worker per
        # iteration, each with a future; the driver barriers on all of
        # them before launching the next iteration, so the future/reply
        # path carries one reply per worker per iteration.
        futures: List = []
        for iteration in range(spec.iterations):
            wave = [
                ctx.call(worker, "step",
                         data=(iteration, spec.iter_time_s),
                         expect_reply=True)
                for worker in workers
            ]
            if not world.kernel.run_until_quiescent(
                lambda: all(future.resolved for future in wave), 1.0, horizon
            ):
                raise SimulationError(
                    f"NAS {spec.name} barrier {iteration} did not clear "
                    f"in {horizon}s"
                )
            futures = wave
    else:
        futures = [
            ctx.call(worker, "run", data=(spec.iterations, spec.iter_time_s),
                     expect_reply=True)
            for worker in workers
        ]

    def result_ready() -> bool:
        if not all(future.resolved for future in futures):
            return False
        if world.inflight_pinned():
            return False
        return all(a.is_idle() for a in world.live_non_roots())

    if not world.kernel.run_until_quiescent(result_ready, 1.0, horizon):
        raise SimulationError(f"NAS {spec.name} did not finish in {horizon}s")
    result_time = world.kernel.now
    app_time = result_time - start_time

    if dgc is None:
        # Paper protocol: the no-DGC implementation terminates explicitly.
        for worker_proxy in workers:
            activity = world.find_activity(worker_proxy.activity_id)
            if activity is not None:
                activity.terminate("explicit")
        release_all(driver, workers)
        dgc_time = 0.0
    else:
        release_all(driver, workers)
        if not world.run_until_collected(collect_timeout, check_interval=5.0):
            raise SimulationError(
                f"NAS {spec.name}: DGC did not collect within {collect_timeout}s "
                f"({len(world.live_non_roots())} survivors)"
            )
        dgc_time = world.kernel.now - result_time

    accountant = world.accountant
    return NasRunResult(
        kernel=spec.name,
        dgc_enabled=dgc is not None,
        app_time_s=app_time,
        dgc_time_s=dgc_time,
        bandwidth_mb=accountant.megabytes(),
        app_bandwidth_mb=accountant.app_bytes / 1e6,
        dgc_bandwidth_mb=accountant.dgc_bytes / 1e6,
        collected_cyclic=world.stats.collected_cyclic,
        collected_acyclic=world.stats.collected_acyclic,
        dead_letters=world.stats.dead_letters,
        ao_count=spec.ao_count,
        events_fired=world.kernel.fired_count,
        peak_pending_events=getattr(world.kernel, "peak_pending_count", 0),
        sim_time_s=world.kernel.now,
        world=world if keep_world else None,
    )
