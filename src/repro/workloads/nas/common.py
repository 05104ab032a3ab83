"""NAS kernel skeleton runner.

``run_nas_kernel`` reproduces the paper's measurement protocol
(Sec. 5.2) as the phases of :func:`repro.shard.workloads.build_nas`:

1. *settle* — deploy ``ao_count`` workers round-robin over the topology
   and build the complete reference graph (global barriers);
2. *run* — run the kernel (the reply-barrier variant first runs one
   wave phase per iteration); *application time* stops when every
   worker returned its result (all futures resolved and traffic
   drained);
3. *drain* — with DGC: the driver drops its stubs (``main()`` returns)
   and the run continues until the DGC collects every worker; *DGC
   time* is the gap between the result and the last collection — the
   paper's "time between when the benchmark has its result and when the
   DGC collects all the active objects";
   without DGC: workers are terminated explicitly, as the paper's
   implementation does, so the drain takes no time.

Bandwidth is read from the SOCKS-equivalent accountant at both instants,
giving the Fig. 8 (bandwidth) and Fig. 9 (time) quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.config import DgcConfig
from repro.errors import SimulationError
from repro.net.topology import Topology, uniform_topology
from repro.runtime.request import Request
from repro.workloads.app import Peer
from repro.workloads.nas.patterns import (
    Pattern,
    cg_pattern,
    ep_pattern,
    ft_pattern,
)


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
    #: Per-message payload of the communication pattern (CG's boundary
    #: vectors, FT's transpose blocks); ``None`` for EP, which has none.
    payload_bytes: Optional[int] = None
    #: Synchronous variant: each iteration is one ``step`` call per
    #: worker, and the driver waits on their replies (:class:`NasWorker`).
    reply_barrier: bool = False

    def pattern_factory(self) -> Pattern:
        """A fresh instance of the kernel's communication pattern."""
        if self.name == "CG":
            return cg_pattern(payload_bytes=self.payload_bytes)
        if self.name == "FT":
            return ft_pattern(payload_bytes=self.payload_bytes)
        return ep_pattern()

    def scaled(self, ao_count: int) -> "NasKernelSpec":
        """Same kernel shape with a different worker count."""
        return replace(self, ao_count=ao_count)


#: Modelled per-worker deployment payload (code/class shipping); part of
#: the application traffic in both DGC and no-DGC runs.
DEPLOYMENT_BYTES = 4_000


#: Laptop-scale defaults preserving the paper's relative profiles:
#: CG long + chatty, FT medium + all-to-all-heavy, EP seconds + silent.
KERNELS: Dict[str, NasKernelSpec] = {
    "CG": NasKernelSpec(
        "CG", 64, iterations=75, iter_time_s=20.0, payload_bytes=20_000
    ),
    "EP": NasKernelSpec("EP", 64, iterations=1, iter_time_s=8.0),
    "FT": NasKernelSpec(
        "FT", 64, iterations=20, iter_time_s=20.0, payload_bytes=1_200
    ),
}


#: The paper's worker count (class C kernels, 256 active objects).
PAPER_AO_COUNT = 256


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
    variant (one ``step`` call per worker per iteration, each wave
    waiting on its replies).  The remaining knobs reshape the run without changing the
    kernel's communication structure.
    """
    try:
        base = KERNELS[name.upper()]
    except KeyError:
        raise SimulationError(
            f"unknown NAS kernel {name!r} (have: {', '.join(KERNELS)})"
        ) from None
    overrides = dict(
        ao_count=ao_count,
        iterations=iterations,
        iter_time_s=iter_time_s,
        reply_barrier=reply_barrier,
    )
    # EP is silent until the final reduction: nothing to resize.
    if base.payload_bytes is not None:
        overrides["payload_bytes"] = payload_bytes
    return replace(
        base, **{k: v for k, v in overrides.items() if v is not None}
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
    #: Kernel statistics (events executed, final simulated time).
    events_fired: int = 0
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
    trace: bool = False,
    keep_world: bool = False,
) -> NasRunResult:
    """Run one kernel once; see the module docstring for the protocol.

    The setup is :func:`repro.shard.workloads.build_nas` under a
    one-shard plan and the phases are the sharded run's
    (:func:`repro.shard.coordinator.run_phases`); this function only
    reads the result off them.  Each phase has its own bound: 600 s to
    settle, four times the nominal kernel time plus an hour to run (and
    for each barrier wave), and ``collect_timeout`` to collect.
    Delivery-core and heartbeat-slot knobs live on ``dgc``
    (:meth:`~repro.core.config.DgcConfig.with_overrides`).
    """
    from repro.shard.coordinator import build_single_process, run_phases

    topology = topology if topology is not None else uniform_topology(32)
    params = dict(
        kernel=spec.name,
        ao_count=spec.ao_count,
        iterations=spec.iterations,
        iter_time_s=spec.iter_time_s,
        payload_bytes=spec.payload_bytes,
        reply_barrier=spec.reply_barrier,
        collect_timeout=collect_timeout,
    )
    world, env = build_single_process(
        topology, "nas", params,
        dgc=dgc, seed=seed, trace=trace, safety_checks=safety_checks,
    )
    # settle, [wave...], run, drain
    phase_times = run_phases(world, env, "nas")

    accountant = world.accountant
    return NasRunResult(
        kernel=spec.name,
        dgc_enabled=dgc is not None,
        app_time_s=phase_times[-2] - phase_times[0],
        dgc_time_s=phase_times[-1] - phase_times[-2],
        bandwidth_mb=accountant.megabytes(),
        app_bandwidth_mb=accountant.app_bytes / 1e6,
        dgc_bandwidth_mb=accountant.dgc_bytes / 1e6,
        collected_cyclic=world.stats.collected_cyclic,
        collected_acyclic=world.stats.collected_acyclic,
        dead_letters=world.stats.dead_letters,
        ao_count=spec.ao_count,
        events_fired=world.kernel.fired_count,
        sim_time_s=world.kernel.now,
        world=world if keep_world else None,
    )
