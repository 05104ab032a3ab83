"""The spine's scenario table: five closed-loop simulations at a stated size.

Every scenario is driven only through ``repro.shard.replay_single_process``
or ``repro.shard.ShardedWorld`` with the library-default production
configuration.  A scenario may set TTB/TTA/``beat_slots``, the registry
``placement``/``lease_*`` and workload sizes; it never names
``aggregation``, ``batched_beats``, ``aggregate_site_pairs``,
``wire_version``, ``coherence`` or a kernel mode, so a non-default path can
be deleted without editing the benchmark and a default flip shows up as a
measured change.

Sizes were tuned on the 2-CPU box this benchmark was written on so that one
untraced rep takes about :data:`NOMINAL_REP_S` seconds; the README records
why each workload is here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.topology import (
    clustered_topology,
    metro_wan_topology,
    uniform_topology,
)

#: CPU seconds one untraced rep was tuned to; ``--seconds`` is converted to a
#: rep count with it, so the amount of work per run is fixed, not adaptive.
NOMINAL_REP_S = 3.3

#: Modules a fresh interpreter must import before it can run any scenario.
IMPORTS = "repro.shard, repro.net.topology, repro.core.config"


@dataclass(frozen=True)
class Scenario:
    name: str
    why: str
    #: Which exact count is the scenario's operation.
    op: str  # "messages" | "registry_ops"
    topology: Callable[[], Any]
    workload: str
    params: Dict[str, Any]
    dgc: Callable[[], Any]
    registry: Optional[Callable[[], Any]] = None
    seed: int = 0
    #: 0 runs ``replay_single_process``; N > 0 runs ``ShardedWorld(topo, N)``
    #: after one replay of the same scenario (the outcome oracle).
    shards: int = 0
    #: Parameter overrides for ``--smoke`` (about a tenth of the work).
    smoke: Dict[str, Any] = field(default_factory=dict)

    def sized(self, smoke: bool) -> Dict[str, Any]:
        return {**self.params, **self.smoke} if smoke else dict(self.params)


def _torture_topology():
    return metro_wan_topology(
        32, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )


_TORTURE = dict(
    op="messages",
    topology=_torture_topology,
    workload="torture",
    params={"slave_count": 640, "active_duration": 120},
    dgc=lambda: DgcConfig(ttb=5, tta=12, beat_slots=16),
    seed=11,
    smoke={"slave_count": 96, "active_duration": 100},
)

SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="torture",
            why=(
                "Fig. 10 torture test at a tenth of paper scale: DGC-dominated "
                "(core.* largest), aggregated DGC-run lane of net.network, "
                "registry unused"
            ),
            **_TORTURE,
        ),
        Scenario(
            name="nas_ft",
            why=(
                "Sec. 5.2 all-to-all FT kernel: application-dominated "
                "(runtime.* largest), large payloads on net.network's "
                "per-message typed lane that torture does not drive"
            ),
            op="messages",
            topology=lambda: uniform_topology(64),
            workload="nas",
            params={"kernel": "FT", "ao_count": 128, "iterations": 10},
            dgc=lambda: DgcConfig(ttb=30, tta=61),
            seed=7,
            smoke={"ao_count": 48, "iterations": 6},
        ),
        Scenario(
            name="naming_resolve",
            why=(
                "registry read path over request/reply: core.* under 1 %, so "
                "it bypasses every DGC optimisation (prediction: no change); "
                "the most kernel-event-heavy workload"
            ),
            op="registry_ops",
            topology=lambda: clustered_topology(32),
            workload="naming",
            params={
                "client_count": 64,
                "service_count": 32,
                "duration": 480,
                "lookup_period": 1,
                "lookup_burst": 8,
            },
            dgc=lambda: DgcConfig(ttb=30, tta=61),
            registry=RegistryConfig,
            seed=3,
            smoke={"duration": 60},
        ),
        Scenario(
            name="naming_bind",
            why=(
                "same registry layer used for writes beside reads (replicated "
                "placement fans every update out), so a resolve-side gain "
                "that costs updates shows; largest set-up (20 k names)"
            ),
            op="registry_ops",
            topology=lambda: uniform_topology(8),
            workload="naming",
            params={
                "client_count": 16,
                "service_count": 64,
                "name_count": 20000,
                "zipf_s": 1.1,
                "churn_burst": 128,
                "churn_period": 2,
                "lookup_period": 1,
                "lookup_burst": 8,
                "duration": 800,
            },
            dgc=lambda: DgcConfig(ttb=10, tta=30),
            registry=lambda: RegistryConfig(
                placement="replicated", lease_beat_s=2.0
            ),
            seed=7,
            smoke={"duration": 80, "name_count": 2000},
        ),
        Scenario(
            name="sharded2",
            why=(
                "the torture scenario through ShardedWorld with 2 forked "
                "workers: the only workload where net.wire, shard.* and "
                "live.kernel run at all (coordination cost vs the replay)"
            ),
            shards=2,
            **_TORTURE,
        ),
    )
}
