"""The sharded multi-process world.

``ShardedWorld`` partitions a :class:`repro.world.World` across OS
processes: a :class:`ShardPlan` assigns node groups to shard workers,
each worker drives its partial world with the ordinary
:class:`repro.sim.kernel.SimKernel`, paced by the coordinator through
:meth:`~repro.sim.kernel.SimKernel.advance` (the single-process replay
runs on the same kernel class), and cross-shard traffic travels as
struct-packed columnar wire frames (:mod:`repro.net.wire`) over
multiprocessing pipes.

See :mod:`repro.shard.coordinator` for the conservative
barrier-synchronous protocol and its determinism contract.
"""

from repro.shard.coordinator import (
    ShardedRunResult,
    ShardedWorld,
    replay_single_process,
)
from repro.shard.plan import ShardPlan, make_plan
from repro.shard.workloads import SHARD_WORKLOADS

__all__ = [
    "ShardPlan",
    "ShardedRunResult",
    "ShardedWorld",
    "SHARD_WORKLOADS",
    "make_plan",
    "replay_single_process",
]
