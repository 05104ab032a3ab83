"""Golden outcomes: every exact counter of six scenario shapes, pinned.

Five shapes are the spine benchmark's workloads at smoke size
(``torture``, ``nas_ft``, ``naming_resolve``, ``naming_bind`` and the
two-shard ``sharded2``), built here from ``repro`` directly.  The sixth,
``sharded3_sites``, is torture at smoke size over three shards of a
three-site topology, one site per shard: its workers receive frames
from two peers in a round, so the order in which a worker merges them
shows in its ``frame_digest`` (``sharded2``'s workers each have one
peer).  For each shape and each of its seeds (:data:`SEEDS` unless the
shape names fewer) the record holds every exact counter of the finished
run by name — traffic per kind, kernel and fabric event counts,
collection and registry counters, the workload's own results — plus a
digest of the outcome signature and, for the sharded shapes, the frame
digest.  Nothing timed or machine-dependent is recorded, so the values
are the same on every machine and under every hash seed.

``tests/golden/test_outcomes.py`` recomputes them and diffs them by
name against ``outcomes.json``.  A change that moves a value on purpose
regenerates the file and names the value in CHANGES.md::

    PYTHONPATH=src python -m tests.golden --write

``python -m tests.golden`` prints the computed values as JSON without
writing anything; ``--diff`` prints the differences from the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import DgcConfig, RegistryConfig
from repro.net.kinds import ALL_KINDS
from repro.net.topology import (
    clustered_topology,
    metro_wan_topology,
    uniform_topology,
)
from repro.shard import ShardedWorld, replay_single_process
from repro.shard.worker import REGISTRY_COUNTERS

#: Seeds every shape is pinned at.
SEEDS = (0, 1, 2)

#: The committed values.
OUTCOMES_PATH = os.path.join(os.path.dirname(__file__), "outcomes.json")


class Shape:
    """One scenario: topology, workload, smoke-size parameters, configs."""

    def __init__(
        self,
        topology: Callable[[], Any],
        workload: str,
        params: Dict[str, Any],
        dgc: Callable[[], DgcConfig],
        registry: Optional[Callable[[], RegistryConfig]] = None,
        shards: int = 0,
        seeds: tuple = SEEDS,
    ) -> None:
        self.topology = topology
        self.workload = workload
        self.params = params
        self.dgc = dgc
        self.registry = registry
        self.shards = shards
        self.seeds = seeds

    def arguments(self, seed: int) -> Dict[str, Any]:
        return dict(
            workload=self.workload,
            params=dict(self.params),
            dgc=self.dgc(),
            registry=self.registry() if self.registry else None,
            seed=seed,
        )


def _torture_topology():
    return metro_wan_topology(
        32, site_count=4, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )


def _site_aligned_topology():
    return metro_wan_topology(
        24, site_count=3, intra_rtt_s=0.001, metro_rtt_s=0.5, wan_rtt_s=2.0
    )


def _torture(shards: int = 0, topology=_torture_topology, seeds=SEEDS) -> Shape:
    return Shape(
        topology, "torture",
        {"slave_count": 96, "active_duration": 100},
        lambda: DgcConfig(ttb=5, tta=12, beat_slots=16),
        shards=shards, seeds=seeds,
    )


SHAPES: Dict[str, Shape] = {
    "torture": _torture(),
    "nas_ft": Shape(
        lambda: uniform_topology(64), "nas",
        {"kernel": "FT", "ao_count": 48, "iterations": 6},
        lambda: DgcConfig(ttb=30, tta=61),
    ),
    "naming_resolve": Shape(
        lambda: clustered_topology(32), "naming",
        {"client_count": 64, "service_count": 32, "duration": 60,
         "lookup_period": 1, "lookup_burst": 8},
        lambda: DgcConfig(ttb=30, tta=61),
        RegistryConfig,
    ),
    "naming_bind": Shape(
        lambda: uniform_topology(8), "naming",
        {"client_count": 16, "service_count": 64, "name_count": 2000,
         "zipf_s": 1.1, "churn_burst": 128, "churn_period": 2,
         "lookup_period": 1, "lookup_burst": 8, "duration": 80},
        lambda: DgcConfig(ttb=10, tta=30),
        lambda: RegistryConfig(placement="replicated", lease_beat_s=2.0),
    ),
    "sharded2": _torture(shards=2),
    "sharded3_sites": _torture(
        shards=3, topology=_site_aligned_topology, seeds=(0,)
    ),
}


def _digest(signature: tuple) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def _single_process(shape: Shape, seed: int) -> Dict[str, Any]:
    world, env, signature = replay_single_process(
        shape.topology(), **shape.arguments(seed)
    )
    accountant = world.network.accountant
    kernel = world.kernel
    stats = world.stats
    registry = world.registry
    counters: Dict[str, Any] = {}
    for kind in ALL_KINDS:
        counters[f"traffic.{kind}.bytes"] = accountant.bytes_for(kind)
        counters[f"traffic.{kind}.messages"] = accountant.messages_for(kind)
    counters.update({
        "messages": accountant.total_messages,
        "sim_bytes": accountant.total_bytes,
        "events": kernel.fired_count,
        "peak_pending": kernel.peak_pending_count,
        "bucket_events": kernel.beat_wheel.bucket_event_count,
        "pulses": world.network.pulse_event_count,
        "staged_entries": world.network.staged_entry_count,
        "aggregated_messages": world.network.aggregated_message_count,
        "created": stats.created,
        "collected": stats.collected_total,
        "terminated_explicit": stats.terminated_explicit,
        "live": world.live_non_root_count,
        "dead_letters": stats.dead_letters,
        "safety_violations": stats.safety_violations,
        "collect_sim_s": max(stats.collected_by_id.values(), default=None),
        "sim_time_s": kernel.now,
    })
    for name in REGISTRY_COUNTERS:
        counters[f"registry.{name}"] = getattr(registry, name)
    for name, value in env.results().items():
        counters[f"workload.{name}"] = value
    counters["outcome_signature"] = _digest(signature)
    return counters


def _sharded(shape: Shape, seed: int) -> Dict[str, Any]:
    result = ShardedWorld(
        shape.topology(), shape.shards, **shape.arguments(seed)
    ).run()
    counters: Dict[str, Any] = {}
    for kind in ALL_KINDS:
        size, count = result.traffic.get(kind, (0, 0))
        counters[f"traffic.{kind}.bytes"] = size
        counters[f"traffic.{kind}.messages"] = count
    counters.update({
        "messages": sum(count for _, count in result.traffic.values()),
        "sim_bytes": result.total_bytes,
        "events": result.events_fired,
        "events_workload": result.events_workload,
        "events_coordination": result.events_coordination,
        "peak_pending": max(row["peak_pending"] for row in result.per_shard),
        "bucket_events": result.bucket_events,
        "pulses": result.pulses,
        "staged_entries": result.staged_entries,
        "aggregated_messages": result.aggregated_messages,
        "created": result.created,
        "collected": result.collected_total,
        "terminated_explicit": result.terminated_explicit,
        "live": result.live_non_root,
        "dead_letters": result.dead_letters,
        "safety_violations": result.safety_violations,
        "phase_times": list(result.phase_times),
        "sim_time_s": result.sim_time_s,
        "rounds": result.rounds,
        "frames": result.frame_count,
        "frame_bytes": result.frame_bytes,
        "frame_entries": result.frame_entries,
        "egress_messages": result.egress_messages,
        "injected_entries": result.injected_entries,
        "frame_digest": result.frame_digest,
    })
    for name in REGISTRY_COUNTERS:
        counters[f"registry.{name}"] = result.registry[name]
    for row in result.workload_results:
        for name, value in row.items():
            key = f"workload.{name}"
            counters[key] = counters.get(key, 0) + value
    counters["outcome_signature"] = _digest(result.outcome_signature())
    return counters


def compute(name: str, seed: int) -> Dict[str, Any]:
    """Every exact counter of one shape at one seed, by name."""
    shape = SHAPES[name]
    if shape.shards:
        return _sharded(shape, seed)
    return _single_process(shape, seed)


def compute_all() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{shape: {seed: {counter: value}}}`` for every shape and seed."""
    return {
        name: {str(seed): compute(name, seed) for seed in shape.seeds}
        for name, shape in SHAPES.items()
    }


def load() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(OUTCOMES_PATH) as stream:
        return json.load(stream)


def diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """One line per value that differs, is missing or is new, by name."""
    # A JSON round trip makes tuples lists and keys strings, so both
    # sides compare in the form the file stores.
    actual = json.loads(json.dumps(actual))
    lines = []
    for shape in sorted(expected.keys() | actual.keys()):
        seeds_expected = expected.get(shape, {})
        seeds_actual = actual.get(shape, {})
        for seed in sorted(seeds_expected.keys() | seeds_actual.keys()):
            want = seeds_expected.get(seed, {})
            got = seeds_actual.get(seed, {})
            for counter in sorted(want.keys() | got.keys()):
                if counter not in got:
                    lines.append(f"{shape} seed {seed} {counter}: missing")
                elif counter not in want:
                    lines.append(
                        f"{shape} seed {seed} {counter}: new ({got[counter]!r})"
                    )
                elif want[counter] != got[counter]:
                    lines.append(
                        f"{shape} seed {seed} {counter}: "
                        f"{want[counter]!r} -> {got[counter]!r}"
                    )
    return lines


def render(outcomes: Dict[str, Any]) -> str:
    return json.dumps(outcomes, indent=1, sort_keys=True) + "\n"
