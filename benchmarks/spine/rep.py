"""One rep of one scenario: timing, exact counters and correctness checks.

A rep builds the scenario's world, runs it to complete collection and reads
the simulation's public counters.  Timing brackets the whole rep; the
counters are deterministic, so every rep of a run must report the same ones.

Counters are read with ``getattr(..., None)``: a counter a later change
removes or renames reads as ``None`` and the metrics derived from it are
reported as missing — the benchmark never crashes on a missing attribute.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import os
import pstats
import resource
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import repro.shard.coordinator as coordinator
import repro.shard.worker as worker
from repro.errors import SimulationError
from repro.shard import ShardedWorld, replay_single_process

from scenarios import Scenario

_DGC_KINDS = ("dgc.message", "dgc.response")
_COHERENCE_KINDS = ("registry.bind", "registry.invalidate", "registry.push")


def _get(obj: Any, path: str) -> Any:
    """``obj.a.b.c`` or ``None`` as soon as one attribute is absent."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _item(mapping: Any, key: str) -> Any:
    return mapping.get(key) if isinstance(mapping, dict) else None


def _sum(values) -> Optional[float]:
    values = list(values)
    return None if any(v is None for v in values) else sum(values)


def _column(rows: Any, key: str, fold) -> Any:
    """``fold`` over ``row[key]`` of every row; ``None`` if anything is absent."""
    if not isinstance(rows, list) or not rows:
        return None
    values = [_item(row, key) for row in rows]
    return None if any(v is None for v in values) else fold(values)


def world_counters(world: Any, env: Any) -> Dict[str, Any]:
    """Exact counters of a finished single-process world."""
    messages_for = _get(world, "network.accountant.messages_for")

    def kind_messages(kinds: Tuple[str, ...]) -> Optional[int]:
        return None if messages_for is None else sum(map(messages_for, kinds))

    collected_at = _get(world, "stats.collected_by_id")
    results = env.results() if callable(getattr(env, "results", None)) else None
    return {
        "messages": _get(world, "network.accountant.total_messages"),
        "sim_bytes": _get(world, "network.accountant.total_bytes"),
        "dgc_bytes": _get(world, "network.accountant.dgc_bytes"),
        "registry_bytes": _get(world, "network.accountant.registry_bytes"),
        "dgc_messages": kind_messages(_DGC_KINDS),
        "coherence_messages": kind_messages(_COHERENCE_KINDS),
        "events": _get(world, "kernel.fired_count"),
        "peak_pending": _get(world, "kernel.peak_pending_count"),
        "bucket_events": _get(world, "kernel.beat_wheel.bucket_event_count"),
        "pulses": _get(world, "network.pulse_event_count"),
        "staged_entries": _get(world, "network.staged_entry_count"),
        "aggregated_messages": _get(world, "network.aggregated_message_count"),
        "created": _get(world, "stats.created"),
        "collected": _get(world, "stats.collected_total"),
        "live": _get(world, "live_non_root_count"),
        "dead_letters": _get(world, "stats.dead_letters"),
        "safety_violations": _get(world, "stats.safety_violations"),
        "collect_sim_s": max(collected_at.values()) if collected_at else None,
        "resolves": _get(world, "registry.resolves"),
        "remote_lookups": _get(world, "registry.remote_lookups"),
        "cache_hits": _get(world, "registry.cache_hits"),
        "binds": _get(world, "registry.binds_applied"),
        "unbinds": _get(world, "registry.unbinds_applied"),
        "resolves_issued": _item(results, "resolves_issued"),
        "resolves_completed": _item(results, "resolves_completed"),
        "latency_sum": _item(results, "latency_sum"),
    }


def sharded_counters(result: Any) -> Dict[str, Any]:
    """Exact counters of a merged :class:`ShardedRunResult`.

    The fabric's staging counters and the beat wheel live inside the workers
    and are not part of the merged result, so they read as ``None`` here.
    """
    traffic = getattr(result, "traffic", None)

    def kind_sum(kinds, column: int) -> Optional[int]:
        if not isinstance(traffic, dict):
            return None
        return sum(traffic[k][column] for k in kinds if k in traffic)

    registry = getattr(result, "registry", None)
    workloads = getattr(result, "workload_results", None)
    per_shard = getattr(result, "per_shard", None)
    phase_times = getattr(result, "phase_times", None)
    every = tuple(traffic) if isinstance(traffic, dict) else ()
    return {
        "messages": kind_sum(every, 1),
        "sim_bytes": getattr(result, "total_bytes", None),
        "dgc_bytes": kind_sum(_DGC_KINDS, 0),
        "registry_bytes": kind_sum(
            tuple(k for k in every if k.startswith("registry.")), 0
        ),
        "dgc_messages": kind_sum(_DGC_KINDS, 1),
        "coherence_messages": kind_sum(_COHERENCE_KINDS, 1),
        "events": getattr(result, "events_fired", None),
        "peak_pending": _column(per_shard, "peak_pending", max),
        "bucket_events": None,
        "pulses": None,
        "staged_entries": None,
        "aggregated_messages": None,
        "created": getattr(result, "created", None),
        "collected": _get(result, "collected_total"),
        "live": getattr(result, "live_non_root", None),
        "dead_letters": getattr(result, "dead_letters", None),
        "safety_violations": getattr(result, "safety_violations", None),
        "collect_sim_s": phase_times[-1] if phase_times else None,
        "resolves": _item(registry, "resolves"),
        "remote_lookups": _item(registry, "remote_lookups"),
        "cache_hits": _item(registry, "cache_hits"),
        "binds": _item(registry, "binds_applied"),
        "unbinds": _item(registry, "unbinds_applied"),
        "resolves_issued": _column(workloads, "resolves_issued", sum),
        "resolves_completed": _column(workloads, "resolves_completed", sum),
        "latency_sum": _column(workloads, "latency_sum", sum),
        "rounds": getattr(result, "rounds", None),
        "frames": getattr(result, "frame_count", None),
        "frame_bytes": getattr(result, "frame_bytes", None),
        "frame_entries": getattr(result, "frame_entries", None),
        "injected_entries": getattr(result, "injected_entries", None),
        "events_coordination": getattr(result, "events_coordination", None),
        "frame_digest": getattr(result, "frame_digest", None),
    }


def op_count(op: str, counters: Dict[str, Any]) -> Optional[int]:
    """The scenario's operation count: an exact counter, never a timing."""
    if op == "messages":
        return counters.get("messages")
    return _sum(counters.get(k) for k in ("resolves_completed", "binds", "unbinds"))


def failed_ops(counters: Dict[str, Any], naming: bool) -> List[Tuple[str, int]]:
    """``(counter, failed operations)`` for every check one rep fails."""
    failures = []
    for name in ("live", "safety_violations", "dead_letters"):
        value = counters.get(name)
        if value is None:  # nothing vouches for the rep
            failures.append((f"{name} unreadable", 1))
        elif value:
            failures.append((name, value))
    if naming:
        issued = counters.get("resolves_issued")
        completed = counters.get("resolves_completed")
        if issued is None or completed is None:
            failures.append(("resolves unreadable", 1))
        elif issued != completed:
            failures.append(("resolves_issued - resolves_completed",
                             abs(issued - completed)))
    return failures


def differing(reference: Dict[str, Any], counters: Dict[str, Any]) -> List[str]:
    """Names of exact counters that differ from the reference rep's."""
    return sorted(
        name for name in reference.keys() | counters.keys()
        if reference.get(name) != counters.get(name)
    )


def audit(
    label: str, one: "Rep", reference: "Rep", op: str, naming: bool
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, failures)`` of one rep against the reference rep.

    Every failure names the offending counter and the rep.  A rep that
    raised, or whose exact counters or outcome signature differ from the
    reference's, fails all of its operations.
    """
    ops = op_count(op, one.counters)
    expected = op_count(op, reference.counters) or 1
    attempted = ops or expected
    if one.error:
        return attempted, expected, [f"{label}: {one.error}"]
    failed = 0
    failures = []
    for counter, count in failed_ops(one.counters, naming):
        failures.append(f"{label}: {counter} = {count}")
        failed += count
    drift = differing(reference.counters, one.counters)
    if one.signature != reference.signature:
        drift.append("outcome signature")
    if drift:
        failures.append(f"{label}: differs from rep 0 in {', '.join(drift)}")
        failed = attempted
    return attempted, failed, failures


class BuildTimer:
    """Times ``build_shard_world`` (CPU seconds) without touching the program.

    Installed over the two names the program calls it by (the replay reaches
    it through ``coordinator``, a worker through ``worker``); forked workers
    inherit the wrapper and append ``shard seconds`` to a file, since their
    memory is gone when the parent wants the number.
    """

    def __init__(self, scratch: str) -> None:
        self._path = os.path.join(scratch, "builds.txt")
        self._pid = os.getpid()
        self._original = worker.build_shard_world
        self.local: List[float] = []

    def __enter__(self) -> "BuildTimer":
        coordinator.build_shard_world = self
        worker.build_shard_world = self
        return self

    def __exit__(self, *exc_info) -> None:
        coordinator.build_shard_world = self._original
        worker.build_shard_world = self._original

    def __call__(self, spec, kernel=None):
        start = time.process_time()
        built = self._original(spec, kernel=kernel)
        elapsed = time.process_time() - start
        if os.getpid() == self._pid:
            self.local.append(elapsed)
        else:
            with open(self._path, "a") as out:
                out.write(f"{spec.shard} {elapsed!r}\n")
        return built

    def take(self) -> Optional[float]:
        """Build CPU seconds since the last call: the slowest process's."""
        samples, self.local = self.local, []
        if os.path.exists(self._path):
            with open(self._path) as lines:
                samples += [float(line.split()[1]) for line in lines]
            os.remove(self._path)
        return max(samples, default=None)


@dataclass
class Rep:
    """What one rep measured."""

    cpu_s: float
    wall_s: float
    #: Seconds the hypervisor ran something else on this VM's CPUs (all of
    #: them) during the rep; ``None`` where ``/proc/stat`` does not say.
    stolen_s: Optional[float]
    topology_s: float
    build_s: Optional[float]
    counters: Dict[str, Any]
    #: Outcome signature (replay tuple or ``outcome_signature()``).
    signature: Any = None
    error: Optional[str] = None
    #: ``process name -> pstats table`` when the rep was traced.
    profiles: Dict[str, Dict[tuple, tuple]] = field(default_factory=dict)


def _cpu_now() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@contextlib.contextmanager
def _profiled_workers(profile_dir: str):
    """Profile inside every forked worker and dump its stats for the parent.

    ``ShardedWorld`` looks ``worker_main`` up in the coordinator module when
    it forks, so replacing that name is enough; the child writes its pstats
    after the worker loop returns and before the parent's ``join``.
    """
    original = coordinator.worker_main

    def traced_worker_main(conn, spec):
        profiler = cProfile.Profile()
        try:
            profiler.runcall(original, conn, spec)
        finally:
            profiler.dump_stats(os.path.join(profile_dir, f"worker{spec.shard}"))

    coordinator.worker_main = traced_worker_main
    try:
        yield
    finally:
        coordinator.worker_main = original


def _stolen_now() -> Optional[float]:
    """Steal time of all CPUs so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_rep(
    scenario: Scenario,
    seed: int,
    *,
    smoke: bool,
    sharded: bool,
    timer: BuildTimer,
    profile_dir: Optional[str] = None,
) -> Rep:
    """Run the scenario once; ``profile_dir`` makes it the traced rep.

    ``sharded=False`` on a sharded scenario runs its single-process replay
    (the outcome oracle).
    """
    arguments = dict(
        workload=scenario.workload,
        params=scenario.sized(smoke),
        dgc=scenario.dgc(),
        registry=scenario.registry() if scenario.registry else None,
        seed=seed,
    )
    gc.collect()
    cpu0, wall0, stolen0 = _cpu_now(), time.perf_counter(), _stolen_now()
    topology = scenario.topology()
    sharded_world = (
        ShardedWorld(topology, scenario.shards, **arguments) if sharded else None
    )
    topology_s = _cpu_now() - cpu0

    def drive() -> Tuple[Dict[str, Any], Any]:
        if sharded_world is not None:
            result = sharded_world.run()
            return sharded_counters(result), result.outcome_signature()
        world, env, signature = replay_single_process(topology, **arguments)
        return world_counters(world, env), signature

    profiler = cProfile.Profile() if profile_dir else None
    counters: Dict[str, Any] = {}
    signature = error = None
    try:
        if profiler is None:
            counters, signature = drive()
        else:
            with _profiled_workers(profile_dir):
                counters, signature = profiler.runcall(drive)
    except SimulationError as exc:
        # A time-out (activities left uncollected) or a worker failure.
        error = f"{type(exc).__name__}: {exc}"
    wall_s, cpu_s = time.perf_counter() - wall0, _cpu_now() - cpu0
    stolen_s = None if stolen0 is None else _stolen_now() - stolen0
    rep = Rep(cpu_s, wall_s, stolen_s, topology_s, timer.take(), counters,
              signature, error)
    if profiler is not None and error is None:
        profiler.create_stats()
        rep.profiles["main"] = profiler.stats
        for name in sorted(os.listdir(profile_dir)):
            if name.startswith("worker"):
                path = os.path.join(profile_dir, name)
                rep.profiles[name] = pstats.Stats(path).stats
                os.remove(path)
    return rep


def probe_import(python: str, imports: str, env: Dict[str, str]) -> float:
    """CPU seconds a fresh interpreter takes to import ``imports``."""
    code = (
        "import time; t = time.process_time(); "
        f"import {imports}; print(time.process_time() - t)"
    )
    done = subprocess.run(
        [python, "-c", code], env=env, check=True, capture_output=True,
        text=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])
