"""Perf throughput benchmark — the ``BENCH_perf.json`` trajectory.

Runs the fixed-seed scaled torture (paper Sec. 5.3) under three cores
on the same seed:

* **batched** — the current hot paths: beat-wheel heartbeat scheduling
  plus the pulse-batched DGC fan-out;
* **per-event** — the same core with per-event scheduling (one kernel
  event per tick and per DGC message), the baseline the beat wheel is
  measured against;
* **naive scans** — the batched core with the pre-optimization
  O(referencers) ``agree``/``expire`` scans patched back in via
  :func:`repro.perf.naive_mode` (the protocol-level algorithmic
  baseline; the PR-1 kernel/net constant-factor patch set is retired —
  ``BENCH_perf.json`` now records that trajectory across PRs).

and asserts (a) bit-identical simulation outcomes across *all* cores
(same collected counts, same last-collected instant, same bandwidth) and
(b) a wall-clock speedup of batched over per-event scheduling of at
least ``MIN_SPEEDUP``.  A dense synthetic clique workload is measured as
a second trajectory point.  Results land in ``BENCH_perf.json`` at the
repo root so the numbers are tracked across PRs (see PERFORMANCE.md);
the paper-scale point lives in ``BENCH_fig10.json``
(``benchmarks/test_perf_fig10.py``).

Scale is controlled with ``REPRO_PERF_SCALE``:

* ``full`` (default) — 320 slaves, speedup gate at 1.25x;
* ``smoke`` — 96 slaves for CI smoke jobs, gate relaxed to 1.02x (tiny
  runs are noise-dominated; the artifact still gets uploaded).
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.core.config import DgcConfig
from repro.net.topology import uniform_topology
from repro.perf import PerfMeasurement, PerfReport, Stopwatch, naive_mode
from repro.runtime.ids import reset_id_counter
from repro.workloads.app import release_all
from repro.workloads.synthetic import build_complete_graph
from repro.workloads.torture import run_torture
from repro.world import World

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_perf.json"

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
if SCALE == "smoke":
    SLAVE_COUNT = 96
    MIN_SPEEDUP = 1.02
else:
    SLAVE_COUNT = 320
    MIN_SPEEDUP = 1.25

SEED = 11
NODE_COUNT = 32
ACTIVE_DURATION = 150.0
TORTURE_CONFIG = DgcConfig(ttb=5.0, tta=12.0, beat_slots=16)
#: Best-of-N wall-clock to damp scheduler/allocator noise.
ROUNDS = 2

CLIQUE_PEERS = 12 if SCALE == "smoke" else 24


def _run_torture_once(batched: bool = True):
    """One fixed-seed scaled torture run under controlled allocation."""
    reset_id_counter()
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            result = run_torture(
                dgc=TORTURE_CONFIG,
                slave_count=SLAVE_COUNT,
                active_duration=ACTIVE_DURATION,
                topology=uniform_topology(NODE_COUNT),
                seed=SEED,
                sample_period=25.0,
                collect_timeout=8_000.0,
                aggregation="exact" if batched else "per-event",
            )
    finally:
        gc.enable()
    return watch.elapsed, result


def _signature(result):
    """Everything that must be bit-identical between the cores."""
    return (
        result.collected_acyclic,
        result.collected_cyclic,
        result.last_collected_s,
        result.dead_letters,
        round(result.total_bandwidth_mb, 9),
        round(result.dgc_bandwidth_mb, 9),
    )


def _run_clique_once():
    """Dense synthetic workload: one clique of peers, collected as a
    single consensus cycle — the worst-case referencer-table density."""
    reset_id_counter()
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            world = World(
                uniform_topology(8),
                dgc=DgcConfig(ttb=1.0, tta=3.0),
                seed=5,
                trace=False,
            )
            driver = world.create_driver()
            peers = build_complete_graph(world, driver, CLIQUE_PEERS)
            world.run_for(5.0)
            release_all(driver, peers)
            collected = world.run_until_collected(600.0)
    finally:
        gc.enable()
    return watch.elapsed, world, collected


@pytest.fixture(scope="module")
def measurements():
    runs = {"batched": [], "per_event": [], "naive_scans": []}
    for _ in range(ROUNDS):
        runs["batched"].append(_run_torture_once(batched=True))
        runs["per_event"].append(_run_torture_once(batched=False))
        with naive_mode():
            runs["naive_scans"].append(_run_torture_once(batched=True))

    best = {
        mode: min(pairs, key=lambda pair: pair[0])
        for mode, pairs in runs.items()
    }
    speedup = best["per_event"][0] / best["batched"][0]

    clique_wall, clique_world, clique_collected = _run_clique_once()

    report = PerfReport(
        meta={
            "scale": SCALE,
            "seed": SEED,
            "slave_count": SLAVE_COUNT,
            "node_count": NODE_COUNT,
            "ttb": TORTURE_CONFIG.ttb,
            "tta": TORTURE_CONFIG.tta,
            "beat_slots": TORTURE_CONFIG.beat_slots,
            "rounds": ROUNDS,
        },
        pr_label="PR4",
    )
    for mode, (wall, result) in best.items():
        report.add(
            PerfMeasurement(
                name=f"torture_{mode}",
                wall_time_s=wall,
                events_fired=result.events_fired,
                peak_pending_events=result.peak_pending_events,
                sim_time_s=result.sim_time_s,
                extra={
                    "collected_acyclic": result.collected_acyclic,
                    "collected_cyclic": result.collected_cyclic,
                    "last_collected_s": result.last_collected_s,
                },
            )
        )
    report.benchmarks["torture_batched"].extra["speedup_vs_per_event"] = (
        round(speedup, 3)
    )
    report.benchmarks["torture_batched"].extra["speedup_vs_naive_scans"] = (
        round(best["naive_scans"][0] / best["batched"][0], 3)
    )
    report.add(
        PerfMeasurement(
            name="synthetic_clique_batched",
            wall_time_s=clique_wall,
            events_fired=clique_world.kernel.fired_count,
            peak_pending_events=clique_world.kernel.peak_pending_count,
            sim_time_s=clique_world.kernel.now,
            extra={
                "peers": CLIQUE_PEERS,
                "collected": clique_collected,
                "collected_cyclic": clique_world.stats.collected_cyclic,
            },
        )
    )
    report.write(BENCH_PATH)
    return {
        "runs": runs,
        "best": best,
        "speedup": speedup,
        "clique_collected": clique_collected,
        "report": report,
    }


def test_outcomes_are_bit_identical_across_cores(measurements):
    """The optimizations are pure speedups: every run of every core on
    the same seed must produce the same simulation outcome."""
    signatures = {
        _signature(result)
        for pairs in measurements["runs"].values()
        for __, result in pairs
    }
    assert len(signatures) == 1, f"outcomes diverged: {signatures}"


def test_all_torture_runs_collected_everything(measurements):
    for pairs in measurements["runs"].values():
        for __, result in pairs:
            assert result.all_collected


def test_wall_clock_speedup(measurements):
    speedup = measurements["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"batched beat scheduling is only {speedup:.2f}x faster than "
        f"per-event scheduling (required: {MIN_SPEEDUP}x at "
        f"scale={SCALE!r})"
    )


def test_batched_core_does_less_heap_traffic(measurements):
    batched = measurements["best"]["batched"][1]
    per_event = measurements["best"]["per_event"][1]
    assert batched.events_fired < per_event.events_fired


def test_synthetic_clique_collects(measurements):
    assert measurements["clique_collected"]


def test_bench_artifact_written(measurements):
    assert BENCH_PATH.exists()
    import json

    payload = json.loads(BENCH_PATH.read_text())
    assert payload["schema"] == 1
    benchmarks = payload["benchmarks"]
    assert "torture_batched" in benchmarks
    assert "torture_per_event" in benchmarks
    assert "torture_naive_scans" in benchmarks
    assert "synthetic_clique_batched" in benchmarks
    for entry in benchmarks.values():
        assert entry["wall_time_s"] > 0
        assert entry["events_per_second"] > 0
    assert benchmarks["torture_batched"]["peak_pending_events"] > 0
    assert benchmarks["torture_batched"]["speedup_vs_per_event"] > 0
