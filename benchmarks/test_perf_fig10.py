"""Paper-scale Fig. 10 benchmark — the ``BENCH_fig10.json`` trajectory.

Runs the torture test at the paper's full scale — 6401 active objects (a
master plus 50 slaves on each of 128 machines, Sec. 5.3) — on the same
seed through :func:`repro.harness.figures.run_fig10`, once per delivery
core:

* **aggregated** (``aggregation="exact"``) — the exact-order aggregated
  columnar core: pooled pulse records, site-pair DGC runs staged as
  single aggregate entries with flat ``(target_id, message)`` columns,
  batch-sink unwrapping and the steady-state receive diet;
* **per-event** — the pre-wheel baseline: one cancellable kernel event
  per activity per tick and one heap event per message;
* **relaxed** — the relaxed-equivalence tier: DGC sends accumulate per
  (site pair, kind) across instants and flush once per beat bucket, so
  staging cost drops from per-adjacent-run to per-(site pair, beat).

The two exact cores must be bit-identical (same collected counts,
same last-collected instant, same bandwidth, same sampled series).  The
relaxed core is gated on the outcome tier — identical reachability
verdicts against the per-event baseline (same activities created, the
same set collected, zero dead letters and safety violations) — plus its
structural gate: staged-entry count reduced ``MIN_ENTRY_REDUCTION``x vs
the exact-order core (its wall clock against that core is recorded, not
gated).  Results land in ``BENCH_fig10.json`` at the repo root (see
PERFORMANCE.md).

The time axis is compressed exactly like the throughput benchmark's
(TTB=5 s, TTA=12 s, 150 s active phase): the *scale* axis — activity
count, node count, reference-graph density — is the paper's, the beat
period is shrunk so a full collapse fits in a benchmark run.

Scale is controlled with ``REPRO_FIG10_SCALE``:

* ``full`` (default) — the 6401-AO paper scale, gates at 1.3x
  (aggregated vs per-event) and 5x (relaxed staged-entry reduction);
* ``smoke`` — 641 AOs for CI smoke jobs, the wall-clock gate relaxed to
  1.1x (small runs are noise-dominated; the artifact still records the
  measured ratios).  The entry-reduction gate stays at 5x —
  the counter is deterministic, and the flush-time site-level merge
  keeps buckets dense even at 10 slaves per node (measured 12.5x at
  smoke scale vs 25.9x at paper scale).

``REPRO_FIG10_AXES`` splits the matrix for CI: ``exact`` measures only
the two exact cores (the pre-existing axis), ``relaxed`` only the
relaxed core and the baselines its gates compare against, ``all`` (the
default) everything.

The timed cores run ``ROUNDS`` times each (best-of-rounds) because the
A/B gaps at full scale are a few seconds of a ~60 s run — single runs
are at the mercy of machine noise.
"""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest

from repro.core.config import DgcConfig
from repro.harness.figures import (
    PAPER_NODE_COUNT,
    PAPER_SLAVE_COUNT,
    run_fig10,
)
from repro.perf import PerfMeasurement, PerfReport, Stopwatch
from repro.runtime.ids import reset_id_counter

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_fig10.json"
PR_LABEL = "PR6"

SCALE = os.environ.get("REPRO_FIG10_SCALE", "full")
AXES = os.environ.get("REPRO_FIG10_AXES", "all")
if SCALE == "smoke":
    SLAVE_COUNT = 640
    NODE_COUNT = 64
    MIN_SPEEDUP = 1.1
    MIN_ENTRY_REDUCTION = 5.0
else:
    SLAVE_COUNT = PAPER_SLAVE_COUNT
    NODE_COUNT = PAPER_NODE_COUNT
    # Keeps noise margin (sustained-load throttling dominates the
    # spread); the artifact records the measured ratio.
    MIN_SPEEDUP = 1.3
    MIN_ENTRY_REDUCTION = 5.0

#: Best-of-N timing for the batched-core family (their gaps are small
#: relative to wall-clock noise); the per-event run stays single-shot.
ROUNDS = 2

SEED = 11
ACTIVE_DURATION = 150.0
#: Compressed-time paper configuration (scale axis untouched).
FIG10_CONFIG = DgcConfig(ttb=5.0, tta=12.0)
#: Start-jitter phase slots per TTB: heartbeat scheduling becomes
#: O(BEAT_SLOTS) heap events per beat period in batched mode.
BEAT_SLOTS = 16

#: Which cores this axes selection measures.  The relaxed axis still
#: needs every baseline its gates compare against: exact (staged-entry
#: reduction) and per-event (outcomes).
CORES = {
    "exact": ("exact", "per-event"),
    "relaxed": ("relaxed", "exact", "per-event"),
    "all": ("exact", "per-event", "relaxed"),
}[AXES]
#: Cores whose wall clock feeds a ratio, and therefore get
#: best-of-ROUNDS timing.
TIMED = tuple(core for core in CORES if core != "per-event")


def _run_once(mode: str):
    """One fixed-seed paper-scale run under controlled allocation."""
    reset_id_counter()
    gc.collect()
    gc.disable()
    try:
        with Stopwatch() as watch:
            results = run_fig10(
                slave_count=SLAVE_COUNT,
                active_duration=ACTIVE_DURATION,
                node_count=NODE_COUNT,
                seed=SEED,
                fast=FIG10_CONFIG,
                include_slow=False,
                include_no_dgc=False,
                beat_slots=BEAT_SLOTS,
                aggregation=mode,
                collect_timeout=16_000.0,
                keep_world=True,
            )
    finally:
        gc.enable()
    result = results.fast
    world = result.world
    stats = world.stats
    outcome = (
        stats.created,
        stats.terminated_explicit,
        len(stats.collected_by_id),
        tuple(sorted(stats.collected_by_id)),
        stats.dead_letters,
        stats.safety_violations,
    )
    network = world.network
    counters = {
        "staged_entry_count": network.staged_entry_count,
        "pulse_event_count": network.pulse_event_count,
        "aggregated_message_count": network.aggregated_message_count,
        "relaxed_flush_count": network.relaxed_flush_count,
    }
    result.world = None  # Drop the world before the next run allocates.
    return watch.elapsed, result, counters, outcome


def _signature(result):
    """Everything that must be bit-identical across the exact cores."""
    return (
        result.collected_acyclic,
        result.collected_cyclic,
        result.last_collected_s,
        result.dead_letters,
        round(result.total_bandwidth_mb, 9),
        round(result.dgc_bandwidth_mb, 9),
        tuple(result.series),
    )


def _requires(*cores):
    missing = [core for core in cores if core not in CORES]
    if missing:
        pytest.skip(
            f"cores {missing} not measured under REPRO_FIG10_AXES={AXES!r}"
        )


@pytest.fixture(scope="module")
def measurements():
    runs = {}
    for mode in CORES:
        runs[mode] = _run_once(mode)
    for mode in TIMED:
        for _ in range(ROUNDS - 1):
            wall, *_rest = _run_once(mode)
            if wall < runs[mode][0]:
                runs[mode] = (wall, *_rest)

    report = PerfReport(
        meta={
            "scale": SCALE,
            "axes": AXES,
            "seed": SEED,
            "slave_count": SLAVE_COUNT,
            "node_count": NODE_COUNT,
            "ao_count": runs[CORES[0]][1].ao_count,
            "ttb": FIG10_CONFIG.ttb,
            "tta": FIG10_CONFIG.tta,
            "beat_slots": BEAT_SLOTS,
            "active_duration_s": ACTIVE_DURATION,
        },
        pr_label=PR_LABEL,
    )
    names = {
        "exact": "fig10_aggregated",
        "per-event": "fig10_per_event",
        "relaxed": "fig10_relaxed",
    }
    for mode in CORES:
        wall, result, counters, _outcome = runs[mode]
        report.add(
            PerfMeasurement(
                name=names[mode],
                wall_time_s=wall,
                events_fired=result.events_fired,
                peak_pending_events=result.peak_pending_events,
                sim_time_s=result.sim_time_s,
                extra={
                    "collected_acyclic": result.collected_acyclic,
                    "collected_cyclic": result.collected_cyclic,
                    "last_collected_s": result.last_collected_s,
                    "dgc_bandwidth_mb": round(result.dgc_bandwidth_mb, 6),
                    "staged_entry_count": counters["staged_entry_count"],
                    "pulse_event_count": counters["pulse_event_count"],
                },
            )
        )
    benchmarks = report.benchmarks
    benchmarks["fig10_aggregated"].extra["speedup_vs_per_event"] = round(
        runs["per-event"][0] / runs["exact"][0], 3
    )
    if "relaxed" in CORES:
        extra = benchmarks["fig10_relaxed"].extra
        extra["relaxed_flush_count"] = runs["relaxed"][2]["relaxed_flush_count"]
        extra["speedup_vs_aggregated"] = round(
            runs["exact"][0] / runs["relaxed"][0], 3
        )
        extra["staged_entry_reduction_vs_exact"] = round(
            runs["exact"][2]["staged_entry_count"]
            / runs["relaxed"][2]["staged_entry_count"], 3
        )
    report.write(BENCH_PATH)
    return runs


def test_outcomes_are_bit_identical_across_exact_cores(measurements):
    """Exact delivery mechanics are pure scheduling/allocation changes:
    the two exact cores on the same seed must produce the same
    simulation outcome, sample for sample."""
    aggregated = _signature(measurements["exact"][1])
    per_event = _signature(measurements["per-event"][1])
    assert aggregated == per_event


def test_paper_scale_run_collects_everything(measurements):
    for mode in CORES:
        result = measurements[mode][1]
        assert result.all_collected
        assert result.ao_count == SLAVE_COUNT + 1


def test_batched_wall_clock_speedup(measurements):
    speedup = measurements["per-event"][0] / measurements["exact"][0]
    assert speedup >= MIN_SPEEDUP, (
        f"batched beat scheduling is only {speedup:.2f}x faster than "
        f"per-event scheduling (required: {MIN_SPEEDUP}x at "
        f"scale={SCALE!r})"
    )


def test_batched_run_does_less_heap_traffic(measurements):
    """The structural claim behind the speedup: O(buckets + pulses)
    events instead of O(ticks + messages)."""
    batched = measurements["exact"][1]
    per_event = measurements["per-event"][1]
    assert batched.events_fired < per_event.events_fired / 4
    assert batched.peak_pending_events < per_event.peak_pending_events


def test_relaxed_outcomes_match_per_event(measurements):
    """The relaxed tier's contract at paper scale: identical
    reachability verdicts against the per-event baseline — same
    activities created, the same set collected, zero dead letters, zero
    safety violations."""
    _requires("relaxed", "per-event")
    assert measurements["relaxed"][3] == measurements["per-event"][3]
    assert measurements["relaxed"][1].dead_letters == 0


def test_relaxed_staged_entry_reduction(measurements):
    """The structural gate: coalescing per (site pair, beat bucket)
    instead of per adjacent run must collapse the staged-entry count
    well past the exact-order ceiling."""
    _requires("relaxed", "exact")
    exact_entries = measurements["exact"][2]["staged_entry_count"]
    relaxed_entries = measurements["relaxed"][2]["staged_entry_count"]
    assert measurements["relaxed"][2]["relaxed_flush_count"] > 0
    reduction = exact_entries / relaxed_entries
    assert reduction >= MIN_ENTRY_REDUCTION, (
        f"relaxed coalescing staged only {reduction:.2f}x fewer entries "
        f"than the exact-order core ({relaxed_entries} vs {exact_entries}; "
        f"required: {MIN_ENTRY_REDUCTION}x at scale={SCALE!r})"
    )


def test_bench_artifact_written(measurements):
    import json

    assert BENCH_PATH.exists()
    payload = json.loads(BENCH_PATH.read_text())
    assert payload["schema"] == 1
    benchmarks = payload["benchmarks"]
    assert benchmarks["fig10_aggregated"]["speedup_vs_per_event"] > 0
    if "relaxed" in CORES:
        relaxed = benchmarks["fig10_relaxed"]
        assert relaxed["speedup_vs_aggregated"] > 0
        assert relaxed["staged_entry_reduction_vs_exact"] > 0
    for entry in benchmarks.values():
        assert entry["wall_time_s"] > 0
        assert entry["events_per_second"] > 0
    meta = payload["meta"]
    assert meta["ao_count"] == SLAVE_COUNT + 1
    # Provenance: every artifact names the code state that produced it.
    assert meta["pr_label"] == PR_LABEL
    assert meta["git_sha"]
