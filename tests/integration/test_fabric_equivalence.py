"""The unified fabric is a pure delivery-mechanism change: pulse-batched
typed delivery and per-event envelope delivery must produce bit-identical
simulations on **app-traffic-dominated** workloads, not just DGC beats.

Property checked across seeds and NAS kernels on fixed-seed runs: the
full :class:`~repro.world.WorldStats` (including the per-activity
collection instants) and the complete tracer event stream agree between
the two delivery modes.  This mirrors
``tests/integration/test_beat_equivalence.py`` (which drives the torture
workload) on the request/reply-heavy NAS patterns — CG's neighbour
exchanges + reductions, EP's final reduction, FT's all-to-all transpose.
"""

import pytest

from repro.core.config import DgcConfig
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.workloads.nas import kernel_spec, run_nas_kernel
from tests.equiv import (
    outcome_fingerprint,
    stats_fingerprint,
    tracer_fingerprint,
)

CONFIG = DgcConfig(ttb=2.0, tta=5.0)
WORKERS = 10
NODES = 4

#: Short kernels whose traffic is dominated by app requests/replies.
SPECS = {
    "CG": dict(iterations=8, iter_time_s=3.0, payload_bytes=5_000),
    "EP": dict(iterations=1, iter_time_s=2.0),
    "FT": dict(iterations=5, iter_time_s=3.0, payload_bytes=1_200),
}


def run(kernel: str, seed: int, aggregation: str = "exact",
        reply_barrier: bool = False):
    reset_id_counter()
    return run_nas_kernel(
        kernel_spec(kernel, ao_count=WORKERS, reply_barrier=reply_barrier,
                    **SPECS[kernel]),
        dgc=CONFIG,
        topology=uniform_topology(NODES),
        seed=seed,
        collect_timeout=4_000.0,
        aggregation=aggregation,
        trace=True,
        keep_world=True,
    )


def nas_outcome(result):
    """The NAS-specific observables stacked onto the stats/tracer pair."""
    return (
        result.app_time_s,
        result.dgc_time_s,
        round(result.bandwidth_mb, 9),
        round(result.app_bandwidth_mb, 9),
        round(result.dgc_bandwidth_mb, 9),
        result.dead_letters,
    )


def world_fingerprint(result):
    """Everything observable about one run: the stats block (with every
    per-activity collection instant), the raw tracer stream and the
    NAS run summary."""
    return (
        stats_fingerprint(result),
        tracer_fingerprint(result),
        nas_outcome(result),
    )


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("kernel", sorted(SPECS))
def test_exact_core_is_bit_identical_to_per_event_on_app_traffic(kernel, seed):
    exact = run(kernel, seed)
    per_event = run(kernel, seed, aggregation="per-event")
    e_stats, e_events, e_outcome = world_fingerprint(exact)
    p_stats, p_events, p_outcome = world_fingerprint(per_event)
    assert e_outcome == p_outcome
    assert e_stats == p_stats
    assert len(e_events) == len(p_events)
    assert e_events == p_events
    # NAS workers hold complete graphs: site-pair runs must merge.
    assert exact.world.network.aggregated_message_count > 0


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("kernel", sorted(SPECS))
def test_relaxed_core_matches_per_event_outcomes(kernel, seed):
    """On app-dominated NAS traffic the relaxed tier defers only the
    DGC sideband, so beyond the reachability verdicts even the app
    phase is untouched: same completion time, same app bandwidth."""
    relaxed = run(kernel, seed, aggregation="relaxed")
    per_event = run(kernel, seed, aggregation="per-event")
    assert outcome_fingerprint(relaxed) == outcome_fingerprint(per_event)
    assert relaxed.app_time_s == per_event.app_time_s
    assert relaxed.app_bandwidth_mb == per_event.app_bandwidth_mb
    assert relaxed.dead_letters == per_event.dead_letters == 0
    assert relaxed.world.network.relaxed_flush_count > 0


@pytest.mark.parametrize("seed", [2, 11])
def test_reply_barrier_is_bit_identical_across_cores(seed):
    """The synchronous NAS variant (driver-mediated iteration barriers,
    one reply future per worker per iteration) exercises the
    future/reply path; its outcomes must be identical under aggregated
    and per-event delivery."""
    exact = run("FT", seed, reply_barrier=True)
    per_event = run("FT", seed, aggregation="per-event", reply_barrier=True)
    assert world_fingerprint(exact) == world_fingerprint(per_event)
    # The barrier actually rode the reply path: one reply per worker
    # per iteration was delivered on top of the async variant's.
    plain = run("FT", seed)
    assert (
        exact.app_bandwidth_mb > plain.app_bandwidth_mb
    ), "reply traffic missing"
    assert exact.collected_acyclic + exact.collected_cyclic == WORKERS


@pytest.mark.parametrize("kernel", sorted(SPECS))
def test_batched_runs_do_less_heap_traffic(kernel):
    """The structural claim: typed pulses cost O(distinct delivery
    instants) kernel events, per-event delivery O(messages)."""
    batched = run(kernel, seed=3)
    per_event = run(kernel, seed=3, aggregation="per-event")
    assert batched.events_fired < per_event.events_fired


def test_auto_beat_slots_collects_and_stays_equivalent():
    """``beat_slots="auto"`` resolves the same adaptive grid under both
    delivery modes, so equivalence holds exactly as for a pinned int."""
    reset_id_counter()
    kwargs = dict(
        dgc=CONFIG,
        topology=uniform_topology(NODES),
        seed=9,
        collect_timeout=4_000.0,
        beat_slots="auto",
        trace=True,
        keep_world=True,
    )
    spec = kernel_spec("FT", ao_count=WORKERS, **SPECS["FT"])
    batched = run_nas_kernel(spec, **kwargs)
    reset_id_counter()
    per_event = run_nas_kernel(spec, aggregation="per-event", **kwargs)
    assert batched.collected_cyclic + batched.collected_acyclic == WORKERS
    assert world_fingerprint(batched) == world_fingerprint(per_event)
