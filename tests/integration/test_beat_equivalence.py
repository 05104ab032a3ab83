"""Beat batching is a pure scheduling change: wheel-batched and
per-event scheduling must produce bit-identical simulations.

Property checked across seeds and slot counts on fixed-seed torture
runs: the full :class:`~repro.world.WorldStats` (including the
per-activity collection instants) and the complete tracer event stream
agree between the two schedulers.  The wheel changes *heap traffic*
(one kernel event per bucket per tick, one per delivery instant), never
*behaviour* (event times, callback order, message contents).
"""

import pytest

from repro.core.config import DgcConfig
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.workloads.torture import run_torture
from tests.equiv import stats_fingerprint, tracer_fingerprint

SLAVES = 24
NODES = 6
ACTIVE = 40.0
CONFIG = DgcConfig(ttb=2.0, tta=5.0)


def run(seed: int, slots: int, aggregation: str = "exact"):
    reset_id_counter()
    return run_torture(
        dgc=CONFIG.with_overrides(beat_slots=slots, aggregation=aggregation),
        slave_count=SLAVES,
        active_duration=ACTIVE,
        topology=uniform_topology(NODES),
        seed=seed,
        sample_period=10.0,
        collect_timeout=4_000.0,
        trace=True,
        keep_world=True,
    )


def world_fingerprint(result):
    """Everything observable about one run: the stats block (with every
    per-activity collection instant), the raw tracer stream and the
    sampled Fig. 10 series."""
    return (
        stats_fingerprint(result),
        tracer_fingerprint(result),
        tuple(result.series),
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 23])
@pytest.mark.parametrize("slots", [0, 4])
def test_exact_core_is_bit_identical_to_per_event(seed, slots):
    """Aggregated columnar and per-event delivery differ in mechanics
    only: same stats, same series, same tracer stream, event for
    event."""
    exact = run(seed, slots)
    per_event = run(seed, slots, aggregation="per-event")
    assert exact.all_collected and per_event.all_collected
    e_stats, e_events, e_series = world_fingerprint(exact)
    p_stats, p_events, p_series = world_fingerprint(per_event)
    assert e_stats == p_stats
    assert e_series == p_series
    assert len(e_events) == len(p_events)
    assert e_events == p_events
    # The aggregated core actually merged site-pair runs on this graph.
    assert exact.world.network.aggregated_message_count > 0


@pytest.mark.parametrize("slots", [0, 4])
def test_batched_runs_do_less_heap_traffic(slots):
    """The structural claim on beat-dominated traffic: wheel buckets and
    typed pulses cost O(distinct instants) kernel events, per-event
    scheduling O(activities x ticks + messages)."""
    batched = run(3, slots)
    per_event = run(3, slots, aggregation="per-event")
    assert batched.all_collected and per_event.all_collected
    assert batched.events_fired * 2 < per_event.events_fired


def test_quantized_phases_change_schedule_but_not_liveness():
    """Sanity companion: slot quantization (same scheduler) is allowed
    to shift collection instants, but never breaks collection."""
    continuous = run(3, 0)
    quantized = run(3, 8)
    assert continuous.all_collected and quantized.all_collected
    assert continuous.world.stats.safety_violations == 0
    assert quantized.world.stats.safety_violations == 0
