"""Torture-test workload: small-scale end-to-end checks (Fig. 10)."""

import pytest

from repro.core.config import TORTURE_FAST_CONFIG, DgcConfig
from repro.harness.figures import run_fig10
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.workloads.torture import run_torture

FAST = DgcConfig(ttb=2.0, tta=10.0)


@pytest.fixture(scope="module")
def torture_result():
    return run_torture(
        dgc=FAST,
        slave_count=24,
        active_duration=60.0,
        topology=uniform_topology(8),
        seed=2,
        sample_period=5.0,
        safety_checks=True,
    )


def test_everything_collected(torture_result):
    assert torture_result.all_collected
    assert (
        torture_result.collected_cyclic + torture_result.collected_acyclic
        == torture_result.ao_count
    )


def test_no_dead_letters(torture_result):
    assert torture_result.dead_letters == 0


def test_nothing_collected_during_active_phase(torture_result):
    for time, __, collected in torture_result.series:
        if time < torture_result.active_duration_s:
            assert collected == 0


def test_idle_wave_then_collapse(torture_result):
    # During the active phase most activities are busy.
    mid_phase = [
        idle
        for time, idle, __ in torture_result.series
        if 10.0 <= time <= torture_result.active_duration_s * 0.8
    ]
    assert mid_phase and min(mid_phase) < torture_result.ao_count / 2
    # Eventually the collected count reaches the total.
    final_time, final_idle, final_collected = torture_result.series[-1]
    assert final_collected == torture_result.ao_count
    assert final_idle == 0


def test_dgc_traffic_dominates_app_traffic(torture_result):
    """Sec. 5.3: 'the only data exchanged ... consists in the remote
    references, so the communication overhead of the DGC is
    predominant'."""
    assert (
        torture_result.dgc_bandwidth_mb > torture_result.app_bandwidth_mb
    )


def test_no_dgc_run_keeps_survivors():
    result = run_torture(
        dgc=None,
        slave_count=12,
        active_duration=40.0,
        topology=uniform_topology(4),
        seed=3,
        sample_period=5.0,
    )
    assert not result.all_collected
    assert result.last_collected_s is None
    assert result.dgc_bandwidth_mb == 0.0


@pytest.mark.parametrize("seed", [3, 11])
def test_run_fig10_delivery_cores_agree(seed):
    """The Fig. 10 harness runs the fast config it is given: both cores yield
    the same plot and bandwidth totals, the exact one with fewer kernel
    events."""

    def fig10(aggregation):
        reset_id_counter()
        return run_fig10(
            slave_count=10,
            active_duration=30.0,
            node_count=4,
            seed=seed,
            include_slow=False,
            fast=TORTURE_FAST_CONFIG.with_overrides(aggregation=aggregation),
        )

    def signature(result):
        return (
            result.collected_acyclic,
            result.collected_cyclic,
            result.last_collected_s,
            result.dead_letters,
            round(result.total_bandwidth_mb, 9),
            round(result.dgc_bandwidth_mb, 9),
            tuple(result.series),
        )

    exact, per_event = fig10("exact"), fig10("per-event")
    assert exact.fast.ao_count == 11  # master + slaves
    assert exact.fast.all_collected
    assert signature(exact.fast) == signature(per_event.fast)
    assert signature(exact.no_dgc) == signature(per_event.no_dgc)
    assert exact.fast.events_fired < per_event.fast.events_fired


def test_larger_ttb_collects_later():
    fast = run_torture(
        dgc=DgcConfig(ttb=2.0, tta=10.0),
        slave_count=12,
        active_duration=40.0,
        topology=uniform_topology(4),
        seed=4,
    )
    slow = run_torture(
        dgc=DgcConfig(ttb=8.0, tta=40.0),
        slave_count=12,
        active_duration=40.0,
        topology=uniform_topology(4),
        seed=4,
    )
    assert fast.all_collected and slow.all_collected
    assert slow.last_collected_s > fast.last_collected_s
