"""Fig. 10 — the DGC torture test.

Paper (6401 AOs on 128 machines, 600 s of reference exchange):

* (a) TTB=30/TTA=150: idle wave after 600 s, acyclic trickle, then the
  consensus collapses the whole tangle; total 1699 MB;
* (b) TTB=300/TTA=1500: same shape, stretched ~10x; total 2063 MB;
* without DGC: 228 MB, last activity done at 1718 s.

Shape asserted here (scaled: 120 slaves + master): nothing collected
during the active phase; everything collected afterwards; the slow-beat
run collects several times later than the fast one; DGC traffic
dominates the reference-exchange app traffic in both.
"""

import pytest

from repro.core.config import TORTURE_FAST_CONFIG, TORTURE_SLOW_CONFIG
from repro.harness.figures import Fig10Results, fig10_report
from repro.harness.report import render_series
from repro.net.topology import uniform_topology
from repro.workloads.torture import run_torture

SLAVES = 120
DURATION = 600.0
NODES = 16
#: The paper's configurations (Fig. 10 (a) and (b)).
FAST = TORTURE_FAST_CONFIG
SLOW = TORTURE_SLOW_CONFIG


def run(dgc, seed=1):
    return run_torture(
        dgc=dgc,
        slave_count=SLAVES,
        active_duration=DURATION,
        topology=uniform_topology(NODES),
        seed=seed,
        sample_period=10.0,
    )


@pytest.fixture(scope="module")
def results():
    return Fig10Results(fast=run(FAST), slow=run(SLOW), no_dgc=run(None))


def test_fig10_torture_evolution(benchmark, results):
    benchmark.pedantic(lambda: run(FAST, seed=2), rounds=1, iterations=1)
    print()
    print(fig10_report(results))

    for result in (results.fast, results.slow):
        assert result.all_collected
        # Nothing collected during the active phase.
        for time, __, collected in result.series:
            if time < DURATION:
                assert collected == 0
        # DGC traffic is a major share of the total (Sec. 5.3: "the
        # communication overhead of the DGC is predominant").
        assert result.dgc_bandwidth_mb > 0.3 * result.app_bandwidth_mb
    # At the paper's fast beat it outright dominates.
    assert results.fast.dgc_bandwidth_mb > results.fast.app_bandwidth_mb

    # The slow beat collects much later (paper: Fig. 10(b)'s axis runs to
    # 18000 s vs (a)'s 2400 s, a ~7.5x stretch; we measure ~8x).
    assert results.slow.last_collected_s > 4 * results.fast.last_collected_s
    # The two DGC runs cost the same order of magnitude of bandwidth
    # (paper: 1699 MB vs 2063 MB).  Known deviation: our byte model has
    # no per-connection overhead, so the TTB=300 run comes out somewhat
    # *below* the TTB=30 run rather than ~20 % above it.
    ratio = results.slow.total_bandwidth_mb / results.fast.total_bandwidth_mb
    assert 0.25 < ratio < 4.0
    # Both DGC runs cost several times the no-DGC app traffic (paper:
    # 1699/2063 MB vs 228 MB).
    assert (
        results.fast.total_bandwidth_mb
        > 1.5 * results.no_dgc.total_bandwidth_mb
    )


def test_fig10_idle_wave_shape(results):
    """The idle curve: near-zero during the run, a rising wave around the
    deadline, zero again once collected."""
    fast = results.fast
    mid_phase = [
        idle for time, idle, __ in fast.series if 30.0 < time < DURATION * 0.8
    ]
    assert mid_phase and max(mid_phase) < fast.ao_count / 3
    peak_idle = max(idle for __, idle, __unused in fast.series)
    assert peak_idle > fast.ao_count / 2
    assert fast.series[-1][1] == 0
