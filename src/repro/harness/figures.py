"""Fig. 10 regeneration: torture-test evolution and totals.

Paper protocol (Sec. 5.3): 6401 activities (a master plus 50 slaves on
each of 128 machines) exchange references for ten minutes and go idle;
the DGC must then collapse the tangle.  Two configurations:
(a) TTB=30s / TTA=150s and (b) TTB=300s / TTA=1500s, plus a no-DGC
reference run for the bandwidth comparison (paper: 1699 MB and 2063 MB
vs 228 MB without DGC).

The beat-wheel refactor makes the full 6401-AO run affordable:
``run_fig10(slave_count=PAPER_SLAVE_COUNT, node_count=PAPER_NODE_COUNT,
beat_slots=16)`` schedules the 6401 heartbeats through O(beat_slots)
kernel events per beat period instead of O(activities);
``benchmarks/test_perf_fig10.py`` drives the paper-scale A/B against
per-event scheduling and records the trajectory in ``BENCH_fig10.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.config import (
    DgcConfig,
    TORTURE_FAST_CONFIG,
    TORTURE_SLOW_CONFIG,
)
from repro.harness.report import render_series, render_table
from repro.net.topology import uniform_topology
from repro.workloads.torture import TortureResult, run_torture

#: The paper's full Fig. 10 scale: 50 slaves on each of 128 machines,
#: plus the master — 6401 active objects.
PAPER_SLAVE_COUNT = 6400
PAPER_NODE_COUNT = 128


@dataclass
class Fig10Results:
    """The three runs Fig. 10 and its commentary need.

    ``slow``/``no_dgc`` repeat ``fast`` when their runs were skipped
    (perf-benchmark mode only needs the fast configuration).
    """

    fast: TortureResult
    slow: TortureResult
    no_dgc: TortureResult


def run_fig10(
    *,
    slave_count: int = 320,
    active_duration: float = 600.0,
    node_count: int = 32,
    seed: int = 1,
    fast: DgcConfig = TORTURE_FAST_CONFIG,
    slow: DgcConfig = TORTURE_SLOW_CONFIG,
    include_slow: bool = True,
    include_no_dgc: bool = True,
    beat_slots: Optional[Union[int, str]] = None,
    aggregation: Optional[str] = None,
    collect_timeout: float = 36_000.0,
    keep_world: bool = False,
) -> Fig10Results:
    """Run the torture test under both configurations plus no-DGC.

    ``beat_slots``/``aggregation``/``keep_world`` are forwarded to
    :func:`repro.workloads.torture.run_torture` (heartbeat-slot and
    delivery-core knobs); skipped runs reuse the fast result so the
    report shape is stable.
    """

    def run(dgc: Optional[DgcConfig], sample: float) -> TortureResult:
        return run_torture(
            dgc=dgc,
            slave_count=slave_count,
            active_duration=active_duration,
            topology=uniform_topology(node_count),
            seed=seed,
            sample_period=sample,
            collect_timeout=collect_timeout,
            beat_slots=beat_slots,
            aggregation=aggregation,
            keep_world=keep_world,
        )

    fast_result = run(fast, sample=10.0)
    slow_result = (
        run(slow, sample=100.0) if include_slow else fast_result
    )
    no_dgc_result = run(None, sample=10.0) if include_no_dgc else fast_result
    return Fig10Results(fast_result, slow_result, no_dgc_result)


def fig10_report(results: Fig10Results) -> str:
    """Render both evolution plots and the bandwidth totals."""
    parts = [
        render_series(
            results.fast.series,
            title=(
                f"Fig. 10(a) — TTB={results.fast.ttb:.0f}s "
                f"TTA={results.fast.tta:.0f}s "
                f"({results.fast.ao_count} activities)"
            ),
        ),
        "",
        render_series(
            results.slow.series,
            title=(
                f"Fig. 10(b) — TTB={results.slow.ttb:.0f}s "
                f"TTA={results.slow.tta:.0f}s "
                f"({results.slow.ao_count} activities)"
            ),
        ),
        "",
        render_table(
            ["Run", "Total MB", "App MB", "DGC MB", "Last collected (s)"],
            [
                [
                    f"TTB={results.fast.ttb:.0f}",
                    f"{results.fast.total_bandwidth_mb:.2f}",
                    f"{results.fast.app_bandwidth_mb:.2f}",
                    f"{results.fast.dgc_bandwidth_mb:.2f}",
                    f"{results.fast.last_collected_s:.0f}",
                ],
                [
                    f"TTB={results.slow.ttb:.0f}",
                    f"{results.slow.total_bandwidth_mb:.2f}",
                    f"{results.slow.app_bandwidth_mb:.2f}",
                    f"{results.slow.dgc_bandwidth_mb:.2f}",
                    f"{results.slow.last_collected_s:.0f}",
                ],
                [
                    "No DGC",
                    f"{results.no_dgc.total_bandwidth_mb:.2f}",
                    f"{results.no_dgc.app_bandwidth_mb:.2f}",
                    f"{results.no_dgc.dgc_bandwidth_mb:.2f}",
                    "-",
                ],
            ],
            title="Fig. 10 — Total bandwidth",
        ),
    ]
    return "\n".join(parts)
