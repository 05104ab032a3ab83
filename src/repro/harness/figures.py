"""Fig. 10 regeneration: torture-test evolution and totals.

Paper protocol (Sec. 5.3): 6401 activities (a master plus 50 slaves on
each of 128 machines) exchange references for ten minutes and go idle;
the DGC must then collapse the tangle.  Two configurations:
(a) TTB=30s / TTA=150s and (b) TTB=300s / TTA=1500s, plus a no-DGC
reference run for the bandwidth comparison (paper: 1699 MB and 2063 MB
vs 228 MB without DGC).

The beat-wheel refactor makes the full 6401-AO run affordable:
``run_fig10(slave_count=PAPER_SLAVE_COUNT, node_count=PAPER_NODE_COUNT,
fast=TORTURE_FAST_CONFIG.with_overrides(beat_slots=16), ...)`` schedules
the 6401 heartbeats through O(beat_slots) kernel events per beat period
instead of O(activities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """The three runs Fig. 10 and its commentary need (``slow`` is
    ``None`` when its run was skipped)."""

    fast: TortureResult
    slow: Optional[TortureResult]
    no_dgc: TortureResult


def run_fig10(
    *,
    slave_count: int = 320,
    active_duration: float = 600.0,
    node_count: int = 32,
    seed: int = 1,
    include_slow: bool = True,
    fast: DgcConfig = TORTURE_FAST_CONFIG,
    slow: DgcConfig = TORTURE_SLOW_CONFIG,
) -> Fig10Results:
    """Run the torture test under both configurations plus no-DGC.

    ``fast`` and ``slow`` are the Fig. 10(a)/(b) configurations; set
    heartbeat-slot or delivery-core knobs on them with
    :meth:`~repro.core.config.DgcConfig.with_overrides`.
    """

    def run(dgc: Optional[DgcConfig], sample: float) -> TortureResult:
        return run_torture(
            dgc=dgc,
            slave_count=slave_count,
            active_duration=active_duration,
            topology=uniform_topology(node_count),
            seed=seed,
            sample_period=sample,
        )

    fast_result = run(fast, sample=10.0)
    slow_result = run(slow, sample=100.0) if include_slow else None
    return Fig10Results(fast_result, slow_result, run(None, sample=10.0))


def fig10_report(results: Fig10Results) -> str:
    """Render the evolution plots and the bandwidth totals (Fig. 10(b)
    and its row only when its run was not skipped)."""
    runs = [("a", results.fast), ("b", results.slow)]
    runs = [(panel, run) for panel, run in runs if run is not None]
    parts = []
    for panel, run in runs:
        parts += [
            render_series(
                run.series,
                title=(
                    f"Fig. 10({panel}) — TTB={run.ttb:.0f}s "
                    f"TTA={run.tta:.0f}s ({run.ao_count} activities)"
                ),
            ),
            "",
        ]
    rows = [
        [
            f"TTB={run.ttb:.0f}",
            f"{run.total_bandwidth_mb:.2f}",
            f"{run.app_bandwidth_mb:.2f}",
            f"{run.dgc_bandwidth_mb:.2f}",
            f"{run.last_collected_s:.0f}",
        ]
        for _, run in runs
    ]
    rows.append([
        "No DGC",
        f"{results.no_dgc.total_bandwidth_mb:.2f}",
        f"{results.no_dgc.app_bandwidth_mb:.2f}",
        f"{results.no_dgc.dgc_bandwidth_mb:.2f}",
        "-",
    ])
    parts.append(render_table(
        ["Run", "Total MB", "App MB", "DGC MB", "Last collected (s)"],
        rows,
        title="Fig. 10 — Total bandwidth",
    ))
    return "\n".join(parts)
