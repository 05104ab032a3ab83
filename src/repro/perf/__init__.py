"""Performance measurement subsystem.

``repro.perf`` is the harness every perf-focused PR is judged against:

* :mod:`repro.perf.stopwatch` — :class:`Stopwatch` timing and the
  :class:`PerfReport` writer behind ``BENCH_perf.json`` and
  ``BENCH_fig10.json``;
* :mod:`repro.perf.baseline` — the naive O(referencers) protocol scans,
  patchable in under :func:`naive_mode` so the algorithmic speedup is
  measured against the code it replaced, on the same seed, in the same
  process.  (Scheduling baselines need no patching: per-event beats are
  a config knob, ``DgcConfig(aggregation="per-event")``.)

See PERFORMANCE.md for methodology; ``benchmarks/test_perf_throughput.py``
and ``benchmarks/test_perf_fig10.py`` are the entry points.
"""

from repro.perf.baseline import naive_mode
from repro.perf.stopwatch import (
    PerfMeasurement,
    PerfReport,
    Stopwatch,
    current_git_sha,
)

__all__ = [
    "PerfMeasurement",
    "PerfReport",
    "Stopwatch",
    "current_git_sha",
    "naive_mode",
]
