"""repro.analysis — the static analyzer for what tier-1 cannot see.

A pure-AST lint for the hot-path allocation discipline (HOT: slotted
classes, no closures allocated in loops, no ``typing``-alias class
checks) on the paths no call or byte budget watches, plus suppression
hygiene (``META-suppression``).  Entropy, wall-clock reads, set order,
ordering by object address, the closed traffic-kind set and the SPMD
shard contract are checked on the real objects by the golden outcomes
and the equivalence and sharded-against-replay suites; ANALYSIS.md
records the audit that moved each rule there.  Run ``python -m
repro.analysis src/repro``.
"""

from repro.analysis.walker import (
    AnalysisResult,
    Finding,
    all_rule_ids,
    rule_summaries,
    run_analysis,
)

__all__ = [
    "AnalysisResult",
    "Finding",
    "all_rule_ids",
    "rule_summaries",
    "run_analysis",
]
