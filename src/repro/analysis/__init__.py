"""repro.analysis — fabric-invariant static analyzer.

Pure-AST lint for the properties the test suite can only catch after
the fact: determinism of the core (DET), no traffic-kind literal
outside the declared kind set (KIND), the SPMD shard contract (SPMD),
and hot-path allocation discipline (HOT).  It never imports the code it
analyzes.  Run ``python -m repro.analysis src/repro`` or
``harness analyze``; rules and suppression syntax are documented in
ANALYSIS.md.
"""

from repro.analysis.model import AnalysisResult, Finding, Suppression
from repro.analysis.report import render_human, render_json
from repro.analysis.walker import (
    Analyzer,
    all_rule_ids,
    rule_summaries,
    run_analysis,
)

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "Finding",
    "Suppression",
    "all_rule_ids",
    "render_human",
    "render_json",
    "rule_summaries",
    "run_analysis",
]
