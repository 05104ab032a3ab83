"""The bounded model check of Algorithms 1-4 (see :mod:`tests.model.explorer`).

* Safety and liveness hold on the whole explored space whenever
  ``TTA > 2*TTB + MaxComm`` (Sec. 3.1), for MaxComm 1 and 2.
* At ``TTA = 2*TTB + MaxComm`` the explorer rediscovers the Sec. 3.1
  worst case — A hands B's reference to C and drops its own in the tick
  of its beat, just before it; C beats just before the request lands —
  which spends the whole margin; one tick less collects B while C holds
  it.  So the bound is tight and the explorer is not vacuous.
* Every departure DESIGN.md Sec. 3 names is reverted in the real source,
  one at a time, and the explorer finds a counterexample; so is the
  Fig. 5 increment (Sec. 6 item 3).
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import pytest

from repro.core import protocol
from repro.core.referencers import ReferencerTable
from tests.model.explorer import TTB, Model, explore

#: A holds B and C, and is busy with a request that may hand B over;
#: C is busy, so it stays live whatever happens.
HANDOFF = ("AB AC", "AC")
#: A two-cycle the root reaches through A: dropping the root's reference
#: makes it a garbage cycle.
CYCLE = ("RA AB BA", "")
#: A three-cycle the root reaches through A.
RING = ("RA AB BC CA", "")


def bound(max_comm: int) -> int:
    return 2 * TTB + max_comm


@pytest.mark.parametrize("max_comm", [1, 2])
@pytest.mark.parametrize("world", [HANDOFF, CYCLE], ids=["handoff", "cycle"])
def test_safe_and_live_above_the_bound(world, max_comm):
    verdict = explore(Model(tta=bound(max_comm) + 1, max_comm=max_comm, budget=1), *world)
    assert verdict.violation is None, verdict.trace
    assert verdict.min_slack == (1 if world is HANDOFF else 6)


def test_ring_is_safe_and_live():
    verdict = explore(Model(tta=bound(1) + 1, max_comm=1, budget=1), *RING)
    assert verdict.violation is None, verdict.trace
    assert verdict.states > 5000  # every phase vector, every action


@pytest.mark.parametrize("max_comm", [1, 2])
def test_equality_rediscovers_the_handoff_worst_case(max_comm):
    verdict = explore(
        Model(tta=bound(max_comm), max_comm=max_comm, budget=1, stop_at_slack=0),
        *HANDOFF,
    )
    assert verdict.violation is None and verdict.min_slack == 0
    steps = verdict.slack_trace
    handoff = next(t for t, who, what in steps if (who, what) == ("A", "send C B"))
    by_a = [what for t, who, what in steps if (t, who) == (handoff, "A")]
    assert by_a[:2] == ["send C B", "drop B"] and "beat" in by_a
    by_c = [what for t, who, what in steps if (t, who) == (handoff + max_comm, "C")]
    assert by_c.index("beat") < by_c.index("recv q from A")
    # B last heard A's beat one TTB before the hand-off; its silence at
    # this beat is exactly TTA: 2*TTB + MaxComm.
    assert steps[-1] == (handoff + TTB + 2 * max_comm, "B", "beat")

    below = explore(Model(tta=bound(max_comm) - 1, max_comm=max_comm, budget=1), *HANDOFF)
    assert below.violation == "safety: B collected (acyclic) while live"
    assert ("A", "drop B") in [(who, what) for _, who, what in below.trace]


def _revert(owner, name: str, old: str, new: str):
    """``owner.name`` compiled from its own source with ``old`` replaced
    by ``new`` (exactly once: a changed source fails here, not silently)."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (name, old)
    scope = dict(vars(sys.modules[function.__module__]))
    exec(compile(source.replace(old, new), f"<reverted {name}>", "exec"), scope)
    return scope[name]


#: DESIGN.md Sec. 3: (departure, owner, function, restored text, the
#: pseudo-code's reading, the world where the revert shows, that world's
#: TTA offset from the bound, the counterexample).
DEPARTURES = [
    ("alg1-not-equal", ReferencerTable, "agree",
     "record.clock is not clock and record.clock != clock", "record.clock == clock",
     CYCLE, 1, "liveness: A, B never collected"),
    ("alg2-equal", protocol, "consensus_flag_for",
     "if proposed is not clock and proposed != clock:", "if proposed == clock:",
     CYCLE, 1, "liveness: A, B never collected"),
    ("alg2-parent-equal", protocol, "consensus_flag_for",
     "if state.parent == record.target:", "if state.parent != record.target:",
     RING, 1, "safety: C collected (cyclic) while live"),
    ("alg4-equal", protocol, "process_response",
     "(response_clock is not clock and response_clock != clock)", "response_clock == clock",
     CYCLE, 1, "liveness: A, B never collected"),
    ("non-vacuous-guard", protocol, "cyclic_consensus_made",
     "and len(state.referencers) > 0\n", "\n",
     HANDOFF, 1, "safety: B collected (cyclic) while live"),
    ("strict-timeout", protocol, "acyclic_timeout_expired", "> tta", ">= tta",
     HANDOFF, 0, "safety: B collected (acyclic) while live"),
]


@pytest.mark.parametrize(
    "owner, name, old, new, world, offset, counterexample",
    [d[1:] for d in DEPARTURES], ids=[d[0] for d in DEPARTURES],
)
def test_reverting_a_departure_yields_a_counterexample(
    monkeypatch, owner, name, old, new, world, offset, counterexample
):
    monkeypatch.setattr(owner, name, _revert(owner, name, old, new))
    verdict = explore(Model(tta=bound(1) + offset, max_comm=1, budget=1), *world)
    assert verdict.violation == counterexample


def test_without_the_fig5_increment_a_garbage_cycle_is_never_collected():
    """Sec. 6 item 3: the cycle adopts the root's clock (``R:0`` orders
    above ``A:0`` and ``B:0``) and, once the root lets go, nobody in the
    cycle owns the candidate, so no consensus ever forms."""
    model = Model(tta=bound(1) + 1, max_comm=1, budget=1, referencer_loss=False)
    verdict = explore(model, "RA AB BA")
    assert verdict.violation == "liveness: A, B never collected"
