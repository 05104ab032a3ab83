"""The steady-state DGC heartbeat lane: its frame budget and its accounting.

The twin of ``test_typed_lane.py`` for the paper's own traffic.  Three
deterministic gates, no timing:

* **Frame budget** — on the production core, in the steady state between
  clock movements, one cross-node heartbeat exchange costs one
  ``send_dgc_single`` per direction, one ``on_dgc_message`` and one
  ``on_dgc_response``; nothing runs in ``core/protocol.py`` on behalf of
  the handlers, in ``runtime/node.py``, ``net/channel.py`` or
  ``net/accounting.py``, and the whole exchange probes at most three
  dicts with ``dict.get``.  An exchange that *does* carry news (a clock
  increment) takes Algorithms 3 and 4 — one ``core/protocol.py`` frame
  per handler.  A site-pair run of two heartbeats costs one
  ``send_dgc_run`` and one batch-sink frame per direction and one
  handler frame per message.
* **Accounting parity** — the fused lanes clamp and charge inline; per-kind
  bytes and messages, every pair's bytes and every channel's
  ``sent_count``/``delivered_count`` must equal what the per-event core
  (``observe_sized``, ``_reserve_slot``) records for the same DGC traffic:
  singles, runs, a dead target, partition drops and the delay-rule
  fallback.
* **Oracle independence** — the per-event core shares none of this: on
  it every delivered heartbeat and response enters Algorithms 3 and 4.
"""

import cProfile
import os

from repro.core.config import DgcConfig
from repro.net.faults import FaultPlan
from repro.net.kinds import KIND_DGC_MESSAGE, KIND_DGC_RESPONSE
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.world import World

TTB = 1.0
#: The files one DGC exchange may touch, as ``(package, module)``.
LANE_FILES = {
    ("net", "network.py"), ("net", "channel.py"), ("net", "accounting.py"),
    ("runtime", "node.py"),
    ("core", "collector.py"), ("core", "protocol.py"),
    ("core", "referencers.py"), ("core", "referenced.py"),
}
HANDLERS = ("on_dgc_message", "on_dgc_response")


def lane_key(filename):
    head, base = os.path.split(filename)
    return os.path.basename(head), base


def profile_one_beat(world):
    """Profile exactly one TTB period.  In the steady state every
    periodic event — each collector's tick, each heartbeat's send,
    delivery and response — happens exactly once per period, so the
    counts do not depend on where the window starts.

    Returns ``(frames, from_handlers, dict_gets)``: Python frames per
    ``(module, function)`` of the lane's files, the ``core/protocol.py``
    frames entered from the two wire handlers, and the ``dict.get``
    calls made from the lane's files."""
    profiler = cProfile.Profile()
    profiler.runcall(world.run_for, TTB)
    profiler.create_stats()
    frames, from_handlers, dict_gets = {}, 0, 0
    for (filename, _, function), (_, ncalls, _, _, callers) in (
        profiler.stats.items()
    ):
        if function == "<method 'get' of 'dict' objects>":
            dict_gets += sum(
                count for (caller_file, _, _), (count, _, _, _)
                in callers.items() if lane_key(caller_file) in LANE_FILES
            )
            continue
        key = lane_key(filename)
        if key not in LANE_FILES:
            continue
        frames[(key[1], function)] = ncalls
        if key == ("core", "protocol.py"):
            from_handlers += sum(
                count for (_, _, caller), (count, _, _, _) in callers.items()
                if caller in HANDLERS
            )
    return frames, from_handlers, dict_gets


def frames_of(frames, module):
    return {name: n for (base, name), n in frames.items() if base == module}


def steady_world(target_count, aggregation="exact"):
    """A root on site-0 holding ``target_count`` idle activities on
    site-1, run into the steady state."""
    world = World(
        uniform_topology(2),
        dgc=DgcConfig(ttb=TTB, tta=3.0, aggregation=aggregation),
        trace=False,
    )
    assert world.network.pulse_batching == (aggregation != "per-event")
    driver = world.create_driver(node="site-0")
    targets = [
        driver.context.create(SinkBehavior(), node="site-1", name=f"t{index}")
        for index in range(target_count)
    ]
    world.run_for(5 * TTB)
    return world, driver, targets


def test_steady_state_heartbeat_exchange_frame_budget():
    world, driver, (target,) = steady_world(1)
    before = world.accountant.summary()
    frames, from_handlers, dict_gets = profile_one_beat(world)
    after = world.accountant.summary()
    for kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE):
        assert after[kind].messages == before[kind].messages + 1
    # One frame per send, one per delivery instant.
    assert frames_of(frames, "network.py") == {
        "send_dgc_single": 2, "_fire_pulse": 2,
    }
    collector = frames_of(frames, "collector.py")
    assert collector["on_dgc_message"] == 1
    assert collector["on_dgc_response"] == 1
    # Nothing for the exchange in Algorithms 3/4 (the idle target's own
    # tick still asks Algorithm 2), and nothing at all in the node, the
    # channel or the accountant.
    assert from_handlers == 0
    for module in ("node.py", "channel.py", "accounting.py"):
        assert frames_of(frames, module) == {}, module
    assert dict_gets <= 3


def test_exchange_with_news_takes_algorithms_3_and_4_in_one_frame_each():
    world, driver, (target,) = steady_world(1)
    # A clock increment is news: the next heartbeat carries a new clock
    # object, and the response to it a new candidate.
    driver.collector.on_became_idle()
    frames, from_handlers, dict_gets = profile_one_beat(world)
    protocol = frames_of(frames, "protocol.py")
    assert protocol["process_message"] == 1
    assert protocol["process_response"] == 1
    assert from_handlers == 2
    assert frames_of(frames, "collector.py")["on_dgc_message"] == 1
    assert frames_of(frames, "node.py") == {}
    # ... and the period after it is steady again.
    frames, from_handlers, dict_gets = profile_one_beat(world)
    assert from_handlers == 0
    assert dict_gets <= 3


def test_site_pair_run_frame_budget():
    world, driver, targets = steady_world(2)
    before = world.accountant.summary()
    frames, from_handlers, dict_gets = profile_one_beat(world)
    after = world.accountant.summary()
    for kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE):
        assert after[kind].messages == before[kind].messages + 2
    # One run and one batch sink per direction, one handler per message.
    assert frames_of(frames, "network.py") == {
        "send_dgc_run": 2, "_fire_pulse": 2,
    }
    assert frames_of(frames, "node.py") == {
        "_on_dgc_messages": 1, "_on_dgc_responses": 1,
    }
    collector = frames_of(frames, "collector.py")
    assert collector["on_dgc_message"] == 2
    assert collector["on_dgc_response"] == 2
    assert from_handlers == 0
    for module in ("channel.py", "accounting.py"):
        assert frames_of(frames, module) == {}, module


def test_per_event_core_takes_algorithms_3_and_4_for_every_delivery():
    """The reference implementation has no steady-state lane: a
    heartbeat that carries no news still enters ``process_message``,
    its response ``process_response`` — one protocol frame per
    delivery, where the production core's budget above is zero."""
    world, driver, targets = steady_world(2, aggregation="per-event")
    before = world.accountant.summary()
    frames, from_handlers, _ = profile_one_beat(world)
    after = world.accountant.summary()
    delivered = {
        kind: after[kind].messages - before[kind].messages
        for kind in (KIND_DGC_MESSAGE, KIND_DGC_RESPONSE)
    }
    assert delivered == {KIND_DGC_MESSAGE: 2, KIND_DGC_RESPONSE: 2}
    collector = frames_of(frames, "collector.py")
    protocol = frames_of(frames, "protocol.py")
    assert collector["on_dgc_message"] == delivered[KIND_DGC_MESSAGE]
    assert collector["on_dgc_response"] == delivered[KIND_DGC_RESPONSE]
    assert protocol["process_message"] == delivered[KIND_DGC_MESSAGE]
    assert protocol["process_response"] == delivered[KIND_DGC_RESPONSE]
    assert from_handlers == 4


# ----------------------------------------------------------------------
# Accounting parity with the per-event core
# ----------------------------------------------------------------------


def drive_dgc_traffic(dgc: DgcConfig):
    """Single, run, dead-target, partition-dropped and
    delay-rule-fallback DGC traffic over three nodes."""
    reset_id_counter()
    plan = FaultPlan()
    # Responses from site-2 ride the per-envelope fallback on the
    # batched cores; every other stream keeps its fused lane.
    plan.add_delay(0.05, kind=KIND_DGC_RESPONSE, source="site-2")
    world = World(uniform_topology(3), dgc=dgc, fault_plan=plan, trace=False)
    driver = world.create_driver(node="site-0")
    run = [
        driver.context.create(SinkBehavior(), node="site-1", name=f"r{index}")
        for index in range(3)
    ]
    driver.context.create(SinkBehavior(), node="site-2", name="single")
    world.run_for(4 * TTB)
    # A target that dies while referenced: heartbeats keep being sent
    # (and charged) and are dropped silently at the receiver.
    world.find_activity(run[0].activity_id).terminate("explicit")
    world.run_for(2 * TTB)
    plan.partition("site-0", "site-1")
    world.run_for(2 * TTB)
    plan.heal("site-0", "site-1")
    world.run_for(2 * TTB)
    assert plan.dropped_count > 0
    return world


def accounting_snapshot(world):
    accountant = world.accountant
    names = list(world.nodes)
    return (
        list(accountant.summary().items()),
        {(a, b): accountant.pair_bytes((a, b)) for a in names for b in names},
        {
            pair: (channel.sent_count, channel.delivered_count)
            for pair, channel in world.network._channels.items()
        },
        world.network.fault_plan.dropped_count,
    )


def test_dgc_lane_accounting_equals_the_per_event_core():
    per_event = drive_dgc_traffic(
        DgcConfig(ttb=TTB, tta=3.0, aggregation="per-event")
    )
    assert not per_event.network.pulse_batching
    reference = accounting_snapshot(per_event)
    assert {kind for kind, cat in reference[0] if cat.messages} == {
        KIND_DGC_MESSAGE, KIND_DGC_RESPONSE,
    }
    world = drive_dgc_traffic(DgcConfig(ttb=TTB, tta=3.0))
    assert world.network.pulse_batching
    assert accounting_snapshot(world) == reference
    assert world.network.aggregated_message_count > 0  # runs did form
