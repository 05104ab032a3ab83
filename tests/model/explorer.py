"""A bounded, exhaustive model check of Algorithms 1-4 (``core/protocol.py``).

World: a root ``R`` (never idle, never collected) and up to three
activities on two nodes; TTB is 4 ticks and every message arrives
exactly ``max_comm`` ticks after it was sent, in FIFO order per channel
(one latency for every pair, as on a uniform topology).  Each activity
is a real :class:`~repro.core.protocol.DgcState` driven through the
functions of :mod:`repro.core.protocol`, looked up on the module at each
call so a test can swap one for a reverted variant.  The wiring around
them (beat, broadcast, the three clock-increment occasions) mirrors
:class:`repro.core.collector.DgcCollector` without the Sec. 4.3 doomed
state: a consensus terminates the activity at once.

Explored: every beat phase; every schedule of at most ``budget`` mutator
actions (send a held reference to a held target, drop a reference, go
idle — by a busy activity or the root), taken at the start of an
activity's turn in a tick; every order of the activity's due deliveries
and its beat within the tick.  Turns of different activities commute
(each touches only its own state and appends to its own outgoing
channels), so a tick's successors are the product of per-activity turn
outcomes, and a collection is judged against the other activities as
they were at the start of the tick — what the order running the
collected activity's turn first would see.  States are deduplicated by
a key in which absolute times become ages capped at TTA + 1: every
decision compares an age with TTA.

Checks: *safety* (no activity collected while paper Eq. 1 says it is
live); *liveness* (no cycle of states that keeps garbage — without
actions the garbage set only shrinks, so such a cycle is garbage kept
forever, found as a depth-first back edge); and the *slack*
``TTA - silence`` of each live idle activity at its acyclic test, whose
minimum and witness schedule are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from repro.core import protocol
from repro.core.clock import ActivityClock
from repro.core.protocol import DgcState
from repro.core.referenced import ReferencedRecord
from repro.core.referencers import ReferencerRecord
from repro.core.wire import DgcMessage
from repro.runtime.proxy import RemoteRef, StubTag

TTB = 4
ROOT = "R"
NODE_OF = {"R": "n0", "A": "n0", "B": "n1", "C": "n1"}


@dataclass(frozen=True)
class Model:
    tta: int
    max_comm: int
    budget: int = 2
    referencer_loss: bool = True  # the Fig. 5 clock increment
    referenced_loss: bool = True  # the Fig. 6 clock increment
    stop_at_slack: Optional[int] = None  # end once this slack is witnessed


@dataclass
class Verdict:
    states: int
    violation: Optional[str]  # "safety: ..." or "liveness: ..."
    trace: List[tuple]  # (tick, activity, event) up to the violation
    min_slack: int
    slack_trace: List[tuple]


class _Found(Exception):
    def __init__(self, what: Optional[str], trace) -> None:
        super().__init__(what)
        self.trace = trace


class Act:
    __slots__ = ("name", "phase", "busy", "dead", "st", "tags", "ref", "memo")

    def clone(self) -> "Act":
        copy = Act.__new__(Act)
        copy.name, copy.phase, copy.busy = self.name, self.phase, self.busy
        copy.dead, copy.ref, copy.memo = self.dead, self.ref, None
        copy.tags = {}
        for target, tag in self.tags.items():
            twin = copy.tags[target] = StubTag(self.name, target, tag.generation)
            twin.dead = tag.dead
        old = self.st
        st = copy.st = DgcState(
            old.self_id, old.clock, old.parent, depth=old.depth,
            last_message_timestamp=old.last_message_timestamp,
        )
        for name, r in old.referencers._records.items():
            st.referencers._records[name] = ReferencerRecord(
                name, r.clock, r.consensus, r.last_message_time
            )
        for name, r in old.referenced._records.items():
            tag = copy.tags[name] if r.tag is self.tags[name] else r.tag
            st.referenced._records[name] = ReferencedRecord(
                name, r.ref, tag, r.tag_dead, r.needs_send, r.last_response
            )
        st.referenced._maybe_removable = old.referenced._maybe_removable
        return copy

    def stubs(self) -> List[str]:
        return [t for t, tag in self.tags.items() if not tag.dead]

    def key(self, now: int, cap: int) -> tuple:
        if self.dead:
            return self.name
        if self.memo is None or self.memo[0] != now:
            s = self.st
            self.memo = (now, (
                self.name, self.phase, self.busy, s.clock.value, s.clock.owner,
                s.parent, min(now - s.last_message_timestamp, cap),
                tuple(sorted(
                    (n, r.clock.value, r.clock.owner, r.consensus,
                     min(now - r.last_message_time, cap))
                    for n, r in s.referencers._records.items()
                )),
                tuple(sorted(
                    (n, r.tag is self.tags[n], r.tag_dead, r.needs_send,
                     _value_key(r.last_response))
                    for n, r in s.referenced._records.items()
                )),
                tuple(sorted(self.stubs())),
            ))
        return self.memo[1]


def _value_key(value):
    if value is None or type(value) is str:
        return value
    if type(value) is DgcMessage:
        return (value.sender, value.clock.value, value.clock.owner, value.consensus)
    return (value.responder, value.clock.value, value.clock.owner,
            value.has_parent, value.consensus_reached, value.depth)


class World:
    __slots__ = ("now", "acts", "chans", "budget")

    def key(self, model: Model) -> tuple:
        now, cap = self.now, model.tta + 1
        return (now % TTB, self.budget, tuple(a.key(now, cap) for a in self.acts),
                tuple(sorted(
                    (pair, tuple((due - now, kind, _value_key(v)) for due, kind, v in q))
                    for pair, q in self.chans.items() if q
                )))


def garbage(acts, chans) -> set:
    """Paper Eq. 1 over the model: what no busy activity (the root is
    one) and no in-flight request reaches through live stubs."""
    live = {a.name: a for a in acts if not a.dead}
    stack = [n for n, a in live.items() if a.busy]
    for (_, dst), queue in chans.items():
        stack += [x for _, kind, v in queue if kind == "q" for x in (dst, v)]
    reached = set()
    while stack:
        name = stack.pop()
        if name in live and name not in reached:
            reached.add(name)
            stack += live[name].stubs()
    return set(live) - reached


def initial_worlds(edges: str, busy: str, budget: int):
    """``edges`` like ``"AB AC"``; one world per beat-phase vector (the
    first activity beats at phase 0: only relative phases matter)."""
    names = sorted({n for edge in edges.split() for n in edge}, key="RABC".index)
    for phases in itertools.product(range(TTB), repeat=len(names) - 1):
        w = World()
        w.now, w.chans, w.budget, w.acts = 0, {}, budget, []
        for name, phase in zip(names, (0,) + phases):
            a = Act()
            a.name, a.phase, a.dead, a.memo = name, phase, False, None
            a.busy = name == ROOT or name in busy
            a.ref, a.tags = RemoteRef(name, NODE_OF[name]), {}
            a.st = DgcState(self_id=name, clock=ActivityClock(0, name))
            w.acts.append(a)
        for edge in edges.split():
            _deserialize(next(a for a in w.acts if a.name == edge[0]), edge[1])
        yield w


def _deserialize(a: Act, target: str) -> None:
    tag = a.tags.get(target)
    if tag is None or tag.dead:
        tag = a.tags[target] = StubTag(a.name, target, tag.generation + 1 if tag else 0)
    a.st.referenced.on_deserialized(RemoteRef(target, NODE_OF[target]), tag)


class _Turn:
    """One activity's turn of one tick, on a private copy of the channels."""

    def __init__(self, start: World, a: Act, model: Model, slack: list, trace):
        self.start, self.a, self.model, self.slack = start, a, model, slack
        self.chans = dict(start.chans)
        self.sends: list = []
        self.trace = trace

    def note(self, label: str) -> None:
        self.trace = (self.trace, ((self.start.now, self.a.name, label),))

    def send(self, dst: str, kind: str, value) -> None:
        message = (self.start.now + self.model.max_comm, kind, value)
        self.chans[self.a.name, dst] = self.chans.get((self.a.name, dst), ()) + (message,)
        self.sends.append(((self.a.name, dst), message))

    def live(self) -> bool:
        acts = [self.a if other.name == self.a.name else other for other in self.start.acts]
        return self.a.name not in garbage(acts, self.chans)

    def act(self, action: tuple) -> None:
        a, model = self.a, self.model
        self.note(" ".join(action))
        if action[0] == "send":
            self.send(action[1], "q", action[2])
        elif action[0] == "drop":
            tag = a.tags[action[1]]
            tag.dead = True
            record = a.st.referenced.on_tag_dead(tag)
            if record is not None and record.removable:
                if a.st.referenced.pop_removable() and model.referenced_loss:
                    a.st.increment_clock()
        else:
            a.busy = False
            a.st.increment_clock()

    def deliver(self, src: str) -> None:
        a, now = self.a, self.start.now
        (_, kind, value), *rest = self.chans[src, a.name]
        self.chans[src, a.name] = tuple(rest)
        self.note(f"recv {kind} from {src}")
        if a.dead:
            return
        if kind == "m":
            self.send(src, "r", protocol.process_message(a.st, value, now))
        elif kind == "r":
            protocol.process_response(a.st, value)
        else:
            a.busy = True
            _deserialize(a, value)

    def beat(self) -> None:
        a, model, now = self.a, self.model, self.start.now
        st = a.st
        self.note("beat")
        if st.referencers.expire(now, model.tta) and model.referencer_loss:
            st.increment_clock()
        idle = not a.busy
        if idle:
            margin = model.tta - (now - st.last_message_timestamp)
            if margin < self.slack[0] and self.live():
                self.slack[:] = [margin, self.trace]
                if margin == model.stop_at_slack:
                    raise _Found(None, self.trace)
            for why, fired in (
                ("acyclic", protocol.acyclic_timeout_expired(st, now, model.tta)),
                ("cyclic", protocol.cyclic_consensus_made(st)),
            ):
                if fired:
                    if self.live():
                        raise _Found(f"safety: {a.name} collected ({why}) while live", self.trace)
                    a.dead = True
                    return
        for record in st.referenced.records_view():
            flag = protocol.consensus_flag_for(st, record, idle)
            self.send(record.target, "m", DgcMessage(a.name, st.clock, flag, a.ref))
            record.needs_send = False
        if st.referenced.pop_removable() and model.referenced_loss:
            st.increment_clock()


def _actions(a: Act, budget: int):
    """Every action ``a`` may take this turn, as a tuple (or none)."""
    yield ()
    if budget and a.busy and not a.dead:
        stubs = a.stubs()
        for target in stubs:
            for carried in stubs:
                if carried != target:
                    yield (("send", target, carried),)
                    # The hand-off: send, then drop the sender's own stub.
                    yield (("send", target, carried), ("drop", carried))
        yield from ((("drop", target),) for target in stubs)
        if a.name != ROOT:
            yield (("idle",),)


def _turns(start: World, a: Act, model: Model, slack: list, trace) -> list:
    """Distinct outcomes of ``a``'s turn: (act, sends, actions used, trace)."""
    now = start.now
    events = [src for (src, dst), q in start.chans.items() if dst == a.name
              for m in q if m[0] == now]
    if not a.dead and a.phase == now % TTB:
        events.append(None)
    if not events and not (a.busy and start.budget):
        return [(a, (), 0, trace)]
    orders = sorted(set(itertools.permutations(events)), key=str)
    outcomes, seen = [], set()
    for actions in _actions(a, start.budget):
        for order in orders:
            turn = _Turn(start, a.clone() if events or actions else a, model, slack, trace)
            for action in actions:
                turn.act(action)
            for event in order:
                if event is None:
                    turn.beat()
                else:
                    turn.deliver(event)
                if turn.a.dead:
                    break
            used = 1 if actions else 0
            mark = (turn.a.key(now, model.tta + 1), tuple(turn.sends), used)
            if mark not in seen:
                seen.add(mark)
                outcomes.append((turn.a, turn.sends, used, turn.trace))
    return outcomes


def _successors(w: World, model: Model, slack: list, trace):
    per_act = [_turns(w, a, model, slack, trace) for a in w.acts]
    base = {pair: tuple(m for m in q if m[0] > w.now) for pair, q in w.chans.items()}
    for combo in itertools.product(*per_act):
        used = sum(outcome[2] for outcome in combo)
        if used > w.budget:
            continue
        nxt = World()
        nxt.now, nxt.budget, nxt.acts = w.now + 1, w.budget - used, [o[0] for o in combo]
        nxt.chans = dict(base)
        steps = []
        for _, sends, _, turn_trace in combo:
            for pair, message in sends:
                nxt.chans[pair] = nxt.chans.get(pair, ()) + (message,)
            steps += _steps(turn_trace, stop=trace)
        yield nxt, (trace, tuple(steps)) if steps else trace


def _steps(trace, stop=None) -> List[tuple]:
    chunks = []
    while trace is not stop and trace is not None:
        trace, chunk = trace
        chunks.append(chunk)
    return [step for chunk in reversed(chunks) for step in chunk]


def explore(model: Model, edges: str, busy: str = "") -> Verdict:
    """Exhaust every schedule from the world ``edges`` describes."""
    on_path: dict = {}  # state key -> True while on the depth-first path
    slack = [model.tta + 1, None]
    try:
        for root in initial_worlds(edges, busy, model.budget):
            key = root.key(model)
            on_path[key] = True
            stack = [(key, _successors(root, model, slack, None))]
            while stack:
                key, successors = stack[-1]
                for nxt, nxt_trace in successors:
                    nxt_key = nxt.key(model)
                    if nxt_key not in on_path:
                        on_path[nxt_key] = True
                        stack.append((nxt_key, _successors(nxt, model, slack, nxt_trace)))
                        break
                    left = on_path[nxt_key] and garbage(nxt.acts, nxt.chans)
                    if left:
                        raise _Found(f"liveness: {', '.join(sorted(left))} never collected", nxt_trace)
                else:
                    on_path[key] = False
                    stack.pop()
    except _Found as found:
        return Verdict(len(on_path), found.args[0], _steps(found.trace),
                       slack[0], _steps(slack[1]))
    return Verdict(len(on_path), None, [], slack[0], _steps(slack[1]))
