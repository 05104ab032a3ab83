"""Property-based tests on the pure protocol state machine: invariants
that must hold under any sequence of message/response deliveries."""

from hypothesis import example, given, settings, strategies as st

from repro.core.clock import ActivityClock
from repro.core.config import DgcConfig
from repro.core.protocol import DgcState, process_message, process_response
from repro.core.wire import DgcMessage, DgcResponse
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.ids import reset_id_counter
from repro.runtime.proxy import RemoteRef, StubTag
from repro.world import World

SENDERS = [f"ao-{index}" for index in range(4)]
TARGETS = [f"tgt-{index}" for index in range(3)]

clocks = st.builds(
    ActivityClock,
    st.integers(min_value=0, max_value=20),
    st.sampled_from(SENDERS + TARGETS + ["self"]),
)

messages = st.builds(
    DgcMessage,
    sender=st.sampled_from(SENDERS),
    clock=clocks,
    consensus=st.booleans(),
    sender_ref=st.sampled_from(SENDERS).map(lambda s: RemoteRef(s, "n0")),
)

responses = st.builds(
    DgcResponse,
    responder=st.sampled_from(TARGETS),
    clock=clocks,
    has_parent=st.booleans(),
    consensus_reached=st.just(False),
)

deliveries = st.lists(
    st.one_of(messages, responses), min_size=0, max_size=40
)


def fresh_state():
    state = DgcState(self_id="self", clock=ActivityClock(0, "self"))
    for target in TARGETS:
        tag = StubTag("self", target, 1)
        state.referenced.on_deserialized(RemoteRef(target, "n0"), tag)
    return state


def run_sequence(state, sequence):
    now = 0.0
    for item in sequence:
        now += 1.0
        if isinstance(item, DgcMessage):
            process_message(state, item, now)
        else:
            process_response(state, item)


@given(deliveries)
def test_clock_never_decreases(sequence):
    state = fresh_state()
    previous = state.clock
    now = 0.0
    for item in sequence:
        now += 1.0
        if isinstance(item, DgcMessage):
            process_message(state, item, now)
        else:
            process_response(state, item)
        assert state.clock >= previous
        previous = state.clock


@given(deliveries)
def test_clock_is_max_of_seen_message_clocks(sequence):
    state = fresh_state()
    run_sequence(state, sequence)
    seen = [ActivityClock(0, "self")] + [
        item.clock for item in sequence if isinstance(item, DgcMessage)
    ]
    assert state.clock == max(seen)


@given(deliveries)
def test_parent_is_always_a_referenced_activity_or_none(sequence):
    state = fresh_state()
    run_sequence(state, sequence)
    assert state.parent is None or state.parent in state.referenced


@given(deliveries)
def test_owner_never_has_parent(sequence):
    """The originator is the root of the reverse spanning tree."""
    state = fresh_state()
    now = 0.0
    for item in sequence:
        now += 1.0
        if isinstance(item, DgcMessage):
            process_message(state, item, now)
        else:
            process_response(state, item)
        if state.owns_clock:
            assert state.parent is None


@given(deliveries)
def test_parent_only_with_matching_candidate(sequence):
    """Whenever a parent is adopted, the adopting response proposed
    exactly the current clock."""
    state = fresh_state()
    now = 0.0
    for item in sequence:
        now += 1.0
        if isinstance(item, DgcMessage):
            process_message(state, item, now)
        else:
            before = state.parent
            process_response(state, item)
            if state.parent is not None and before is None:
                assert item.clock == state.clock
                assert item.has_parent


@given(deliveries)
def test_referencer_records_track_last_message(sequence):
    state = fresh_state()
    run_sequence(state, sequence)
    last_by_sender = {}
    for item in sequence:
        if isinstance(item, DgcMessage):
            last_by_sender[item.sender] = item
    for sender, message in last_by_sender.items():
        record = state.referencers.get(sender)
        assert record is not None
        assert record.clock == message.clock
        assert record.consensus == message.consensus


@given(deliveries)
def test_response_never_advances_clock(sequence):
    """Fig. 4 invariant, stated over arbitrary histories: only messages
    (never responses) can advance the activity clock."""
    state = fresh_state()
    now = 0.0
    for item in sequence:
        now += 1.0
        if isinstance(item, DgcMessage):
            process_message(state, item, now)
        else:
            before = state.clock
            process_response(state, item)
            assert state.clock == before


# ----------------------------------------------------------------------
# The collector's steady-state lane against the pure algorithms
# ----------------------------------------------------------------------
#
# Every test above builds a fresh clock object per message, so none of
# them reaches the paths that key on object identity: the referencer
# table's touch-skip, the cached response, and the collector's
# steady-state guards in ``on_dgc_message`` / ``on_dgc_response``.  The
# differential test below re-delivers the *same* message and response
# objects — interleaved with clock increments, clock adoptions,
# consensus-bit flips, parent loss and referencer expiry — to a real
# collector on the production core and to a twin ``DgcState`` that takes
# Algorithms 3 and 4 as written on every delivery, and requires the two
# to stay indistinguishable.  In particular it checks the invariant the
# message guard relies on: a clock object already recorded for a
# referencer can never exceed our clock.

LANE_SENDERS = ["ao-00000000:early", "zz-late"]
LANE_TARGETS = ["tgt-0", "tgt-1"]
#: Clock choices: an index into a fixed pool, the collector's current
#: clock *object* (what a referencer that adopted it echoes back), or a
#: clock just ahead of it (forces an adoption).
CLOCK_CHOICES = st.sampled_from([0, 1, 2, "current", "ahead"])

wire_ops = st.one_of(
    st.tuples(
        st.just("message"), st.sampled_from(LANE_SENDERS), CLOCK_CHOICES,
        st.booleans(), st.sampled_from([0.0, 2.0]),
    ),
    st.tuples(
        st.just("response"), st.sampled_from(LANE_TARGETS), CLOCK_CHOICES,
        st.booleans(), st.sampled_from([None, 0, 2]),
    ),
)
#: ``("again", k, field)`` re-delivers the k-th delivered wire object —
#: the very same object, or (``field`` 3 or 4) its memoized twin that
#: differs in exactly that one field: the consensus bit / ``has_parent``,
#: or the declared TTB / depth.
again_ops = st.tuples(
    st.just("again"), st.integers(min_value=0, max_value=7),
    st.sampled_from([None, None, 3, 4]),
)
lane_ops = st.lists(
    st.one_of(
        wire_ops,
        again_ops,
        again_ops,
        st.tuples(st.just("increment")),
        st.tuples(st.just("expire")),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 4.0])),
    ),
    min_size=1, max_size=60,
)
NEXT_TTB = {0.0: 2.0, 2.0: 0.0}
NEXT_DEPTH = {None: 0, 0: 2, 2: None}


class LaneHarness:
    """A collector whose timer is stopped (deliveries and hooks are
    driven by hand), its outgoing responses captured, beside a twin
    state driven through the pure protocol functions."""

    TTA = 3.0

    def __init__(self, bfs):
        reset_id_counter()
        self.bfs = bfs
        self.world = World(
            uniform_topology(2),
            dgc=DgcConfig(ttb=1.0, tta=self.TTA, bfs_parent_election=bfs),
            trace=False,
        )
        activity = self.world.create_activity(SinkBehavior(), name="self")
        self.collector = activity.collector
        assert self.collector._receive_diet
        self.collector._timer.stop()
        self.sent = []
        self.collector._net_send_single = (
            lambda source, dest, kind, size, target, response:
            self.sent.append(response)
        )
        self.twin = DgcState(
            self_id=activity.id, clock=self.collector.state.clock
        )
        assert not self.twin.referencers.touch_skip
        for state in (self.collector.state, self.twin):
            for target in LANE_TARGETS:
                state.referenced.on_deserialized(
                    RemoteRef(target, "site-1"), StubTag(activity.id, target, 1)
                )
        self.pool = [
            ActivityClock(0, "aa-below"), ActivityClock(1, "zz-above"),
            ActivityClock(2, activity.id),
        ]
        self.objects = {}
        self.history = []

    def clock_for(self, choice):
        current = self.collector.state.clock
        if choice == "current":
            return current
        if choice == "ahead":
            return self.memo(
                ("ahead", current.value),
                lambda: ActivityClock(current.value + 1, "zz-above"),
            )
        return self.pool[choice]

    def memo(self, key, build):
        if key not in self.objects:
            self.objects[key] = build()
        return self.objects[key]

    def deliver(self, wire):
        """Deliver the wire object ``wire`` describes to both sides —
        one object per distinct description, so an identical
        description re-delivers the same object."""
        kind, name, clock, flag, extra = wire
        self.history.append(wire)
        key = (kind, name, id(clock), flag, extra)
        if kind == "message":
            message = self.memo(key, lambda: DgcMessage(
                name, clock, flag, RemoteRef(name, "site-1"), extra
            ))
            self.collector.on_dgc_message(message)
            expected = process_message(
                self.twin, message, self.world.kernel.now
            )
            assert self.sent.pop() == expected
            assert not self.sent
        else:
            response = self.memo(key, lambda: DgcResponse(
                name, clock, flag, False, extra
            ))
            self.collector.on_dgc_response(response)
            process_response(self.twin, response, bfs=self.bfs)

    def apply(self, op):
        state, twin = self.collector.state, self.twin
        # Time always moves, so a delivery that fails to move a
        # timestamp shows at once.
        self.world.run_for(0.125)
        if op[0] in ("message", "response"):
            kind, name, choice, flag, extra = op
            self.deliver((kind, name, self.clock_for(choice), flag, extra))
        elif op[0] == "again":
            if not self.history:
                return
            wire = list(self.history[op[1] % len(self.history)])
            if op[2] == 3:
                wire[3] = not wire[3]
            elif op[2] == 4:
                step = NEXT_TTB if wire[0] == "message" else NEXT_DEPTH
                wire[4] = step[wire[4]]
            self.deliver(tuple(wire))
        elif op[0] == "increment":
            # Clock-increment occasion 1; also how a parent is lost.
            self.collector.on_became_idle()
            twin.increment_clock()
        elif op[0] == "expire":
            # What the tick does about silent referencers (occasion 2).
            now = self.world.kernel.now
            lost = state.referencers.expire(now, self.TTA)
            assert lost == twin.referencers.expire(now, self.TTA)
            if lost:
                self.collector.on_became_idle()
                twin.increment_clock()
        else:
            self.world.run_for(op[1])

    def check(self):
        state, twin = self.collector.state, self.twin
        assert (
            state.clock, state.parent, state.depth,
            state.last_message_timestamp,
        ) == (
            twin.clock, twin.parent, twin.depth, twin.last_message_timestamp
        )
        assert state.referencers._records == twin.referencers._records
        for clock in (state.clock, *self.pool):
            assert state.referencers.agree(clock) == (
                state.referencers.agree_scan(clock)
            )
        for record in state.referencers.records():
            # The invariant behind the message guard.
            assert record.clock <= state.clock
        for target in LANE_TARGETS:
            assert (
                state.referenced.get(target).last_response
                == twin.referenced.get(target).last_response
            )


#: One pinned history per clause of the two steady-state guards (the
#: random search above is the broad net; these are the known ways each
#: clause matters).  ``("again", k, field)`` indexes the deliveries so far.
HEARTBEAT = ("message", "zz-late", 0, False, 0.0)
ADOPTING = ("message", "zz-late", "ahead", False, 0.0)


@given(lane_ops, st.booleans())
# The unchanged heartbeat still moves both timestamps.
@example([HEARTBEAT, ("advance", 4.0), ("again", 0, None), ("expire",)], False)
# A flipped consensus bit or a new declared TTB is news.
@example([HEARTBEAT, ("again", 0, 3), ("again", 0, None)], False)
@example([HEARTBEAT, ("again", 0, 4), ("again", 0, None)], False)
# The cached response dies with the clock it was built for ...
@example([HEARTBEAT, ("increment",), ("again", 0, None)], False)
# ... with a parent election (has_parent flips, depth unknown) ...
@example(
    [ADOPTING, ("response", "tgt-0", "current", True, None), ("again", 0, None)],
    False,
)
# ... and with a depth refresh from the parent.
@example(
    [ADOPTING, ("response", "tgt-0", "current", True, 0), ("again", 0, None),
     ("again", 1, 4), ("again", 0, None)],
    False,
)
# A known response reopens the election once we adopt the clock it
# proposed (the referenced activity learnt the clock before we did).
@example(
    [("response", "tgt-0", "ahead", True, 0), ADOPTING, ("again", 0, None)],
    False,
)
# Breadth-first election may switch to a known, now shallower candidate.
@example(
    [ADOPTING, ("response", "tgt-0", "current", True, 0),
     ("response", "tgt-1", "current", True, 0), ("again", 1, 4),
     ("again", 2, None)],
    True,
)
@settings(deadline=None)
def test_steady_state_lane_is_indistinguishable_from_algorithms_3_and_4(
    ops, bfs
):
    harness = LaneHarness(bfs)
    for op in ops:
        harness.apply(op)
        harness.check()
