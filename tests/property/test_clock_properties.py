"""Property-based tests: the named Lamport clock is a total order with
well-behaved merge and increment (paper Sec. 3.2), and its tuple form
behaves exactly like the field-by-field comparator it replaced."""

import copy
import operator
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.clock import ActivityClock

clocks = st.builds(
    ActivityClock,
    st.integers(min_value=0, max_value=1_000),
    st.text(alphabet="abcdef0123456789-", min_size=1, max_size=12),
)


@given(clocks, clocks)
def test_total_order_trichotomy(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


@given(clocks, clocks, clocks)
def test_order_transitivity(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(clocks, clocks)
def test_comparison_antisymmetry(a, b):
    if a <= b and b <= a:
        assert a == b


@given(clocks, clocks)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(clocks, clocks, clocks)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(clocks)
def test_merge_idempotent(a):
    assert a.merge(a) == a


@given(clocks, clocks)
def test_merge_is_upper_bound(a, b):
    merged = a.merge(b)
    assert merged >= a and merged >= b


@given(clocks, st.text(alphabet="abc", min_size=1, max_size=4))
def test_increment_strictly_dominates(clock, owner):
    incremented = clock.incremented(owner)
    assert incremented > clock
    assert incremented.owner == owner


@given(clocks, clocks, st.text(alphabet="abc", min_size=1, max_size=4))
def test_increment_after_merge_dominates_both(a, b, owner):
    """The Lamport property the consensus relies on: an activity that
    merges every clock it saw and then increments owns a clock greater
    than everything it saw."""
    incremented = a.merge(b).incremented(owner)
    assert incremented > a
    assert incremented > b


@given(clocks, clocks)
def test_hash_consistent_with_eq(a, b):
    if a == b:
        assert hash(a) == hash(b)


class ReferenceClock:
    """The hand-written comparator the tuple clock replaced: clock
    values first, then the owner ids on a tie (paper Sec. 3.2)."""

    def __init__(self, clock):
        self.value = clock.value
        self.owner = clock.owner

    def __eq__(self, other):
        return self.value == other.value and self.owner == other.owner

    def __ne__(self, other):
        return self.value != other.value or self.owner != other.owner

    def __lt__(self, other):
        if self.value != other.value:
            return self.value < other.value
        return self.owner < other.owner

    def __le__(self, other):
        if self.value != other.value:
            return self.value < other.value
        return self.owner <= other.owner

    def __gt__(self, other):
        if self.value != other.value:
            return self.value > other.value
        return self.owner > other.owner

    def __ge__(self, other):
        if self.value != other.value:
            return self.value > other.value
        return self.owner >= other.owner

    def __hash__(self):
        return hash((self.value, self.owner))


COMPARISONS = (
    operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge
)

# Small ranges so that ties on the value, the owner or both are common.
close_clocks = st.builds(
    ActivityClock,
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["ao-00000001", "ao-00000002", "ao-00000010", "ao-1:x"]),
)


@given(close_clocks, close_clocks)
def test_order_and_equality_match_the_reference_comparator(a, b):
    for compare in COMPARISONS:
        assert compare(a, b) == compare(ReferenceClock(a), ReferenceClock(b))
    assert a.merge(b) == (b if ReferenceClock(b) > ReferenceClock(a) else a)


@given(clocks)
def test_hash_is_the_reference_hash(a):
    assert hash(a) == hash(ReferenceClock(a)) == hash((a.value, a.owner))


@given(clocks)
def test_a_clock_is_the_pair_value_owner(a):
    assert isinstance(a, tuple)
    assert tuple(a) == (a.value, a.owner)
    assert a == (a.value, a.owner) and (a.value, a.owner) == a


@given(clocks)
def test_repr_pickle_and_copy_round_trip(a):
    copies = [copy.copy(a), copy.deepcopy(a)] + [
        pickle.loads(pickle.dumps(a, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for twin in copies:
        assert type(twin) is ActivityClock
        assert twin == a and hash(twin) == hash(a)
        assert repr(twin) == repr(a) == f"{a.owner}:{a.value}"


@given(clocks)
def test_clock_is_immutable_and_dictless(a):
    for name in ("value", "owner", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    assert not hasattr(a, "__dict__")


def test_comparisons_and_field_reads_run_no_python_frame():
    """Order, equality, hash and the field reads all run in C: the
    per-message DGC compares pay no interpreter frame."""
    a, b = ActivityClock(3, "ao-00000001"), ActivityClock(3, "ao-00000002")
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        a < b, a <= b, a == b, a != b, a > b, a >= b, hash(a)
        a.value, a.owner
    finally:
        sys.setprofile(None)
    assert frames == []
