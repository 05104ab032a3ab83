"""Unit tests for futures."""

import pytest

from repro.errors import RuntimeModelError
from repro.runtime.future import Future
from repro.runtime.registry import ACKED, REJECTED


def test_unresolved_value_read_rejected():
    future = Future()
    with pytest.raises(RuntimeModelError):
        __ = future.value
    with pytest.raises(RuntimeModelError):
        __ = future.refs


def test_resolve_sets_value_and_refs():
    future = Future()
    future.resolve(42, refs=("proxy",))
    assert future.resolved
    assert future.value == 42
    assert future.refs == ("proxy",)


def test_double_resolve_rejected():
    future = Future()
    future.resolve(1)
    with pytest.raises(RuntimeModelError):
        future.resolve(2)


def test_callback_after_resolution_runs_immediately():
    future = Future()
    future.resolve("x")
    seen = []
    future.on_resolve(lambda f: seen.append(f.value))
    assert seen == ["x"]


def test_callbacks_run_in_registration_order():
    future = Future()
    seen = []
    future.on_resolve(lambda f: seen.append(1))
    future.on_resolve(lambda f: seen.append(2))
    future.resolve(None)
    assert seen == [1, 2]


def test_future_ids_unique():
    assert Future().future_id != Future().future_id


def test_a_future_born_resolved_draws_no_id():
    before = Future().future_id
    born = Future("x", refs=("proxy",))
    assert born.resolved and born.future_id == 0
    assert born.value == "x" and born.refs == ("proxy",)
    assert Future(None).value is None
    # Only a future that waits on the fabric takes the next id.
    assert Future().future_id == before + 1


@pytest.mark.parametrize("shared, value", [(ACKED, True), (REJECTED, False)])
def test_shared_bind_answers_cannot_change(shared, value):
    """``resolve`` refuses a shared answer; ``on_resolve`` runs the
    callback at once and keeps nothing."""
    with pytest.raises(RuntimeModelError):
        shared.resolve(not value)
    seen = []
    shared.on_resolve(seen.append)
    assert seen == [shared] and not shared._callbacks
    assert shared.resolved and shared.value is value and shared.refs == ()
