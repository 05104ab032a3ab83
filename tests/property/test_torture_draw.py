"""The torture slave's two pool picks draw exactly what
``rng.choice(pool)`` would.

:class:`~repro.workloads.torture.TortureSlave` unrolls CPython's
``Random.choice`` (``_randbelow_with_getrandbits``: draw
``len(pool).bit_length()`` bits until the value falls below the pool
size) into its exchange loop.  Driving its generator with a stand-in
context and comparing every exchange against a twin stream's ``choice``
pins that equivalence, so a change to ``choice`` in a later CPython
shows up here instead of as a silently different torture workload.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.torture import TortureSlave


class StandInProxy:
    def __init__(self, name, released=False):
        self.name = name
        self.released = released

    def __repr__(self):
        return self.name


class RecordingContext:
    """The slice of :class:`ActivityContext` the slave's run loop uses;
    calls are recorded, never sent."""

    def __init__(self, rng):
        self.rng = rng
        self.now = 0.0
        self.calls = []

    def sleep(self, duration):
        return duration

    def call(self, target, method, refs, payload_bytes):
        self.calls.append((target, method, refs, payload_bytes))

    def drop(self, proxy):
        proxy.released = True


def run_slave(seed, released, wakes, send_probability):
    slave = TortureSlave(deadline=1.0, send_probability=send_probability)
    slave.held = {
        f"pool{index}": StandInProxy(f"p{index}", gone)
        for index, gone in enumerate(released)
    }
    ctx = RecordingContext(random.Random(seed))
    driver = slave.do_run(ctx, None, ())
    next(driver)  # the first sleep
    for _ in range(wakes - 1):
        driver.send(None)  # maybe an exchange, then the next sleep
    ctx.now = 1.0
    with pytest.raises(StopIteration):
        driver.send(None)  # the last wake: the deadline has passed
    return slave, ctx.calls


def expected_calls(slave, seed, wakes, send_probability):
    twin = random.Random(seed)
    pool = [p for p in slave.held.values() if not p.released]
    calls = []
    for _ in range(wakes):
        twin.random()  # the think time's jitter
        if twin.random() >= send_probability or len(pool) < 2:
            continue
        target = twin.choice(pool)
        ref = twin.choice(pool)
        calls.append((target, "exchange", [ref], 64))
    return calls


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    released=st.lists(st.booleans(), min_size=0, max_size=70),
    wakes=st.integers(min_value=1, max_value=12),
    send_probability=st.sampled_from([0.0, 0.7, 1.0]),
)
def test_pool_picks_equal_random_choice(seed, released, wakes, send_probability):
    # The stand-in pool never changes during the run (exchanges are
    # recorded, not served), so the twin can draw from one fixed list.
    slave, calls = run_slave(seed, released, wakes, send_probability)
    # ``_discard("self")`` at the end finds no "self" key: nothing dropped.
    assert calls == expected_calls(slave, seed, wakes, send_probability)


@pytest.mark.parametrize("size", [2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 65])
def test_pool_picks_at_power_of_two_boundaries(size):
    for seed in range(40):
        slave, calls = run_slave(seed, [False] * size, 6, 1.0)
        assert calls == expected_calls(slave, seed, 6, 1.0), (size, seed)
        assert len(calls) == 6


def test_pool_picks_enter_no_random_py_frame():
    """The run loop's draws are C calls: no ``random.py`` frame is
    entered from ``torture.py``."""
    frames = []

    def profile(frame, event, arg):
        caller = frame.f_back
        if event == "call" and caller is not None and os.path.basename(
            caller.f_code.co_filename
        ) == "torture.py":
            frames.append(os.path.basename(frame.f_code.co_filename))

    sys.setprofile(profile)
    try:
        run_slave(7, [False] * 9, 20, 1.0)
    finally:
        sys.setprofile(None)
    assert "test_torture_draw.py" in frames  # the stand-in's sleep and call
    assert "random.py" not in frames
