"""The naming client's uniform name pick draws exactly what
``rng.randrange(len(names))`` would.

:class:`~repro.workloads.naming.NamingClient` unrolls CPython's
``Random._randbelow_with_getrandbits`` into its burst loop (draw
``count.bit_length()`` bits until the value falls below ``count``).
Driving its generator with a stand-in context and comparing every pick
against a twin stream's ``randrange`` pins that equivalence, so a change
to ``_randbelow`` in a later CPython shows up here instead of as a
silently different naming workload.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.runtime.future import Future
from repro.workloads.naming import NamingClient

WAKES = 3
BURST = 8


class RecordingContext:
    """The slice of :class:`ActivityContext` the client's start phase
    uses; lookups are recorded and never resolve."""

    def __init__(self, rng):
        self.rng = rng
        self.now = 0.0
        self.looked_up = []

    def sleep(self, duration):
        return duration

    def lookup(self, name):
        self.looked_up.append(name)
        return Future()


@pytest.mark.parametrize("count", [1, 2, 3, 31, 32, 33, 64, 20000])
def test_uniform_pick_equals_randrange(count):
    names = [f"name{i}" for i in range(count)]
    for seed in range(50):
        ctx = RecordingContext(random.Random(seed))
        client = NamingClient(names, deadline=1.0, period=1.0, burst=BURST)
        driver = client.on_start(ctx)
        next(driver)  # the first sleep
        for _ in range(WAKES - 1):
            driver.send(None)  # a burst, then the next sleep
        ctx.now = 1.0
        with pytest.raises(StopIteration):
            driver.send(None)  # the last burst: the deadline has passed
        twin = random.Random(seed)
        expected = []
        for _ in range(WAKES):
            twin.random()  # the sleep's jitter
            expected.extend(names[twin.randrange(count)] for _ in range(BURST))
        assert ctx.looked_up == expected, (count, seed)
        assert client.issued == WAKES * BURST


def test_client_without_names_is_rejected():
    # ``randrange(0)`` raised at the first draw; the unrolled pick would
    # spin forever, so an empty name list is refused up front.
    with pytest.raises(ConfigurationError, match="name"):
        NamingClient([], deadline=1.0, period=1.0, burst=1)
