"""Property suite for the protocol-safe reordering class
(:mod:`tests.reorder`) — the oracle the coherence-channel property
(``tests/property/test_coherence_channel.py``) checks its schedules
against.

Three layers:

1. The predicate itself: per-stream FIFO violations and
   delivered-earlier violations are caught; cross-stream permutations
   pass; :func:`~tests.reorder.safe_shuffle` only ever produces
   schedules the predicate accepts.
2. Live schedules: random protocol-safe shuffles applied to every pulse
   of full torture runs (via the fabric's ``pulse_permuter`` hook)
   leave the world bit-identical — collection outcomes, stats, and the
   tracer stream up to same-instant permutation — across seeds.
3. A negative control on a recorded schedule: the exact core's
   delivery schedule, captured at the network fabric, passes against
   itself and is rejected once reversed.
"""

import random

import pytest

from repro.core.config import DgcConfig
from repro.net.kinds import ALL_KINDS, KIND_DGC_MESSAGE, KIND_DGC_RESPONSE
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.sim.kernel import SimKernel
from repro.workloads.torture import run_torture
from tests.equiv import canonical_tracer, outcome_fingerprint
from tests.reorder import (
    find_violation,
    is_protocol_safe,
    safe_shuffle,
    stream_key,
)


# ----------------------------------------------------------------------
# 1. The predicate
# ----------------------------------------------------------------------

def record(time, source, dest, kind, seq):
    return (time, source, dest, kind, seq)


def rec_key(r):
    return stream_key(r[1], r[2], r[3])


def rec_time(r):
    return r[0]


def rec_ident(r):
    return r[4]


SCHEDULE = [
    record(1.0, "a", "b", "dgc.message", 0),
    record(1.0, "a", "b", "dgc.response", 1),
    record(1.0, "c", "b", "dgc.message", 2),
    record(1.0, "a", "b", "dgc.message", 3),
    record(2.0, "a", "b", "dgc.message", 4),
    record(2.0, "c", "b", "dgc.message", 5),
]


def test_identity_is_protocol_safe():
    assert is_protocol_safe(SCHEDULE, SCHEDULE, key=rec_key, time=rec_time)


def test_cross_stream_same_instant_swap_is_safe():
    swapped = list(SCHEDULE)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    assert is_protocol_safe(swapped, SCHEDULE, key=rec_key, time=rec_time)


def test_fifo_violating_shuffle_is_rejected():
    broken = list(SCHEDULE)
    # Same stream (a -> b, dgc.message), same instant: positions 0 and 3.
    broken[0], broken[3] = broken[3], broken[0]
    violation = find_violation(
        SCHEDULE, broken, key=rec_key, time=rec_time, ident=rec_ident
    )
    assert violation is not None
    assert "FIFO" in violation


def test_delivering_earlier_is_rejected():
    # Stream (c -> b, dgc.message) keeps its order (seq 2 then seq 5),
    # but seq 5 is delivered at 1.0 instead of 2.0: a pure deferral
    # violation with FIFO and global time order intact.
    hasty = [
        SCHEDULE[0], SCHEDULE[1], SCHEDULE[2],
        record(1.0, "c", "b", "dgc.message", 5),
        SCHEDULE[3], SCHEDULE[4],
    ]
    violation = find_violation(
        SCHEDULE, hasty, key=rec_key, time=rec_time, ident=rec_ident
    )
    assert violation is not None
    assert "earlier" in violation


def test_dropping_or_inventing_deliveries_is_rejected():
    assert find_violation(SCHEDULE, SCHEDULE[:-1], key=rec_key) is not None
    moved = list(SCHEDULE)
    moved[0] = record(1.0, "z", "b", "dgc.message", 0)
    assert "stream sets" in find_violation(SCHEDULE, moved, key=rec_key)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_safe_shuffle_always_satisfies_the_predicate(seed):
    rng = random.Random(seed)
    for _ in range(50):
        schedule = []
        clock = 0.0
        for seq in range(rng.randrange(1, 40)):
            if rng.random() < 0.3:
                clock += rng.choice([0.5, 1.0])
            schedule.append(record(
                clock,
                rng.choice("abc"),
                rng.choice("xy"),
                rng.choice(("dgc.message", "dgc.response", "app.request")),
                seq,
            ))
        shuffled = safe_shuffle(schedule, rng, key=rec_key, time=rec_time)
        assert is_protocol_safe(
            schedule, shuffled, key=rec_key, time=rec_time, ident=rec_ident
        )


# ----------------------------------------------------------------------
# 2. Live schedules: permuted pulses leave the world unchanged
# ----------------------------------------------------------------------

CONFIG = DgcConfig(ttb=2.0, tta=5.0)


def entry_stream(entry):
    """FIFO-stream coordinate of one staged pulse entry."""
    channel, _sink, dest, kind, _item, _payload = entry
    source = channel.source if channel is not None else "local"
    return stream_key(source, dest, kind)


def run_torture_case(shuffle_seed=None, aggregation="exact"):
    reset_id_counter()
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)

        def permuter(_delivery_time, entries):
            # One pulse == one delivery instant: every interleaving of
            # the per-stream subsequences is protocol-safe.
            return safe_shuffle(entries, rng, key=entry_stream)

        original_init = Network.__init__

        def patched_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self.pulse_permuter = permuter

        Network.__init__ = patched_init
    try:
        return run_torture(
            dgc=CONFIG.with_overrides(beat_slots=4, aggregation=aggregation),
            slave_count=24,
            active_duration=40.0,
            topology=uniform_topology(6),
            seed=7,
            sample_period=10.0,
            collect_timeout=4_000.0,
            trace=True,
            keep_world=True,
        )
    finally:
        if shuffle_seed is not None:
            Network.__init__ = original_init


@pytest.mark.parametrize("shuffle_seed", [11, 23, 47])
def test_protocol_safe_shuffles_collect_identically(shuffle_seed):
    """Random protocol-safe shuffles of every live pulse leave the
    collection outcomes identical, and — while every holder is still
    beating (the active phase, when records cannot expire) — even the
    tracer stream is identical up to same-instant permutation.  Once
    the collapse phase's expiry checks start racing same-instant
    refreshes, instants may shift by a beat; the outcome tier is what
    survives."""
    baseline = run_torture_case()
    shuffled = run_torture_case(shuffle_seed=shuffle_seed)
    assert baseline.all_collected and shuffled.all_collected
    assert outcome_fingerprint(shuffled) == outcome_fingerprint(baseline)
    assert canonical_tracer(shuffled, until=40.0) == canonical_tracer(
        baseline, until=40.0
    )


# ----------------------------------------------------------------------
# 3. A recorded schedule: the predicate has teeth
# ----------------------------------------------------------------------

def fabric():
    kernel = SimKernel()
    network = Network(kernel, uniform_topology(2, rtt_s=0.01))
    network.pulse_batching = True
    deliveries = []

    def register(node):
        def single(kind):
            return lambda item, payload: deliveries.append(
                (kernel.now, "peer", node, kind, item)
            )

        def batch(kind):
            def handler(targets, messages):
                deliveries.extend(
                    (kernel.now, "peer", node, kind, item) for item in targets
                )
            return handler

        network.register_node(
            node, {kind: single(kind) for kind in ALL_KINDS},
            dgc_batch_sinks={
                KIND_DGC_MESSAGE: batch(KIND_DGC_MESSAGE),
                KIND_DGC_RESPONSE: batch(KIND_DGC_RESPONSE),
            },
        )

    register("site-0")
    register("site-1")
    return kernel, network, deliveries


def drive():
    """The delivery schedule of one fixed DGC send script: message
    bursts and responses from site-0 to site-1 spread over a few
    instants."""
    kernel, network, deliveries = fabric()
    seq = 0

    def send(kind, count):
        nonlocal seq
        for _ in range(count):
            network.send_dgc_single(
                "site-0", "site-1", kind, 64, f"{kind}#{seq}", None
            )
            seq += 1

    for i, at in enumerate((0.1, 0.4, 0.7, 1.3, 1.9, 2.2, 3.5)):
        kernel.schedule_fire_at(at, send, (KIND_DGC_MESSAGE, 3))
        kernel.schedule_fire_at(at, send, (KIND_DGC_RESPONSE, 1 + i % 2))
    kernel.run()
    return deliveries


def test_reversed_exact_schedule_is_rejected():
    exact = drive()
    stream = dict(
        key=lambda r: stream_key(r[1], r[2], r[3]),
        time=lambda r: r[0],
        ident=lambda r: r[4],
    )
    assert is_protocol_safe(exact, exact, **stream)
    assert not is_protocol_safe(exact, list(reversed(exact)), **stream)
