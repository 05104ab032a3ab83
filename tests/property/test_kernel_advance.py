"""Property: pacing :class:`SimKernel` through ``advance`` is running it.

A shard worker fires its events through a sequence of ascending,
exclusive horizons; the single-process replay runs the same kernel
class to completion.  For any schedule — ties, cancellations (including
of events that already fired), fire-and-forget work, and callbacks that
schedule more events, some at zero delay — the two drives must fire the
same ``(now, callback)`` sequence and end with the same four load
counters.  An event at exactly a horizon fires in the *next* call.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import SimKernel

#: Half-second grid: coarse enough that ties and events landing exactly
#: on a horizon are common.
GRID = st.integers(min_value=0, max_value=20).map(lambda tick: tick / 2)

#: Every event fires before this: roots by 10.0, children by 15.0.
LAST_HORIZON = 20.0

ROOT = st.tuples(
    GRID,                                            # fire time
    st.lists(GRID.map(lambda t: t / 2), max_size=3),  # child delays <= 5
    st.one_of(st.none(), st.integers(min_value=0, max_value=15)),  # cancel
    st.booleans(),                                   # fire-and-forget?
)


def drive(roots, cancelled_up_front, pace):
    kernel = SimKernel()
    log = []
    handles = []

    def child(label):
        log.append((kernel.now, label))

    def root(index, delays, target):
        log.append((kernel.now, index))
        for number, delay in enumerate(delays):
            kernel.schedule(delay, child, (index, number))
        if target is not None and target < len(handles):
            handle = handles[target]
            if handle is not None:
                handle.cancel()

    for index, (when, delays, target, fire_and_forget) in enumerate(roots):
        if fire_and_forget:
            kernel.schedule_fire_at(when, root, (index, delays, target))
            handles.append(None)
        else:
            handles.append(
                kernel.schedule_at(when, root, index, delays, target)
            )
    for target in cancelled_up_front:
        if target < len(handles) and handles[target] is not None:
            handles[target].cancel()
    pace(kernel, log)
    counters = (kernel.pending_count, kernel.peak_pending_count,
                kernel.fired_count, kernel.scheduled_count)
    return log, counters, kernel.now


@settings(max_examples=150, deadline=None)
@given(
    roots=st.lists(ROOT, max_size=16),
    cancelled_up_front=st.lists(st.integers(min_value=0, max_value=15),
                                max_size=4),
    horizons=st.lists(GRID, max_size=8),
)
def test_advance_over_horizons_matches_run(roots, cancelled_up_front,
                                          horizons):
    horizons = sorted(horizons) + [LAST_HORIZON]

    def paced(kernel, log):
        floor = 0.0
        for horizon in horizons:
            start = len(log)
            fired = kernel.advance(horizon)
            window = log[start:]
            assert fired == len(window)
            # Exclusive horizon: everything fired in [previous, horizon).
            assert all(floor <= now < horizon for now, _ in window)
            assert kernel.now == horizon
            floor = horizon

    def ran(kernel, log):
        kernel.run(until=LAST_HORIZON)

    assert drive(roots, cancelled_up_front, paced) == drive(
        roots, cancelled_up_front, ran
    )
