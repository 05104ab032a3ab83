"""Shared equivalence-fingerprint helpers for the integration suites.

Three tiers of equivalence, strongest first:

* **Exact** (:func:`world_fingerprint`) — the full
  :class:`~repro.world.WorldStats` block (including every per-activity
  collection instant) plus the raw tracer stream, event for event.  The
  exact-order aggregated core is gated on this tier against the
  per-event reference: a pure mechanics change, nothing the world can
  observe.
* **Permutation-tolerant** (:func:`canonical_tracer`) — the tracer
  stream up to reordering of same-instant events.  Protocol-safe
  shuffles (per-stream FIFO kept, delivery clock untouched — see
  :mod:`repro.net.reorder`) permute only within an instant, so two
  streams are shuffle-equivalent iff their canonical forms are equal.
* **Outcome** (:func:`outcome_fingerprint`) — what the relaxed
  coalescing tier guarantees: the *reachability verdicts*.  Same
  activities created, the same set collected, same explicit
  terminations, zero dead letters and zero safety violations.  Instants,
  the acyclic/cyclic classification (an artifact of which detection path
  fired first) and traffic totals (a function of run length) may shift
  within the deferral bound and are deliberately excluded — see the
  relaxed-tier section of PERFORMANCE.md for why nothing stronger can
  hold once deliveries are deferred across instants.
"""

import dataclasses


def stats_fingerprint(result):
    """The full stats block, per-activity collection instants included.

    ``result`` is any workload result carrying ``world`` (run with
    ``keep_world=True``)."""
    return dataclasses.asdict(result.world.stats)


def tracer_fingerprint(result):
    """The raw tracer stream as a comparable tuple, in emission order."""
    return tuple(
        (event.time, event.kind, event.subject,
         tuple(sorted(event.details.items())))
        for event in result.world.tracer
    )


def world_fingerprint(result):
    """Everything observable about one run: the stats block (with every
    per-activity collection instant) and the raw tracer stream."""
    return stats_fingerprint(result), tracer_fingerprint(result)


def canonical_tracer(result, until=None):
    """The tracer stream up to protocol-safe *same-instant* permutation.

    Event times are part of each record and global time order is a
    protocol-safe invariant, so sorting canonicalizes exactly the free
    axis: the order of distinct streams within one delivery instant.

    ``until`` truncates the stream at a simulated instant.  Two
    protocol-safe-shuffled runs agree on this canonical form for as
    long as no referencer record expires (while every holder keeps
    beating, same-instant processing order cannot change collector
    state); once the collapse phase's expiry checks start racing
    same-instant refreshes, only the outcome tier
    (:func:`outcome_fingerprint`) is guaranteed."""
    events = tracer_fingerprint(result)
    if until is not None:
        events = (event for event in events if event[0] <= until)
    return tuple(sorted(events))


def outcome_fingerprint(result):
    """The relaxed tier's contract: reachability verdicts only.

    Activity ids are process-global, so callers must reset the id
    counter (:func:`repro.runtime.ids.reset_id_counter`) before each run
    for the collected-id sets to align."""
    stats = result.world.stats
    return {
        "created": stats.created,
        "terminated_explicit": stats.terminated_explicit,
        "collected_total": len(stats.collected_by_id),
        "collected_ids": tuple(sorted(stats.collected_by_id)),
        "dead_letters": stats.dead_letters,
        "safety_violations": stats.safety_violations,
    }


def bandwidth_fingerprint(result):
    """Per-kind traffic totals (bytes, messages) from the accountant —
    bit-comparable between exact cores; the relaxed tier only bounds
    them (deferral stretches the collapse phase by up to the extra
    detection latency, and heartbeats keep flowing while it lasts)."""
    return {
        kind: (category.bytes, category.messages)
        for kind, category in
        result.world.network.accountant.summary().items()
    }
