"""Protocol-safe delivery reordering — the ordering contract the DGC
and the registry's coherence channel rely on.

The DGC's correctness argument (paper Sec. 3.2) needs exactly two
ordering properties from the transport:

* **per-stream FIFO** — messages of one kind on one ordered channel
  never overtake each other, so the activity-clock values a collector
  receives from any single referencer are non-decreasing;
* **clock monotonicity** — no delivery ever moves *earlier* than the
  exact-order transport would have delivered it, so a referencer record
  is only ever refreshed (or created) at, or after, its exact-order
  instant; records can only live longer, never expire sooner.

Everything else — the interleaving of *different* channels, and of
different kinds on one channel — is semantically free: the protocol
folds each arriving message into per-referencer state keyed by the
sender, and cross-stream order carries no information.

This module encodes that class as one checkable predicate:
``tests/property/test_coherence_channel.py`` checks the registry's beat
coherence schedule (which defers updates to the lease beat) against the
eager one with :func:`find_violation`, and
``tests/property/test_reorder_safety.py`` shuffles every live pulse with
:func:`safe_shuffle`, checks the world still collects identically, and
gives the predicate its negative controls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence


def stream_key(source: Optional[str], dest: str, kind: Optional[str]) -> tuple:
    """Canonical FIFO-stream coordinate of one delivery: the ordered
    node pair plus the traffic kind.  Deliveries sharing a stream may
    never be reordered among themselves; deliveries on different
    streams may."""
    return (source, dest, kind)


def find_violation(
    original: Sequence[Any],
    reordered: Sequence[Any],
    *,
    key: Callable[[Any], Hashable],
    time: Optional[Callable[[Any], float]] = None,
    ident: Optional[Callable[[Any], Any]] = None,
) -> Optional[str]:
    """Explain why ``reordered`` is **not** a protocol-safe reordering
    of ``original``, or return ``None`` when it is.

    ``key`` maps a delivery record to its FIFO stream (see
    :func:`stream_key`).  ``time`` (optional) maps a record to its
    delivery instant; when given, two extra clauses are checked:
    ``reordered`` must be globally time-ordered, and no record may be
    delivered *earlier* than its positional counterpart in
    ``original``'s stream (deferral only).  ``ident`` (optional) maps a
    record to its order-relevant identity — pass it when the two
    schedules are separate recordings (e.g. two simulation runs) whose
    records differ in their timestamps but must carry the same payloads
    in the same per-stream order; it defaults to the record itself.
    """
    if len(original) != len(reordered):
        return (
            f"length mismatch: {len(original)} original deliveries, "
            f"{len(reordered)} reordered"
        )
    if ident is None:
        ident = lambda record: record  # noqa: E731 - tiny default
    original_streams: Dict[Hashable, List[Any]] = {}
    for record in original:
        original_streams.setdefault(key(record), []).append(record)
    reordered_streams: Dict[Hashable, List[Any]] = {}
    for record in reordered:
        reordered_streams.setdefault(key(record), []).append(record)
    if set(original_streams) != set(reordered_streams):
        extra = set(reordered_streams) - set(original_streams)
        missing = set(original_streams) - set(reordered_streams)
        return f"stream sets differ (missing={missing!r}, extra={extra!r})"
    for stream, records in original_streams.items():
        moved = reordered_streams[stream]
        if len(moved) != len(records):
            return (
                f"stream {stream!r} carries {len(records)} deliveries "
                f"originally but {len(moved)} reordered"
            )
        for position, (before, after) in enumerate(zip(records, moved)):
            if ident(before) != ident(after):
                return (
                    f"per-stream FIFO broken on {stream!r} at position "
                    f"{position}: expected {ident(before)!r}, got "
                    f"{ident(after)!r}"
                )
            if time is not None and time(after) < time(before):
                return (
                    f"delivery moved earlier than its exact-order instant "
                    f"on {stream!r} at position {position}: "
                    f"{time(after)} < {time(before)}"
                )
    if time is not None:
        previous = None
        for index, record in enumerate(reordered):
            instant = time(record)
            if previous is not None and instant < previous:
                return (
                    f"delivery clock moved backwards at position {index}: "
                    f"{instant} < {previous}"
                )
            previous = instant
    return None


def is_protocol_safe(
    original: Sequence[Any],
    reordered: Sequence[Any],
    *,
    key: Callable[[Any], Hashable],
    time: Optional[Callable[[Any], float]] = None,
    ident: Optional[Callable[[Any], Any]] = None,
) -> bool:
    """``True`` iff ``reordered`` permutes (or defers) ``original``
    within the protocol-safe class: per-stream FIFO preserved, no
    delivery earlier than its exact-order instant, delivery clock
    non-decreasing.  See :func:`find_violation` for the diagnosis."""
    return (
        find_violation(original, reordered, key=key, time=time, ident=ident)
        is None
    )


def safe_shuffle(
    items: Sequence[Any],
    rng,
    *,
    key: Callable[[Any], Hashable],
    time: Optional[Callable[[Any], float]] = None,
) -> List[Any]:
    """A random protocol-safe permutation of ``items``: a uniformly
    random interleaving of the per-``key`` subsequences, each kept in
    its original order.  When ``time`` is given, shuffling happens only
    within runs of equal delivery instants, so global time order (and
    hence clock monotonicity) is preserved by construction.

    ``rng`` needs ``randrange`` (``random.Random`` qualifies); the
    result always satisfies :func:`is_protocol_safe` against ``items``.
    """
    result: List[Any] = []
    group: List[Any] = []
    group_time: Optional[float] = None
    for item in items:
        instant = time(item) if time is not None else None
        if time is not None and group and instant != group_time:
            result.extend(_merge_streams(group, rng, key))
            group = []
        group.append(item)
        group_time = instant
    if group:
        result.extend(_merge_streams(group, rng, key))
    return result


def _merge_streams(
    items: Sequence[Any], rng, key: Callable[[Any], Hashable]
) -> List[Any]:
    """Randomly merge ``items``' per-key subsequences, preserving each
    subsequence's internal order (one draw per output position,
    weighted by remaining stream length so every safe interleaving is
    reachable)."""
    streams: Dict[Hashable, List[Any]] = {}
    for item in items:
        streams.setdefault(key(item), []).append(item)
    queues = [list(reversed(stream)) for stream in streams.values()]
    merged: List[Any] = []
    while queues:
        total = sum(len(queue) for queue in queues)
        draw = rng.randrange(total)
        for index, queue in enumerate(queues):
            if draw < len(queue):
                merged.append(queue.pop())
                if not queue:
                    del queues[index]
                break
            draw -= len(queue)
    return merged
