"""Layer attribution from outside the program: cProfile stats -> layers.

A *layer* is a module under ``src/repro``.  The traced rep runs under
``cProfile``; this module folds the raw per-function stats of one process
into one record per layer:

* a Python function's calls and self time belong to the layer of the file
  that defines it;
* a built-in (C) function has no file, so its calls and self time are
  charged to the layer of each *calling* function, using the per-caller
  split pstats keeps in ``callers``;
* time spent waiting on a pipe or a child is *blocked*, not busy: it is kept
  apart so that ``cpu_share`` divides busy self time only;
* ``entered`` records, per calling layer, how often control crossed into the
  layer and the inclusive time of those calls — the aggregated form of a
  span with its cause.

Profiler cost falls on every call, so shares compare a layer with itself
across commits, not layers with each other.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Tuple

#: Modules reported under their own name; any other module of the five
#: packages below falls into ``<package>.other``.
NAMED_LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.beats",
    "net.network", "net.channel", "net.accounting", "net.wire",
    "core.collector", "core.protocol", "core.referencers",
    "runtime.node", "runtime.activeobject", "runtime.registry",
    "shard.worker", "shard.coordinator",
    "live.kernel",
    "world", "workloads",
)
OTHER_LAYERS: Tuple[str, ...] = (
    "sim.other", "net.other", "core.other", "runtime.other", "shard.other",
)
#: Everything outside the layers above: the standard library, the
#: benchmark's own wrappers, and ``repro`` packages no scenario runs.
REST = "stdlib"
LAYERS: Tuple[str, ...] = NAMED_LAYERS + OTHER_LAYERS + (REST,)

#: Built-ins whose self time is waiting, not work.  The names are how
#: cProfile labels the C functions under multiprocessing's ``recv``,
#: ``recv_bytes``, ``poll`` and ``wait``, ``selectors``' ``select``, and
#: ``Process.join``.
BLOCKING_BUILTINS = frozenset({
    "<built-in method posix.read>",
    "<built-in method posix.waitpid>",
    "<built-in method select.select>",
    "<built-in method time.sleep>",
    "<method 'poll' of 'select.poll' objects>",
    "<method 'poll' of 'select.epoll' objects>",
})

_REPRO = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """The layer owning ``filename`` (a path as cProfile records it; ``~``,
    cProfile's name for "no file", is nobody's and falls to the rest)."""
    _, sep, tail = filename.rpartition(_REPRO)
    if not sep or not tail.endswith(".py"):
        return REST
    parts = tail[:-3].split(os.sep)
    if parts[0] == "workloads":
        return "workloads"
    dotted = ".".join(parts)
    if dotted in NAMED_LAYERS:
        return dotted
    other = parts[0] + ".other"
    return other if len(parts) > 1 and other in OTHER_LAYERS else REST


def _new_record() -> Dict[str, Any]:
    return {"calls": 0, "self_s": 0.0, "blocked_s": 0.0, "entered": {}}


def fold(stats: Dict[tuple, tuple]) -> Dict[str, Dict[str, Any]]:
    """Fold one process's ``pstats`` table into per-layer records.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    and ``callers`` maps a calling function to its own ``(nc, cc, tt, ct)``
    share — the ``.stats`` attribute of :class:`pstats.Stats`.  Every call
    and every second of self time lands in exactly one layer, so the
    per-layer calls sum to the profile's total call count.
    """
    records = {name: _new_record() for name in LAYERS}
    for (filename, _, funcname), (_, nc, tt, _, callers) in stats.items():
        if filename != "~":
            layer = layer_of(filename)
            record = records[layer]
            record["calls"] += nc
            record["self_s"] += tt
            for (caller_file, _, _), (c_nc, _, _, c_ct) in callers.items():
                source = layer_of(caller_file)
                if source != layer:
                    entry = record["entered"].setdefault(
                        source, {"calls": 0, "inclusive_s": 0.0}
                    )
                    entry["calls"] += c_nc
                    entry["inclusive_s"] += c_ct
            continue
        bucket = "blocked_s" if funcname in BLOCKING_BUILTINS else "self_s"
        charged_calls = 0
        charged_time = 0.0
        for (caller_file, _, _), (c_nc, _, c_tt, _) in callers.items():
            record = records[layer_of(caller_file)]
            record["calls"] += c_nc
            record[bucket] += c_tt
            charged_calls += c_nc
            charged_time += c_tt
        # A built-in invoked by the profiler's own frame has no caller row.
        records[REST]["calls"] += nc - charged_calls
        records[REST][bucket] += tt - charged_time
    return records


def merge(per_process: Iterable[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-layer calls, busy and blocked time over processes."""
    merged = {
        name: {"calls": 0, "self_s": 0.0, "blocked_s": 0.0} for name in LAYERS
    }
    for records in per_process:
        for name, record in records.items():
            into = merged[name]
            into["calls"] += record["calls"]
            into["self_s"] += record["self_s"]
            into["blocked_s"] += record["blocked_s"]
    return merged


def shares(merged: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of the busy self time; sums to 1."""
    busy = sum(record["self_s"] for record in merged.values())
    return {
        name: (record["self_s"] / busy if busy else 0.0)
        for name, record in merged.items()
    }


def blocked_share(records: Dict[str, Dict[str, Any]]) -> float:
    """Share of one process's profiled time spent waiting."""
    busy = sum(record["self_s"] for record in records.values())
    blocked = sum(record["blocked_s"] for record in records.values())
    total = busy + blocked
    return blocked / total if total else 0.0


def trace_records(process: str, records: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ``--trace-out`` rows of one process: one per layer that ran."""
    return [
        {"process": process, "layer": name, **record}
        for name, record in records.items()
        if record["calls"]
    ]
