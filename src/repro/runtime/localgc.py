"""Simulated local garbage collector.

The paper's construction never modifies the JVM GC: it keeps a *weak
reference* to the shared stub tag and observes its death (Sec. 2.2).  Our
simulated local GC reproduces the observable interface: when the last stub
of a (holder, target) pair is released, the tag is queued and — after an
optional GC delay modelling the asynchrony of a real collector — the
holder's DGC collector is notified that the edge's stubs are gone.

A non-zero ``gc_delay`` lets tests reproduce the paper's races around
delayed reference-disappearance detection (Figs. 5 and 6).
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from typing import List, Tuple

from repro.runtime.activeobject import ActivityState
from repro.runtime.proxy import StubTag
from repro.sim.kernel import SimKernel


class LocalGarbageCollector:
    """Per-node tag-death notifier with a configurable collection delay."""

    __slots__ = ("_kernel", "gc_delay", "_pending", "_sweep_scheduled",
                 "collected_tags")

    def __init__(self, kernel: SimKernel, gc_delay: float = 0.0) -> None:
        self._kernel = kernel
        self.gc_delay = gc_delay
        self._pending: List[Tuple[object, StubTag]] = []
        self._sweep_scheduled = False
        self.collected_tags = 0

    def notify_tag_dead(self, activity, tag: StubTag) -> None:
        """Queue a dead tag of a holder with a DGC collector for the next
        collection cycle (``Activity.release_proxy`` counts any other's)."""
        self._pending.append((activity, tag))
        if not self._sweep_scheduled:
            self._sweep_scheduled = True
            # The sweep is never cancelled: no Event handle is needed.
            kernel = self._kernel
            kernel.schedule_fire_at(kernel.now + self.gc_delay, self._sweep)

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        pending, self._pending = self._pending, []
        for activity, tag in pending:
            self.collected_tags += 1
            if activity.state is not ActivityState.TERMINATED:
                activity.collector.on_reference_dropped(tag)
