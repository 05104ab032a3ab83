"""Le Fessant-style mark-propagation collector (simplified sketch).

The paper's related work (Sec. 6) summarises Le Fessant [13]: "based on
the propagation of marks from referencers to their referenced objects.
Marks have a color: black for activities, white for idleness, and gray if
both colors were encountered.  These marks are generated by local roots
and remote objects, a cycle is detected when a remote object receives
only its own mark with the white color."

This module implements that summary directly, on our runtime:

* every heartbeat, an activity sends each referenced activity a *mark*
  ``(origin, colour)``:

  - a busy/root activity generates a fresh **black** mark with itself as
    origin;
  - an idle activity with no incoming marks yet generates a fresh
    **white** mark with itself as origin;
  - an idle activity that has received marks propagates the merged mark:
    the minimum origin seen, white only if *every* incoming mark was
    white and its own state is idle, else gray/black;

* an idle activity whose incoming marks from **all** referencers carry
  its own id as origin with the white colour owns the cycle and collects
  it (termination propagates through a verdict, as the origin is the only
  activity that can decide).

The simplification (documented, deliberate): the real algorithm couples
mark generations with the local GC; our sketch is only claimed correct on
*quiescent* graphs and is used for qualitative comparison, not for the
headline tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.activeobject import Activity
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import Proxy, RemoteRef, StubTag
from repro.sim.timers import PeriodicTimer

BLACK = "black"
WHITE = "white"
GRAY = "gray"


@dataclass(frozen=True)
class LeFessantConfig:
    heartbeat_s: float = 30.0
    alone_after_s: float = 90.0

    def __post_init__(self) -> None:
        if self.alone_after_s <= 2 * self.heartbeat_s:
            raise ConfigurationError(
                "alone_after must exceed two heartbeats"
            )


@dataclass(frozen=True)
class _Mark:
    sender: ActivityId
    sender_ref: RemoteRef
    origin: ActivityId
    colour: str


@dataclass(frozen=True)
class _Collapse:
    origin: ActivityId


class LeFessantCollector:
    """Per-activity mark propagation."""

    def __init__(self, activity: Activity, config: LeFessantConfig) -> None:
        self.activity = activity
        self.config = config
        self._kernel = activity.node.kernel
        self._node = activity.node
        self.self_ref = RemoteRef(activity.id, activity.node.name)
        self._renewing: Dict[ActivityId, RemoteRef] = {}
        self._tag_dead: Dict[ActivityId, bool] = {}
        #: referencer id -> (last mark, arrival time)
        self._incoming: Dict[ActivityId, Tuple[_Mark, float]] = {}
        #: Origins of vanished referencers.  Marks citing them are stale
        #: echoes circulating in cycles and are ignored — the sketch's
        #: stand-in for Le Fessant's mark *generations*, without which a
        #: dead root's black mark latches in the cycle forever.
        self._dead_origins: set = set()
        self._last_mark_in = self._kernel.now
        self._stopped = False
        self.marks_sent = 0
        rng = activity.node.rng_registry.derive(f"lf:{activity.id}")
        self._timer = PeriodicTimer(
            self._kernel,
            config.heartbeat_s,
            self._tick,
            initial_delay=rng.uniform(0.0, config.heartbeat_s),
            label=f"lf.tick:{activity.id}",
        )

    # -- runtime hooks ----------------------------------------------------

    def on_became_idle(self) -> None:
        """Idleness is read directly from the activity at each beat."""

    def on_reference_deserialized(self, proxy: Proxy) -> None:
        if self._stopped:
            return
        self._renewing[proxy.activity_id] = proxy.ref
        self._tag_dead[proxy.activity_id] = False

    def on_reference_dropped(self, tag: StubTag) -> None:
        if tag.target in self._tag_dead:
            self._tag_dead[tag.target] = True

    def on_terminated(self) -> None:
        self._stopped = True
        self._timer.stop()

    # -- wire handlers ------------------------------------------------------

    def on_dgc_message(self, message) -> None:
        if self._stopped:
            return
        if isinstance(message, _Mark):
            self._incoming[message.sender] = (message, self._kernel.now)
            self._last_mark_in = self._kernel.now
        elif isinstance(message, _Collapse):
            self._on_collapse(message)

    def on_dgc_response(self, response) -> None:
        """Mark propagation is one-way; no responses."""

    # -- the beat ----------------------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self._kernel.now
        for referencer, (__, arrived) in list(self._incoming.items()):
            if now - arrived > self.config.alone_after_s:
                del self._incoming[referencer]
                self._dead_origins.add(referencer)
        idle = self.activity.is_idle()
        if idle and not self._incoming:
            if now - self._last_mark_in > self.config.alone_after_s:
                self._timer.stop()
                self.activity.terminate("acyclic")
                return
        if idle and self._incoming and self._cycle_detected():
            self._collapse()
            return
        origin, colour = self._outgoing_mark(idle)
        for target, ref in list(self._renewing.items()):
            if self._tag_dead.get(target):
                del self._renewing[target]
                del self._tag_dead[target]
                continue
            self.marks_sent += 1
            self._node.send_dgc_message(
                ref, _Mark(self.activity.id, self.self_ref, origin, colour)
            )

    def _fresh_incoming(self) -> list:
        """Incoming marks whose origin is still plausible (not a stale
        echo of a vanished referencer)."""
        return [
            mark
            for mark, __ in self._incoming.values()
            if mark.origin not in self._dead_origins
        ]

    def _outgoing_mark(self, idle: bool) -> Tuple[ActivityId, str]:
        if not idle:
            return self.activity.id, BLACK
        fresh = self._fresh_incoming()
        if not fresh:
            return self.activity.id, WHITE
        origin = min(min(mark.origin for mark in fresh), self.activity.id)
        if all(mark.colour == WHITE for mark in fresh):
            colour = WHITE
        else:
            colour = GRAY
        return origin, colour

    def _cycle_detected(self) -> bool:
        """Only our own white mark came back from every referencer."""
        fresh = self._fresh_incoming()
        return bool(fresh) and all(
            mark.origin == self.activity.id and mark.colour == WHITE
            for mark in fresh
        )

    def _collapse(self) -> None:
        collapse = _Collapse(self.activity.id)
        for target, ref in list(self._renewing.items()):
            if not self._tag_dead.get(target):
                self._node.send_dgc_message(ref, collapse)
        self._timer.stop()
        self.activity.terminate("cyclic")

    def _on_collapse(self, message: _Collapse) -> None:
        if self._stopped or not self.activity.is_idle():
            return
        relay = _Collapse(message.origin)
        for target, ref in list(self._renewing.items()):
            if not self._tag_dead.get(target):
                self._node.send_dgc_message(ref, relay)
        self._timer.stop()
        self.activity.terminate("cyclic")


def lefessant_collector_factory(config: Optional[LeFessantConfig] = None):
    """``World(collector_factory=lefessant_collector_factory(...))``."""
    resolved = config if config is not None else LeFessantConfig()

    def factory(activity: Activity) -> LeFessantCollector:
        return LeFessantCollector(activity, resolved)

    return factory
