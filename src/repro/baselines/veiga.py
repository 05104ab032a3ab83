"""Veiga & Ferreira-style cycle detection messages (CDM baseline).

The paper's related-work discussion (Sec. 6) characterises the Veiga &
Ferreira collector [4]: "cycle detection messages traverse the reference
graph and grow information about it.  Referencers are called dependencies
... A garbage cycle is identified as such when it has no more unresolved
dependencies ... the growth of the message is limited only by the total
size of the distributed system, so the communication overhead can become
large."

This module implements a faithful *skeleton* of that idea on our
runtime, sufficient for the space-complexity comparison (DESIGN.md
``baseline-veiga``):

* a suspect idle activity launches a CDM carrying the set of visited
  activities and the set of unresolved dependencies (referencer IDs not
  yet visited);
* the CDM hops to an unresolved dependency; a busy (or root) activity
  aborts the detection; an idle one marks itself visited and adds its own
  referencers as dependencies;
* when no unresolved dependency remains, every visited activity is
  garbage and is terminated.

The CDM wire size is modelled as ``base + per_id * |visited ∪ pending|``,
so the growth claim is directly measurable.  Referencer IDs are learnt
the same way as in the paper's algorithm (from periodic heartbeats, which
double as the acyclic collector); the CDM contacts referencers directly —
the extra connectivity requirement is precisely one of the drawbacks the
paper's algorithm avoids.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.errors import ConfigurationError
from repro.runtime.activeobject import Activity
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import Proxy, RemoteRef, StubTag
from repro.sim.timers import PeriodicTimer

_cdm_ids = itertools.count(1)


@dataclass(frozen=True)
class VeigaConfig:
    """Heartbeat/CDM parameters and the CDM size model."""

    heartbeat_s: float = 30.0
    alone_after_s: float = 90.0
    #: Minimum idle time before an activity volunteers a CDM.
    suspect_after_s: float = 60.0
    cdm_base_bytes: int = 64
    cdm_per_id_bytes: int = 32

    def __post_init__(self) -> None:
        if self.alone_after_s <= 2 * self.heartbeat_s:
            raise ConfigurationError(
                "alone_after must exceed two heartbeats for safe "
                "acyclic collection"
            )


@dataclass(frozen=True)
class _Heartbeat:
    sender: ActivityId
    sender_ref: RemoteRef


@dataclass(frozen=True)
class _Cdm:
    """A cycle detection message."""

    cdm_id: int
    originator: ActivityId
    visited: FrozenSet[ActivityId]
    pending: FrozenSet[ActivityId]
    #: Remote refs for every activity named in the CDM, so the detection
    #: can hop and, on success, deliver the verdict.
    directory: tuple

    def size_ids(self) -> int:
        return len(self.visited | self.pending)


@dataclass(frozen=True)
class _Verdict:
    cdm_id: int
    members: FrozenSet[ActivityId]


class VeigaCollector:
    """Per-activity CDM collector."""

    def __init__(self, activity: Activity, config: VeigaConfig) -> None:
        self.activity = activity
        self.config = config
        self._kernel = activity.node.kernel
        self._node = activity.node
        self.self_ref = RemoteRef(activity.id, activity.node.name)
        self._referencers: Dict[ActivityId, float] = {}
        self._referencer_refs: Dict[ActivityId, RemoteRef] = {}
        self._renewing: Dict[ActivityId, RemoteRef] = {}
        self._tag_dead: Dict[ActivityId, bool] = {}
        self._last_heartbeat_in = self._kernel.now
        self._idle_since: Optional[float] = self._kernel.now
        self._cdm_seen: Set[int] = set()
        self._last_cdm_launch = -float("inf")
        self._stopped = False
        self.cdm_hops = 0
        self.max_cdm_ids = 0
        self.cdm_bytes_sent = 0
        rng = activity.node.rng_registry.derive(f"veiga:{activity.id}")
        self._timer = PeriodicTimer(
            self._kernel,
            config.heartbeat_s,
            self._tick,
            initial_delay=rng.uniform(0.0, config.heartbeat_s),
            label=f"veiga.tick:{activity.id}",
        )

    # -- runtime hooks ----------------------------------------------------

    def on_became_idle(self) -> None:
        self._idle_since = self._kernel.now

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
        if isinstance(message, _Heartbeat):
            self._referencers[message.sender] = self._kernel.now
            self._referencer_refs[message.sender] = message.sender_ref
            self._last_heartbeat_in = self._kernel.now
        elif isinstance(message, _Cdm):
            self._on_cdm(message)
        elif isinstance(message, _Verdict):
            self._on_verdict(message)

    def on_dgc_response(self, response) -> None:
        """The CDM protocol has no responses; detection rides messages."""

    # -- heartbeat / acyclic path ------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self._kernel.now
        for target, ref in list(self._renewing.items()):
            if self._tag_dead.get(target):
                del self._renewing[target]
                del self._tag_dead[target]
                continue
            self._node.send_dgc_message(
                ref, _Heartbeat(self.activity.id, self.self_ref)
            )
        for referencer, last in list(self._referencers.items()):
            if now - last > self.config.alone_after_s:
                del self._referencers[referencer]
                self._referencer_refs.pop(referencer, None)
        if not self.activity.is_idle():
            return
        if (
            not self._referencers
            and now - self._last_heartbeat_in > self.config.alone_after_s
        ):
            self._timer.stop()
            self.activity.terminate("acyclic")
            return
        if (
            self._idle_since is not None
            and now - self._idle_since > self.config.suspect_after_s
            and now - self._last_cdm_launch > self.config.alone_after_s
            and self._referencers
        ):
            self._last_cdm_launch = now
            self._launch_cdm()

    # -- cyclic path ----------------------------------------------------------

    def _launch_cdm(self) -> None:
        cdm = _Cdm(
            cdm_id=next(_cdm_ids),
            originator=self.activity.id,
            visited=frozenset([self.activity.id]),
            pending=frozenset(self._referencers) - {self.activity.id},
            directory=tuple(
                (aid, ref) for aid, ref in self._referencer_refs.items()
            )
            + ((self.activity.id, self.self_ref),),
        )
        self._cdm_seen.add(cdm.cdm_id)
        self._forward_cdm(cdm)

    def _on_cdm(self, cdm: _Cdm) -> None:
        if self.activity.id not in cdm.pending:
            return  # stale hop (already resolved by a concurrent copy)
        if not self.activity.is_idle():
            return  # busy activity: the detection dies here
        visited = cdm.visited | {self.activity.id}
        pending = (cdm.pending | frozenset(self._referencers)) - visited
        directory = dict(cdm.directory)
        directory[self.activity.id] = self.self_ref
        directory.update(self._referencer_refs)
        new_cdm = _Cdm(
            cdm_id=cdm.cdm_id,
            originator=cdm.originator,
            visited=visited,
            pending=pending,
            directory=tuple(directory.items()),
        )
        if not pending:
            self._broadcast_verdict(new_cdm)
            return
        self._forward_cdm(new_cdm)

    def _forward_cdm(self, cdm: _Cdm) -> None:
        directory = dict(cdm.directory)
        target = next(iter(sorted(cdm.pending)))
        ref = directory.get(target)
        if ref is None:
            return  # unknown dependency: detection cannot proceed
        self.cdm_hops += 1
        self.max_cdm_ids = max(self.max_cdm_ids, cdm.size_ids())
        size = (
            self.config.cdm_base_bytes
            + self.config.cdm_per_id_bytes * cdm.size_ids()
        )
        self.cdm_bytes_sent += size
        self._node.send_dgc_message(ref, cdm, size_bytes=size)

    def _broadcast_verdict(self, cdm: _Cdm) -> None:
        directory = dict(cdm.directory)
        verdict = _Verdict(cdm.cdm_id, cdm.visited)
        for member in cdm.visited:
            if member == self.activity.id:
                continue
            ref = directory.get(member)
            if ref is not None:
                self._node.send_dgc_message(ref, verdict)
        self._timer.stop()
        self.activity.terminate("cyclic")

    def _on_verdict(self, verdict: _Verdict) -> None:
        if self.activity.id not in verdict.members or self._stopped:
            return
        self._timer.stop()
        self.activity.terminate("cyclic")


def veiga_collector_factory(config: Optional[VeigaConfig] = None):
    """``World(collector_factory=veiga_collector_factory(...))``."""
    resolved = config if config is not None else VeigaConfig()

    def factory(activity: Activity) -> VeigaCollector:
        return VeigaCollector(activity, resolved)

    return factory
