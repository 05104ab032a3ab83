"""RMI-style lease-based reference-listing DGC (acyclic only).

Models the collector the paper positions itself against (Sec. 1): each
referencer periodically renews a *lease* on every remote object it holds
a stub for ("dirty calls"); a remote object whose last lease expired is
garbage.  This collects exactly what the paper's heartbeat collects —
acyclic garbage — and, being based on reference listing, can never
reclaim a distributed cycle (the stubs inside the cycle keep renewing
each other's leases forever).

Differences from the paper's algorithm worth noting:

* no activity clocks, no consensus, no idleness requirement — RMI
  collects an object once *no stub anywhere* targets it, regardless of
  activity; our activity-model equivalent terminates a non-root activity
  whose lease set is empty (an unreferenced activity cannot receive
  requests anymore);
* "clean calls" (explicit dereference notifications) are modelled by the
  tag-death hook, which simply stops renewing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.runtime.activeobject import Activity
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import Proxy, RemoteRef, StubTag
from repro.sim.timers import PeriodicTimer


@dataclass(frozen=True)
class RmiDgcConfig:
    """Lease parameters (RMI default lease is 10 minutes; renewal happens
    at half the lease)."""

    lease_s: float = 600.0

    def __post_init__(self) -> None:
        if self.lease_s <= 0:
            raise ConfigurationError(f"lease must be positive: {self.lease_s}")

    @property
    def renew_period_s(self) -> float:
        return self.lease_s / 2.0


@dataclass(frozen=True)
class _DirtyCall:
    """The wire payload of a lease renewal."""

    sender: ActivityId
    lease_s: float


@dataclass
class _HeldLease:
    holder: ActivityId
    expires_at: float


class RmiDgcCollector:
    """Per-activity lease-based collector."""

    def __init__(self, activity: Activity, config: RmiDgcConfig) -> None:
        self.activity = activity
        self.config = config
        self._kernel = activity.node.kernel
        self._node = activity.node
        self.self_ref = RemoteRef(activity.id, activity.node.name)
        #: Remote objects we hold stubs for (we renew their leases).
        self._renewing: Dict[ActivityId, RemoteRef] = {}
        self._tag_dead: Dict[ActivityId, bool] = {}
        #: Leases granted to our referencers.
        self._leases: Dict[ActivityId, _HeldLease] = {}
        self._grace_until = self._kernel.now + config.lease_s
        self._stopped = False
        self.dirty_calls_sent = 0
        self._timer = PeriodicTimer(
            self._kernel,
            config.renew_period_s,
            self._tick,
            initial_delay=activity.node.rng_registry.derive(
                f"rmi:{activity.id}"
            ).uniform(0.0, config.renew_period_s),
            label=f"rmi.tick:{activity.id}",
        )

    # -- runtime hooks ----------------------------------------------------

    def on_became_idle(self) -> None:
        """RMI has no idleness concept; nothing to do."""

    def on_reference_deserialized(self, proxy: Proxy) -> None:
        if self._stopped:
            return
        self._renewing[proxy.activity_id] = proxy.ref
        self._tag_dead[proxy.activity_id] = False
        # An immediate dirty call on acquisition, as RMI does.
        self._send_dirty(proxy.ref)

    def on_reference_dropped(self, tag: StubTag) -> None:
        if self._stopped:
            return
        # Clean call: stop renewing; the remote lease will expire.
        if self._tag_dead.get(tag.target) is not None:
            self._tag_dead[tag.target] = True

    def on_terminated(self) -> None:
        self._stopped = True
        self._timer.stop()

    # -- wire handlers ------------------------------------------------------

    def on_dgc_message(self, message: _DirtyCall) -> None:
        if self._stopped:
            return
        self._leases[message.sender] = _HeldLease(
            message.sender, self._kernel.now + message.lease_s
        )

    def on_dgc_response(self, response) -> None:
        """RMI dirty calls need no protocol response; ignore."""

    # -- periodic renewal ----------------------------------------------------

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self._kernel.now
        for target, ref in list(self._renewing.items()):
            if self._tag_dead.get(target):
                del self._renewing[target]
                del self._tag_dead[target]
                continue
            self._send_dirty(ref)
        expired = [
            holder
            for holder, lease in self._leases.items()
            if lease.expires_at <= now
        ]
        for holder in expired:
            del self._leases[holder]
        if (
            not self._leases
            and now > self._grace_until
            and self.activity.is_idle()
        ):
            # No live lease and nothing being served: unreferenced.
            # (Real RMI also waits for local in-progress calls to end.)
            self._timer.stop()
            self.activity.terminate("acyclic")

    def _send_dirty(self, ref: RemoteRef) -> None:
        self.dirty_calls_sent += 1
        self._node.send_dgc_message(
            ref, _DirtyCall(self.activity.id, self.config.lease_s)
        )


def rmi_collector_factory(config: Optional[RmiDgcConfig] = None):
    """``World(collector_factory=rmi_collector_factory(...))``."""
    resolved = config if config is not None else RmiDgcConfig()

    def factory(activity: Activity) -> RmiDgcCollector:
        return RmiDgcCollector(activity, resolved)

    return factory
