"""The world: one simulated distributed system.

A :class:`World` wires the event kernel, the network fabric, the nodes,
the registry and (optionally) the DGC together, and offers the high-level
API used by examples, workloads and tests::

    world = World(uniform_topology(4), dgc=DgcConfig(ttb=1.0, tta=2.5))
    driver = world.create_driver()
    worker = driver.context.create(MyBehavior(), name="worker")
    ...
    world.run_for(60.0)

When ``safety_checks`` is on, every DGC-driven termination is checked
against the ground-truth garbage oracle (paper Eq. 1); a violation is
recorded (and raised) — this is how the property-based test-suite
falsifies broken variants of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core import events
from repro.core.collector import DgcCollector
from repro.core.config import (
    AGGREGATION_PER_EVENT,
    AGGREGATION_RELAXED,
    DgcConfig,
    RegistryConfig,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.net.accounting import BandwidthAccountant
from repro.net.faults import FaultPlan
from repro.net.message import WireSizeModel
from repro.net.network import Network
from repro.net.topology import Topology, uniform_topology
from repro.runtime.activeobject import Activity
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.ids import ActivityId, make_activity_id
from repro.runtime.node import Node
from repro.runtime.proxy import Proxy, RemoteRef
from repro.runtime.registry import NamingService
from repro.runtime.request import Reply, Request
from repro.sim.kernel import SimKernel
from repro.sim.rng import RngRegistry
from repro.sim.tracing import Tracer


@dataclass
class WorldStats:
    """Aggregate counters for one run."""

    created: int = 0
    collected_acyclic: int = 0
    collected_cyclic: int = 0
    terminated_explicit: int = 0
    dead_letters: int = 0
    safety_violations: int = 0
    collected_by_id: Dict[ActivityId, float] = field(default_factory=dict)

    @property
    def collected_total(self) -> int:
        return self.collected_acyclic + self.collected_cyclic


class World:
    """A complete simulated grid."""

    def __init__(
        self,
        topology: Optional[Topology] = None,
        *,
        dgc: Optional[DgcConfig] = None,
        registry: Optional[RegistryConfig] = None,
        seed: int = 0,
        trace: bool = True,
        wire_sizes: Optional[WireSizeModel] = None,
        gc_delay: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        safety_checks: bool = False,
        validate_dgc_config: bool = True,
        collector_factory: Optional[Any] = None,
        kernel: Optional[Any] = None,
        local_nodes: Optional[List[str]] = None,
    ) -> None:
        self.topology = topology if topology is not None else uniform_topology(4)
        #: The event kernel; pass a :class:`repro.live.LiveKernel` to run
        #: the identical stack in wall-clock time.
        self.kernel = kernel if kernel is not None else SimKernel()
        self.tracer = Tracer(enabled=trace)
        self.rng_registry = RngRegistry(seed)
        self.wire_sizes = wire_sizes if wire_sizes is not None else WireSizeModel()
        self.network = Network(
            self.kernel,
            self.topology,
            accountant=BandwidthAccountant(),
            fault_plan=fault_plan,
        )
        self.dgc_config = dgc
        if dgc is not None and validate_dgc_config:
            dgc.validate_against(self.network.max_comm())
        if dgc is not None and dgc.aggregation != AGGREGATION_PER_EVENT:
            # The TTB beat is wheel-scheduled: let deliveries ride the
            # network's pulse batch too (one kernel event per distinct
            # delivery instant instead of one per message).
            self.network.pulse_batching = True
            if dgc.aggregation == AGGREGATION_RELAXED:
                # Relaxed equivalence tier: accumulate per-(channel,
                # kind) across instants, flush on the absolute
                # flush-period grid (default TTB / 4) — see
                # repro/net/reorder.py for the safety contract.
                self.network.configure_relaxed(dgc.relaxed_flush_period)
        #: Optional callable ``factory(activity) -> collector`` overriding
        #: the paper's DGC; used to attach baseline collectors
        #: (:mod:`repro.baselines`).
        self.collector_factory = collector_factory
        self.safety_checks = safety_checks
        #: The naming service: per-node registry shards, lease caching
        #: and placement-routed ``registry.*`` fabric traffic (see
        #: :class:`repro.runtime.registry.NamingService`).  ``registry``
        #: (a :class:`RegistryConfig`) picks placement and lease policy;
        #: the default is the uncached static-home baseline.
        self.registry = NamingService(self, registry)
        self.registry_config = self.registry.config
        #: Back-compatible alias: the naming service's home node (the
        #: static authority in ``home`` placement, the primary in
        #: ``replicated``).
        self.registry_node = self.registry.home_node
        #: A sharded world materializes only its own node group
        #: (``local_nodes``); the full topology stays shared so routing,
        #: latency and registry placement agree across shards.  Default:
        #: every node is local (the single-process world).
        if local_nodes is None:
            node_names = list(self.topology.nodes)
        else:
            node_names = list(local_nodes)
            unknown = [n for n in node_names if n not in self.topology.nodes]
            if unknown:
                raise ConfigurationError(
                    f"local nodes {unknown} are not in the topology"
                )
        self.nodes: Dict[str, Node] = {
            name: Node(self, name, gc_delay=gc_delay)
            for name in node_names
        }
        self._node_order = node_names
        self._placement_cursor = 0
        self._activities: Dict[ActivityId, Activity] = {}
        self._inflight_wakeups: Dict[ActivityId, int] = {}
        self._inflight_ref_pins: Dict[ActivityId, int] = {}
        #: Live non-root count, maintained in :meth:`create_activity` and
        #: :meth:`on_activity_terminated` so quiescence predicates are
        #: O(1) instead of rebuilding activity lists.
        self._live_non_root_count = 0
        #: When true, the termination hook stops the kernel as soon as the
        #: counter hits zero (event-driven :meth:`run_until_collected`).
        self._stop_when_collected = False
        self.stats = WorldStats()
        #: Plain monotonic app-traffic counters.  Unlike the in-flight
        #: pin *dicts* below — which assume send and delivery are
        #: observed by the same world and therefore go stale across a
        #: shard boundary (the sender's increment is never matched by
        #: the remote receiver's decrement) — these counters are
        #: meaningful per shard and *summable*: the shard coordinator's
        #: settle predicate is Σsent == Σdelivered across all shards.
        self.requests_sent = 0
        self.requests_delivered = 0
        self.replies_sent = 0
        self.replies_delivered = 0

    # ------------------------------------------------------------------
    # Topology / placement
    # ------------------------------------------------------------------

    @property
    def accountant(self) -> BandwidthAccountant:
        return self.network.accountant

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def _next_node(self) -> str:
        name = self._node_order[self._placement_cursor % len(self._node_order)]
        self._placement_cursor += 1
        return name

    # ------------------------------------------------------------------
    # Activity creation
    # ------------------------------------------------------------------

    def create_activity(
        self,
        behavior: Any,
        *,
        node: Optional[str] = None,
        name: str = "",
        root: bool = False,
        creator: Optional[Activity] = None,
        dgc_config: Optional[DgcConfig] = None,
        dgc_enabled: bool = True,
    ):
        """Create an activity; returns a :class:`Proxy` when a creator is
        given (the creator holds the first stub), else the bare activity.

        ``dgc_config`` overrides the world's DGC configuration for this
        activity only (Sec. 7.1 extension: per-activity TTB/TTA — e.g. a
        dynamic application part with a fast beat next to a static part
        with a slow one).  Mixed-beat worlds should enable
        ``heterogeneous_params`` so expiry deadlines account for slower
        referencers.

        ``dgc_enabled=False`` attaches no collector at all: the activity
        models *external* code outside the managed world — paper
        Sec. 4.1's "anyone can look [registered objects] up at any
        time" includes clients that do not participate in the DGC and
        rely on the registry's root pin, not on reference edges, to keep
        a service alive.  Such activities hold stubs invisibly to the
        DGC and nothing can ever collect them, so they must be roots
        (otherwise they would count as live non-roots forever and
        :meth:`run_until_collected` could never finish).
        """
        if not dgc_enabled and not root:
            raise ConfigurationError(
                "dgc_enabled=False requires root=True: a collector-less "
                "activity can never be collected, so it must not count "
                "as a live non-root"
            )
        node_name = node if node is not None else self._next_node()
        host = self.nodes[node_name]
        activity = Activity(
            host, make_activity_id(name), behavior, root=root
        )
        host.add_activity(activity)
        self._activities[activity.id] = activity
        if not root:
            self._live_non_root_count += 1
        self.stats.created += 1
        if not dgc_enabled:
            pass
        elif self.collector_factory is not None:
            activity.collector = self.collector_factory(activity)
        elif dgc_config is not None or self.dgc_config is not None:
            effective = dgc_config if dgc_config is not None else self.dgc_config
            activity.collector = DgcCollector(activity, effective)
        if activity.collector is not None:
            host.register_collector(activity)
        activity.start()
        if creator is not None:
            ref = RemoteRef(activity.id, node_name)
            return host_acquire(creator, ref)
        return activity

    def create_driver(
        self, *, node: Optional[str] = None, name: str = "driver"
    ) -> Activity:
        """A dummy root activity standing in for non-active code
        (paper Sec. 4.1): never idle, hence never collected."""
        return self.create_activity(SinkBehavior(), node=node, name=name, root=True)

    # ------------------------------------------------------------------
    # Lookup / liveness
    # ------------------------------------------------------------------

    def find_activity(self, activity_id: ActivityId) -> Optional[Activity]:
        return self._activities.get(activity_id)

    def live_activities(self) -> List[Activity]:
        return list(self._activities.values())

    def live_non_roots(self) -> List[Activity]:
        return [a for a in self._activities.values() if not a.is_root]

    @property
    def live_non_root_count(self) -> int:
        """O(1) count of live non-root activities."""
        return self._live_non_root_count

    def all_collected(self) -> bool:
        """Every non-root activity has been collected/terminated (O(1))."""
        return self._live_non_root_count == 0

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        self.kernel.run(until=self.kernel.now + seconds)

    def run_until_collected(self, timeout: float, check_interval: float = 1.0) -> bool:
        """Run until every non-root activity is gone; False on timeout.

        Event-driven on every kernel: the termination hook calls
        ``kernel.request_stop()`` the instant the live non-root counter
        hits zero — the simulation kernel returns after the stopping
        event, the live kernel wakes the blocked caller through its
        condition variable.  There is no fixed-interval polling;
        ``check_interval`` is kept for API compatibility and ignored.
        """
        self._stop_when_collected = True
        try:
            # Check *after* arming: on the live kernel the last
            # termination may land on the scheduler thread between a
            # plain check and the arm, in which case nothing would ever
            # call ``request_stop`` and ``run`` would sleep the whole
            # timeout.  Armed first, that termination requests the stop
            # itself (the live kernel latches a stop requested before
            # ``run`` enters).
            if self.all_collected():
                return True
            self.kernel.run(until=self.kernel.now + timeout)
        finally:
            self._stop_when_collected = False
        return self.all_collected()

    # ------------------------------------------------------------------
    # Bookkeeping hooks (called by nodes)
    # ------------------------------------------------------------------

    def on_activity_terminated(self, activity: Activity, reason: str) -> None:
        removed = self._activities.pop(activity.id, None)
        if removed is not None and not activity.is_root:
            self._live_non_root_count -= 1
            if self._live_non_root_count == 0 and self._stop_when_collected:
                self.kernel.request_stop()
        self.stats.collected_by_id[activity.id] = self.kernel.now
        if reason == events.REASON_ACYCLIC:
            self.stats.collected_acyclic += 1
        elif reason == events.REASON_CYCLIC:
            self.stats.collected_cyclic += 1
        else:
            self.stats.terminated_explicit += 1
        if self.safety_checks and reason in (
            events.REASON_ACYCLIC,
            events.REASON_CYCLIC,
        ):
            self._check_termination_safety(activity, reason)

    def note_request_sent(self, request: Request) -> None:
        self.requests_sent += 1
        self._inflight_wakeups[request.target] = (
            self._inflight_wakeups.get(request.target, 0) + 1
        )
        for ref in request.refs:
            self._inflight_ref_pins[ref.activity_id] = (
                self._inflight_ref_pins.get(ref.activity_id, 0) + 1
            )

    def note_request_delivered(self, request: Request) -> None:
        self.requests_delivered += 1
        self._dec(self._inflight_wakeups, request.target)
        for ref in request.refs:
            self._dec(self._inflight_ref_pins, ref.activity_id)

    def note_reply_sent(self, reply: Reply) -> None:
        self.replies_sent += 1
        for ref in reply.refs:
            self._inflight_ref_pins[ref.activity_id] = (
                self._inflight_ref_pins.get(ref.activity_id, 0) + 1
            )

    def note_reply_delivered(self, reply: Reply) -> None:
        self.replies_delivered += 1
        for ref in reply.refs:
            self._dec(self._inflight_ref_pins, ref.activity_id)

    @staticmethod
    def _dec(counter: Dict[ActivityId, int], key: ActivityId) -> None:
        value = counter.get(key, 0) - 1
        if value <= 0:
            counter.pop(key, None)
        else:
            counter[key] = value

    def inflight_pinned(self) -> Set[ActivityId]:
        """Activities pinned by in-flight traffic (wakeups or references)."""
        pinned = set(self._inflight_wakeups)
        pinned.update(self._inflight_ref_pins)
        return pinned

    def on_dead_letter(self) -> None:
        self.stats.dead_letters += 1

    # ------------------------------------------------------------------
    # Safety monitor
    # ------------------------------------------------------------------

    def _check_termination_safety(self, activity: Activity, reason: str) -> None:
        from repro.graph.oracle import compute_garbage

        garbage = compute_garbage(self, include=[activity])
        if activity.id not in garbage:
            self.stats.safety_violations += 1
            raise ProtocolError(
                f"wrongful {reason} collection of {activity.id} at "
                f"t={self.kernel.now}: the oracle says it is reachable "
                f"from a non-idle activity"
            )


def host_acquire(holder: Activity, ref: RemoteRef) -> Proxy:
    """Acquire a stub for ``ref`` on ``holder`` via the deserialization
    hook (creation behaves like receiving the reference, Sec. 2.2)."""
    return holder.node.deserialize_ref(holder, ref)
