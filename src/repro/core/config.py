"""DGC configuration.

The algorithm is configured by only two parameters (paper Sec. 7.1):

* ``TTB`` (TimeToBeat) — the heartbeat/broadcast period (Sec. 3.1);
* ``TTA`` (TimeToAlone) — the silence window after which an activity
  considers that all of its referencers are gone.

Safety requires ``TTA > 2*TTB + MaxComm`` (Sec. 3.1): the worst case is a
reference to B handed by A to C right before A's broadcast while C has
just broadcast; C then needs up to ``2*TTB + Comm`` before its first
heartbeat reaches B.

The remaining switches expose the paper's optimisation and the
clock-increment rules for the ablation studies in DESIGN.md Sec. 6; they
all default to the paper's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError

#: :attr:`DgcConfig.aggregation` values — the two delivery cores, the
#: only delivery selector in the library.  Why each exists:
#:
#: * ``per-event`` — the **reference implementation**: one kernel event
#:   per heartbeat tick and per message, every delivery through
#:   Algorithms 3/4 as written (no beat wheel, no pulse, no steady-state
#:   lane).  It is what the equivalence suites compare the production
#:   core against, and it shares none of that core's machinery, so it
#:   stays an independent oracle.
#: * ``exact`` — **production** (the default): the beat wheel plus the
#:   columnar pulse, where a run ``(kind, delivery, dest, items,
#:   payloads)`` is the unit from send to sink and adjacent
#:   same-site-pair DGC runs merge into one aggregate entry.  Delivery
#:   order, and with it every fixed-seed outcome, is bit-identical to
#:   ``per-event``.
AGGREGATION_PER_EVENT = "per-event"
AGGREGATION_EXACT = "exact"

AGGREGATION_MODES = (
    AGGREGATION_PER_EVENT,
    AGGREGATION_EXACT,
)


@dataclass(frozen=True)
class DgcConfig:
    """Parameters and feature switches of the DGC algorithm."""

    ttb: float = 30.0
    tta: float = 61.0
    #: Sec. 4.3 optimisation: on consensus, wait TTA in a *doomed* state,
    #: stop heart-beating, and propagate ``consensus_reached`` through DGC
    #: responses so the whole cycle collects at once.
    consensus_propagation: bool = True
    #: Fig. 5 rule: increment the activity clock when a referencer is lost.
    increment_on_referencer_loss: bool = True
    #: Fig. 6 rule: increment the activity clock when a referenced is lost.
    increment_on_referenced_loss: bool = True
    #: Desynchronise broadcasts by starting each activity's beat at a
    #: uniformly random offset in [0, TTB).
    start_jitter: bool = True
    #: Quantize the start jitter onto a grid of ``beat_slots`` phase
    #: slots per TTB (0 = continuous jitter).  Collectors whose jitter
    #: lands in the same slot share a beat bucket — with the wheel, one
    #: kernel event per slot per beat period instead of one per
    #: activity.  The slot count trades desynchronisation granularity
    #: against scheduler batching; Fig. 10-scale runs use a few dozen
    #: slots so heartbeat heap traffic is O(slots), not O(activities).
    beat_slots: int = 0
    #: The delivery core, one of :data:`AGGREGATION_MODES`.
    aggregation: str = AGGREGATION_EXACT
    #: Sec. 7.1 extension: honour the ``sender_ttb`` declared in DGC
    #: messages when expiring referencer records, so activities with
    #: heterogeneous (or dynamically adjusted) beat periods interoperate
    #: safely: a slower referencer's record lives
    #: ``TTA + 2*(sender_ttb - TTB)`` instead of plain TTA.
    heterogeneous_params: bool = False
    #: Sec. 7.1 extension: dynamically accelerate the beat when garbage
    #: is suspected ("an active object gets a parent and some of its
    #: referencers agree with the consensus") and relax it otherwise.
    dynamic_ttb: bool = False
    #: Multiplier applied to TTB while garbage is suspected (< 1).
    dynamic_accel: float = 0.5
    #: Floor for the accelerated beat, as a fraction of TTB.
    dynamic_min_ttb_factor: float = 0.25
    #: Sec. 7.2 extension: breadth-first reverse-spanning-tree election —
    #: responses carry the responder's depth and referencers re-elect a
    #: shallower parent when one appears, minimising the height ``h``
    #: that bounds detection time (Sec. 4.3).
    bfs_parent_election: bool = False

    def __post_init__(self) -> None:
        if self.ttb <= 0:
            raise ConfigurationError(f"TTB must be positive, got {self.ttb}")
        if self.tta <= 0:
            raise ConfigurationError(f"TTA must be positive, got {self.tta}")
        if not 0.0 < self.dynamic_accel <= 1.0:
            raise ConfigurationError(
                f"dynamic_accel must be in (0, 1], got {self.dynamic_accel}"
            )
        if not 0.0 < self.dynamic_min_ttb_factor <= 1.0:
            raise ConfigurationError(
                "dynamic_min_ttb_factor must be in (0, 1], got "
                f"{self.dynamic_min_ttb_factor}"
            )
        if not isinstance(self.beat_slots, int) or self.beat_slots < 0:
            raise ConfigurationError(
                f"beat_slots must be an int >= 0, got {self.beat_slots!r}"
            )
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigurationError(
                f"aggregation must be one of {AGGREGATION_MODES}, got "
                f"{self.aggregation!r}"
            )

    def safety_bound(self, max_comm: float) -> float:
        """What TTA must exceed: the paper's ``2*TTB + MaxComm``
        (Sec. 3.1).  Both delivery cores deliver every message at its
        exact instant, so neither adds a term."""
        return 2.0 * self.ttb + max_comm

    def validate_against(self, max_comm: float) -> None:
        """Enforce the safety margin ``TTA >`` :meth:`safety_bound`."""
        bound = self.safety_bound(max_comm)
        if self.tta <= bound:
            raise ConfigurationError(
                f"TTA={self.tta} violates TTA > 2*TTB + MaxComm = {bound} "
                f"(TTB={self.ttb}, MaxComm={max_comm}); wrongful collection "
                f"becomes possible (paper Sec. 3.1)"
            )

    def satisfies_margin(self, max_comm: float) -> bool:
        """Non-raising form of :meth:`validate_against`."""
        return self.tta > self.safety_bound(max_comm)

    def with_overrides(self, **changes) -> "DgcConfig":
        """Functional update (configs are immutable)."""
        return replace(self, **changes)


#: :attr:`RegistryConfig.placement` values.
PLACEMENT_HOME = "home"
PLACEMENT_REPLICATED = "replicated"
PLACEMENT_HASHED = "hashed"

PLACEMENTS = (PLACEMENT_HOME, PLACEMENT_REPLICATED, PLACEMENT_HASHED)

#: :attr:`RegistryConfig.coherence` values.
COHERENCE_EAGER = "eager"
COHERENCE_BEAT = "beat"

COHERENCES = (COHERENCE_EAGER, COHERENCE_BEAT)


@dataclass(frozen=True)
class RegistryConfig:
    """Parameters of the naming service (paper Sec. 4.1: registered
    active objects are DGC roots "as anyone can look them up at any
    time").

    The naming service is a fabric subsystem: every operation
    (bind/unbind/lookup, plus the coherence traffic — invalidations and
    lease renewals) rides the typed pulse transport as ``registry.*``
    kinds.  The config chooses where bindings live and how aggressively
    far sites may cache them.
    """

    #: Where the authoritative shard for a name lives:
    #:
    #: * ``home`` — one static home node owns every binding (the
    #:   RMIRegistry-style baseline; far sites pay full cross-grid
    #:   latency unless the lease cache is on),
    #: * ``replicated`` — a primary (the home node) owns root pins and
    #:   pushes full replicas to every node; resolves are served from
    #:   the local replica with zero wire traffic,
    #: * ``hashed`` — the authority for a name is chosen by a stable
    #:   hash over the node list, spreading bindings (and their lookup
    #:   load) across the grid.
    placement: str = PLACEMENT_HOME
    #: Lease TTL for cached bindings, measured in *beats* of
    #: :attr:`lease_beat_s` (so renewals quantize onto the beat wheel
    #: like heartbeats).  ``0`` disables the lease cache — every
    #: non-authoritative resolve crosses the wire, the PR-3-shaped
    #: static-home behaviour.
    lease_ttb: int = 0
    #: Per-node lease-cache capacity (entries); eviction is FIFO in
    #: insertion order.  ``0`` disables caching like ``lease_ttb=0``.
    cache_size: int = 256
    #: Period of the per-node lease sweep (cache expiry + batched
    #: renewals), in seconds.  ``None`` inherits the DGC's TTB when a
    #: DGC is configured, else 30 s (the paper's NAS TTB).
    lease_beat_s: Optional[float] = None
    #: The home node (placement ``home``/``replicated``'s primary);
    #: ``None`` picks the topology's first node.
    home_node: Optional[str] = None
    #: How authority-side coherence traffic (lease invalidations,
    #: replica pushes, renewal denials) reaches the nodes that hold
    #: copies:
    #:
    #: * ``beat`` (default) — updates accumulate on the authority's
    #:   coherence channel (last writer wins per name; a ``replicated``
    #:   update is one fan-out-log entry, whatever the node count) and
    #:   flush once per lease beat as multi-name
    #:   ``registry.invalidate`` / ``registry.push`` batches, bounding a
    #:   cached holder's staleness after an unbind by one lease beat
    #:   plus propagation;
    #: * ``eager`` — one message per (update, destination) the instant
    #:   the authority applies the update.
    #:
    #: Why ``eager`` exists: it is the equivalence oracle, as
    #: ``per-event`` is for the DGC cores.  It stages nothing, so its
    #: staleness is one propagation delay, and beat coherence must
    #: reproduce its outcomes bit for bit
    #: (``tests/integration/test_naming_equivalence.py``); a
    #: ``replicated`` bind costs it one message per other node.
    coherence: str = COHERENCE_BEAT

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {PLACEMENTS}, got "
                f"{self.placement!r}"
            )
        if self.coherence not in COHERENCES:
            raise ConfigurationError(
                f"coherence must be one of {COHERENCES}, got "
                f"{self.coherence!r}"
            )
        if self.lease_ttb < 0:
            raise ConfigurationError(
                f"lease_ttb must be >= 0 beats, got {self.lease_ttb}"
            )
        if self.cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.lease_beat_s is not None and self.lease_beat_s <= 0:
            raise ConfigurationError(
                f"lease_beat_s must be positive, got {self.lease_beat_s}"
            )

    @property
    def caching(self) -> bool:
        """Lease caching is on (meaningful for ``home``/``hashed``;
        ``replicated`` keeps coherent replicas instead of leases)."""
        return (
            self.lease_ttb > 0
            and self.cache_size > 0
            and self.placement != PLACEMENT_REPLICATED
        )

    def with_overrides(self, **changes) -> "RegistryConfig":
        """Functional update (configs are immutable)."""
        return replace(self, **changes)


#: The configuration used for the paper's NAS benchmarks (Sec. 5.2):
#: "the TTB is set to 30 seconds and the TTA to 61 seconds".
NAS_CONFIG = DgcConfig(ttb=30.0, tta=61.0)

#: Fig. 10(a) torture-test configuration.
TORTURE_FAST_CONFIG = DgcConfig(ttb=30.0, tta=150.0)

#: Fig. 10(b) torture-test configuration.
TORTURE_SLOW_CONFIG = DgcConfig(ttb=300.0, tta=1500.0)
