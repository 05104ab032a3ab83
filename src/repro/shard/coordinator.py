"""The shard coordinator: conservative barrier rounds over worker pipes.

:class:`ShardedWorld` partitions a topology with a
:class:`~repro.shard.plan.ShardPlan`, forks one
:func:`~repro.shard.worker.worker_main` process per shard, and drives
them in *barrier rounds*:

1. every worker reports its *earliest output time* — the earliest
   instant it could still produce a cross-shard send (its next local
   event time; the egress is drained into the same report) — and the
   wire frames its last window produced;
2. the coordinator routes each frame to its destination shard and
   computes each shard's *bid* ``B_i``: the minimum of its earliest
   output time and the delivery instants of undelivered frames
   destined to it (an injected frame fires an event, and that event
   can send);
3. it grants each shard ``j`` its own horizon: the earliest instant
   any chain of cross-shard hops, starting from any shard's bid and
   crossing the plan's per-channel lookahead matrix ``L``, could
   arrive at ``j``.  In exact arithmetic that is
   ``H_j = min(min_{i != j} (B_i + D*[i][j]), B_j + cycle_j)`` over
   the matrix's shortest-path closure
   (:attr:`~repro.shard.plan.ShardPlan.horizon_matrix`, whose diagonal
   ``cycle_j`` bounds a shard's own output echoing back); the
   implementation instead runs a per-round Bellman–Ford relaxation in
   *arrival-time space*, accumulating each chain with the same
   left-folded float additions a real chain of sends accumulates —
   float ``+`` is monotone in each argument but not associative, so
   ``bid + precomputed_closure`` could exceed a real two-hop arrival
   by a few ULPs and trip the late-injection guard, while the folded
   bound provably cannot.  Frames destined to a shard are injected
   before it advances.  Only shards whose horizon grew (or that have
   frames to receive) are advanced; the others' last reports stay
   exact because they have not moved.

Safety is the classic conservative-synchronization induction, per
channel: a chain of hops that starts from shard ``i``'s current state
and ends at ``j`` pays each edge's latency with a monotone float add,
so its final delivery is at or after the relaxation's arrival bound —
at or after ``j``'s injection point, never in its past.  Granted
horizons are monotone (a shrinking computed bound is clamped to the
previous grant, which stays safe because every bound computed in
round ``r`` lower-bounds deliveries generated in *all* rounds
``>= r``).  On a non-uniform
topology — metro site pairs bridged by a WAN, the Grid'5000 shape the
paper measures on — per-channel horizons beat the single global
``H = M + min L``: a shard bordered only by wide channels advances
through windows the narrowest boundary anywhere in the plan would have
denied it, cutting barrier rounds.  Workers enforce the invariant
(:meth:`~repro.net.network.Network.inject_remote_runs` raises on a
late run) rather than trusting it.

Because horizons are per shard, worker clocks diverge between rounds.
Phase transitions still happen at one shared instant: once a phase
predicate is satisfied the coordinator runs *alignment rounds* —
ordinary conservative rounds with horizons capped at the current
maximum grant — until every worker stands at the same virtual time,
then broadcasts the phase entry (whose driver-side actions run at that
shared time, exactly as under the global-horizon protocol).

**Determinism.**  Frames are stamped ``(src_shard, seq)`` by their
producer and merged by the coordinator in shard order, frames in
sequence order — a total order independent of OS scheduling, pipe
timing or process count (which shards advance each round is itself a
deterministic function of the reports, so selective advance preserves
it).  The coordinator folds every routed frame, in that order, into a
SHA-256 running digest: two runs of the same
configuration produce byte-identical frame streams and therefore equal
digests (the whole cross-shard conversation is replayable from the
log; pass ``record_frames=True`` to keep the raw frames).  Workers
re-sort injected frames by the same stamp before staging, so delivery
order inside a shard is equally schedule-independent.

**Outcome equivalence.**  A sharded run and a single-process run of the
same SPMD builder (:func:`replay_single_process`) produce the same
outcome signature — activities created, explicit terminations, the
exact set of collected activity ids, dead letters, safety violations.
Event *interleaving* at equal timestamps differs across process
topologies (each shard has its own event sequence counter), so
time-sensitive classifications (acyclic vs. cyclic collection split,
per-kind message counts) are not part of the signature; the DGC's
convergence guarantees make the outcome identical anyway.

The workload's run protocol is a list of
:class:`~repro.shard.workloads.Phase` records; the coordinator
evaluates each phase's completion predicate over merged worker reports
(``"collected"`` / ``"balance"`` / ``"replied"`` / ``"ready"``), or
walks an ``"until"`` phase to its deadline, and broadcasts phase
entries, whose actions run at the shared current horizon.

A worker that exits unreported or stops beating is a named
:class:`~repro.errors.ShardFailure` within seconds (``_recv``).  The
other way round, a worker holds no coordinator-side pipe end
(:func:`_worker_process`), so when the coordinator dies or closes its
ends the worker reads EOF and exits.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import AGGREGATION_PER_EVENT, DgcConfig, RegistryConfig
from repro.errors import ConfigurationError, ShardFailure, SimulationError
from repro.net.topology import Topology
from repro.net.wire import frame_stamp
from repro.shard.plan import ShardPlan, make_plan
from repro.shard.worker import (
    HEARTBEAT_MISSES,
    HEARTBEAT_S,
    REGISTRY_COUNTERS,
    WorkerSpec,
    build_shard_world,
    worker_main,
)
from repro.shard.workloads import Phase, ShardEnv, workload_phases
from repro.sim.rng import sha256
from repro.world import World


@dataclass
class _Report:
    """One worker's state at a barrier point.

    A skipped worker's report stays valid until it is next advanced —
    the worker has not moved, so every field is stale but exact.
    """

    #: The worker's next local event time, which is also the earliest
    #: instant it could still produce a cross-shard send (``None``: it
    #: cannot until something is injected).
    next_time: Optional[float]
    live_non_root: int
    counters: Tuple[int, int, int, int]
    all_idle: bool
    flags: Dict[str, bool]
    #: (dest_shard, has_app, min_delivery, n_entries, frame_bytes) rows.
    frames: List[Tuple[int, bool, float, int, bytes]]


@dataclass
class ShardedRunResult:
    """Merged outcome of one sharded run."""

    shard_count: int
    workload: str
    created: int
    collected_acyclic: int
    collected_cyclic: int
    terminated_explicit: int
    dead_letters: int
    safety_violations: int
    collected_ids: List[str]
    live_non_root: int
    rounds: int
    sim_time_s: float
    wall_s: float
    #: Simulated time at which each phase completed, in phase order.
    phase_times: List[float]
    frame_count: int
    frame_bytes: int
    #: Total staged pulse entries carried by all frames (the
    #: denominator of bytes-per-entry).
    frame_entries: int
    frame_digest: str
    events_fired: int
    #: :attr:`events_fired` split into events the workload itself
    #: scheduled vs. pulse instants that exist only because a
    #: cross-shard frame was injected (coordination overhead; zero for
    #: a single-process run).
    events_workload: int
    events_coordination: int
    egress_messages: int
    injected_entries: int
    #: The fabric's staging counters and the beat wheel's bucket events
    #: (``Network.pulse_event_count`` / ``staged_entry_count`` /
    #: ``aggregated_message_count``, ``BeatWheel.bucket_event_count``),
    #: summed over shards; the per-shard values stay in
    #: :attr:`per_shard`.
    pulses: int
    staged_entries: int
    aggregated_messages: int
    bucket_events: int
    total_bytes: int
    traffic: Dict[str, Tuple[int, int]]
    registry: Dict[str, int]
    workload_results: List[Dict[str, Any]]
    per_shard: List[Dict[str, Any]] = field(repr=False)
    #: ``(src_shard, dest_shard, frame_bytes)`` log; only with
    #: ``record_frames=True``.
    frames: Optional[List[Tuple[int, int, bytes]]] = field(
        default=None, repr=False
    )
    #: Merged ``(time, kind, subject, details)`` trace stream; only with
    #: ``trace=True``.
    trace: Optional[List[tuple]] = field(default=None, repr=False)

    @property
    def collected_total(self) -> int:
        return self.collected_acyclic + self.collected_cyclic

    def outcome_signature(self) -> tuple:
        """The cross-arm equivalence tier (see module docstring)."""
        return (
            self.created,
            self.terminated_explicit,
            self.dead_letters,
            self.safety_violations,
            tuple(self.collected_ids),
        )


def _arrival_bounds(
    bids: List[float],
    lookahead_rows: Tuple[Tuple[float, ...], ...],
) -> List[float]:
    """Per-shard earliest-arrival bounds — the granted horizons.

    ``bids[i]`` is the earliest instant shard ``i`` can still act (its
    earliest output time, or the earliest undelivered frame destined to
    it).  The returned ``arrive[j]`` is the earliest instant *any*
    chain of cross-shard hops over the lookahead matrix could land a
    delivery on ``j`` — shard ``j`` may safely fire every event
    strictly before it.

    A Bellman–Ford relaxation in arrival-time space: ``act[u]`` tracks
    the earliest instant shard ``u`` can act (its bid, lowered by
    chained arrivals into it), and every candidate is folded
    left-to-right — ``(bid + L1) + L2``, never ``bid + (L1 + L2)`` —
    exactly as a real chain of sends folds its delivery times.  Float
    ``+`` is monotone in each argument, so each real hop's delivery is
    at or above the corresponding fold and the bound survives float
    rounding (a presummed closure would not: ``+`` is not
    associative).  Positive latencies make cycles non-improving, so
    the fixpoint is reached in at most ``len(bids)`` sweeps.  In exact
    arithmetic this equals
    ``min(min_{i != j}(B_i + D*[i][j]), B_j + cycle_j)`` over
    :attr:`~repro.shard.plan.ShardPlan.horizon_matrix`.
    """
    count = len(bids)
    act = list(bids)
    arrive = [math.inf] * count
    changed = True
    while changed:
        changed = False
        for u in range(count):
            departure = act[u]
            if departure == math.inf:
                continue
            row = lookahead_rows[u]
            for v in range(count):
                if v == u:
                    continue
                latency = row[v]
                if latency == math.inf:
                    continue
                candidate = departure + latency
                if candidate < arrive[v]:
                    arrive[v] = candidate
                    if candidate < act[v]:
                        act[v] = candidate
                    changed = True
    return arrive


class ShardedWorld:
    """A world partitioned over ``shard_count`` worker processes."""

    def __init__(
        self,
        topology: Topology,
        shard_count: int,
        *,
        workload: str,
        params: Optional[Dict[str, Any]] = None,
        dgc: Optional[DgcConfig] = None,
        registry: Optional[RegistryConfig] = None,
        seed: int = 0,
        trace: bool = False,
        record_frames: bool = False,
        max_sim_time: float = 72_000.0,
        io_timeout_s: float = 300.0,
    ) -> None:
        if dgc is not None and dgc.aggregation == AGGREGATION_PER_EVENT:
            raise ConfigurationError(
                "sharded execution requires the batched pulse core "
                "(DgcConfig.aggregation 'exact'): the per-message "
                "lane cannot cross a shard boundary"
            )
        self.topology = topology
        self.plan = make_plan(topology, shard_count)
        self.workload = workload
        self.params = dict(params or {})
        self.phases: Tuple[Phase, ...] = workload_phases(
            workload, self.params, dgc
        )
        self.dgc = dgc
        self.registry = registry
        self.seed = seed
        self.trace = trace
        self.record_frames = record_frames
        self.max_sim_time = max_sim_time
        self.io_timeout_s = io_timeout_s

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def run(self) -> ShardedRunResult:
        import gc
        import multiprocessing

        mp = multiprocessing.get_context("fork")
        start = time.monotonic()  # reported in the result, never scheduled on
        conns = []
        procs = []
        self._heartbeats: List[int] = []  # read ends, one per shard
        try:
            # Freeze the caller's heap across the forks.  Whatever the
            # parent holds at fork time (a replay world, earlier
            # benchmark arms) is unreachable garbage from a worker's
            # point of view, but its gen-2 collections would still
            # traverse every inherited object — dirtying copy-on-write
            # pages and burning CPU proportional to the *caller's*
            # heap, not the worker's.  Parking it in the permanent
            # generation makes child GC skip it; the parent thaws as
            # soon as the workers are spawned.
            gc.collect()
            gc.freeze()
            try:
                self._spawn(mp, conns, procs)
            finally:
                gc.unfreeze()
            return self._drive(conns, start)
        except (EOFError, ConnectionError):  # a worker died unreported
            raise self._shard_failure(procs) from None
        except TimeoutError as hung:  # a worker stopped answering
            raise self._shard_failure(procs, *hung.args) from None
        finally:
            for conn in conns:
                conn.close()
            for fd in self._heartbeats:
                os.close(fd)
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - hang backstop
                    proc.terminate()

    def _shard_failure(
        self, procs, hung: Optional[int] = None, why: str = ""
    ) -> ShardFailure:
        """Name the workers that exited (bounded wait: a pipe closes
        before its process is reaped) or, with ``hung``, the one that
        stopped answering and ``why``; kill every worker (a stopped one
        ignores SIGTERM)."""
        from multiprocessing.connection import wait

        sentinels = [proc.sentinel for proc in procs]
        exited = wait(sentinels, timeout=5.0) if hung is None else ()
        for proc in procs:
            proc.kill()
            proc.join()
        if hung is None:
            what = "a worker died without reporting: " + (", ".join(
                f"shard {j} (exit code {proc.exitcode})"
                for j, proc in enumerate(procs) if proc.sentinel in exited
            ) or "none exited")
        else:
            what = f"shard {hung} {why}"
        last = self._last_frame
        return ShardFailure(
            f"sharded {self.workload!r} in barrier round {self._round}: "
            f"{what}; last frame routed (src_shard, seq): "
            f"{'none' if last is None else frame_stamp(last)}"
        )

    def _spawn(self, mp, conns, procs) -> None:
        for shard in range(self.plan.shard_count):
            parent_conn, child_conn = mp.Pipe()
            beats, beat = os.pipe()
            os.set_blocking(beats, False)
            self._heartbeats.append(beats)
            spec = WorkerSpec(
                shard=shard,
                plan=self.plan,
                topology=self.topology,
                workload=self.workload,
                params=self.params,
                dgc=self.dgc,
                registry=self.registry,
                seed=self.seed,
                trace=self.trace,
                heartbeat=beat,
            )
            # The fork copies the coordinator-side ends of this shard's
            # pipes and of every earlier shard's.
            proc = mp.Process(
                target=_worker_process,
                args=(child_conn, spec, [*conns, parent_conn],
                      [*self._heartbeats]),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            os.close(beat)
            conns.append(parent_conn)
            procs.append(proc)

    # ------------------------------------------------------------------
    # The barrier-round loop
    # ------------------------------------------------------------------

    def _drive(self, conns, start: float) -> ShardedRunResult:
        self._round = 0
        self._last_frame = None
        self._conns = conns
        shard_count = self.plan.shard_count
        lookahead_rows = self.plan.lookahead_matrix
        phases = self.phases
        digest = sha256()
        frame_log: Optional[List[Tuple[int, int, bytes]]] = (
            [] if self.record_frames else None
        )
        #: per-dest-shard undelivered frames: (has_app, min_delivery, bytes)
        pending: List[List[Tuple[bool, float, bytes]]] = [
            [] for _ in range(shard_count)
        ]
        state = {
            "frame_count": 0,
            "frame_bytes": 0,
            "frame_entries": 0,
            "pending_app": 0,
        }

        def route(shards: List[int]) -> None:
            # Shard order == stamp order: each worker's seqs ascend, so
            # folding reports in ascending shard index keeps the digest
            # a pure function of the (src_shard, seq)-ordered stream.
            for src in shards:
                for dest, has_app, min_delivery, n_entries, buf in (
                    reports[src].frames
                ):
                    digest.update(buf)
                    self._last_frame = buf
                    state["frame_count"] += 1
                    state["frame_bytes"] += len(buf)
                    state["frame_entries"] += n_entries
                    state["pending_app"] += has_app
                    pending[dest].append((has_app, min_delivery, buf))
                    if frame_log is not None:
                        frame_log.append((src, dest, buf))

        every_shard = list(range(shard_count))
        reports = [self._recv_report(conn) for conn in conns]
        route(every_shard)
        #: Each worker's current virtual time (its last granted horizon);
        #: grants are monotone per shard.
        granted = [0.0] * shard_count
        phase = 0
        deadline = phases[0].bound
        phase_times: List[float] = []

        while True:
            target = max(granted)
            aligned = all(g == target for g in granted)
            until = phases[phase].predicate == "until"
            satisfied = target >= deadline if until else self._satisfied(
                phases[phase], reports, state["pending_app"]
            )
            if satisfied and aligned:
                phase_times.append(target)
                if phase == len(phases) - 1:
                    break
                phase += 1
                deadline = target + phases[phase].bound
                for conn in conns:
                    conn.send(("phase", phase))
                reports = [self._recv_report(conn) for conn in conns]
                route(every_shard)
                continue
            # Each shard's bid: the earliest instant anything can still
            # happen there — its own earliest output time, or a frame
            # delivery that would wake it.
            bids = []
            for j, report in enumerate(reports):
                bid = (
                    math.inf if report.next_time is None else report.next_time
                )
                for _, min_delivery, _ in pending[j]:
                    if min_delivery < bid:
                        bid = min_delivery
                bids.append(bid)
            minimum = min(bids)
            if minimum == math.inf and not (satisfied or until):
                raise SimulationError(
                    f"sharded {self.workload!r} deadlocked in phase "
                    f"{phases[phase].name!r} at t={target}: no shard "
                    f"has pending events and no frames are in flight, "
                    f"but the phase predicate is unsatisfied"
                )
            if minimum > deadline and not (satisfied or until):
                # Every instant up to the deadline has run everywhere.
                raise SimulationError(
                    f"sharded {self.workload!r} timed out in phase "
                    f"{phases[phase].name!r} after {phases[phase].bound}s"
                )
            if minimum != math.inf and minimum > self.max_sim_time:
                raise SimulationError(
                    f"sharded {self.workload!r} exceeded max_sim_time="
                    f"{self.max_sim_time} in phase {phases[phase].name!r}"
                )
            # Alignment cap: once the phase predicate holds, stop
            # opening new windows — only walk the laggards up to the
            # leader so the phase transition happens at one shared
            # instant.  (With no events left anywhere the cap is the
            # grant itself.)  An ``"until"`` phase is capped at its
            # deadline, which it reaches even with nothing pending.
            cap = target if satisfied else deadline if until else math.inf
            if shard_count == 1:
                # No boundary constrains the window, but rounds must
                # stay finite so the predicate is re-evaluated: one DGC
                # beat (or, without DGC, one poll) per round.
                step = phases[phase].poll if self.dgc is None else self.dgc.ttb
                arrive = [bids[0] + step]
            else:
                arrive = _arrival_bounds(bids, lookahead_rows)
            advanced = []
            for j, conn in enumerate(conns):
                horizon = arrive[j]
                if horizon > cap:
                    horizon = cap
                grew = granted[j] < horizon < math.inf
                if grew:
                    granted[j] = horizon
                if grew or pending[j]:
                    frames = pending[j]
                    pending[j] = []
                    conn.send(("advance", granted[j], len(frames)))
                    for has_app, _, buf in frames:
                        conn.send_bytes(buf)
                        state["pending_app"] -= has_app
                    advanced.append(j)
            if not advanced:  # pragma: no cover - progress guard
                raise SimulationError(
                    f"sharded {self.workload!r} stalled in phase "
                    f"{phases[phase].name!r} at t={target}: no shard's "
                    f"horizon grew and no frames are deliverable"
                )
            for j in advanced:
                reports[j] = self._recv_report(conns[j])
            route(advanced)
            self._round += 1
        sim_time = max(granted)

        # Final phase satisfied: stop the workers and merge.  Any frames
        # still pending carry post-outcome DGC chatter to activities that
        # are already collected; the nodes ignore such deliveries, so
        # discarding them does not change the outcome.
        results = []
        for conn in conns:
            conn.send(("stop",))
            results.append(self._recv_result(conn))
        wall = time.monotonic() - start
        return self._merge(
            results, self._round, sim_time, wall, phase_times, digest,
            state, frame_log,
        )

    # ------------------------------------------------------------------
    # Predicates and plumbing
    # ------------------------------------------------------------------

    def _satisfied(
        self, phase: Phase, reports: List[_Report], pending_app: int
    ) -> bool:
        kind = phase.predicate
        if kind == "collected":
            return sum(r.live_non_root for r in reports) == 0
        replied = all(v for r in reports for v in r.flags.values())
        if kind == "replied":
            return replied
        sent = delivered = rsent = rdelivered = 0
        for report in reports:
            c = report.counters
            sent += c[0]
            delivered += c[1]
            rsent += c[2]
            rdelivered += c[3]
        balanced = (
            sent == delivered and rsent == rdelivered and pending_app == 0
        )
        if kind == "balance":
            return balanced
        if kind == "ready":
            return balanced and replied and all(r.all_idle for r in reports)
        raise SimulationError(f"unknown phase predicate {kind!r}")

    def _recv_report(self, conn) -> _Report:
        message = self._recv(conn)
        if message[0] != "report":  # pragma: no cover - protocol guard
            raise SimulationError(
                f"expected a report, got {message[0]!r}"
            )
        frames = []
        for dest, has_app, min_delivery, n_entries in message[6]:
            frames.append(
                (dest, has_app, min_delivery, n_entries, conn.recv_bytes())
            )
        return _Report(
            next_time=message[1],
            live_non_root=message[2],
            counters=message[3],
            all_idle=message[4],
            flags=message[5],
            frames=frames,
        )

    def _recv_result(self, conn) -> Dict[str, Any]:
        message = self._recv(conn)
        if message[0] != "result":  # pragma: no cover - protocol guard
            raise SimulationError(
                f"expected a result, got {message[0]!r}"
            )
        return message[1]

    def _recv(self, conn):
        # Poll in heartbeat slices, draining the heartbeat pipe after each
        # empty one (b"" at EOF); io_timeout_s counts whole slices.
        waited = silent = 0
        while not conn.poll(HEARTBEAT_S):
            shard = self._conns.index(conn)
            waited += HEARTBEAT_S
            try:
                silent = 0 if os.read(self._heartbeats[shard], 1 << 16) else silent + 1
            except BlockingIOError:
                silent += 1
            if silent >= HEARTBEAT_MISSES:
                raise TimeoutError(
                    shard, f"stopped: no heartbeat for {silent * HEARTBEAT_S}s"
                )
            if waited >= self.io_timeout_s:
                raise TimeoutError(shard, f"unresponsive for {self.io_timeout_s}s")
        message = conn.recv()
        if message[0] == "error":
            raise SimulationError(
                "shard worker failed:\n" + message[1]
            )
        return message

    def _merge(
        self, results, rounds, sim_time, wall, phase_times, digest,
        state, frame_log,
    ) -> ShardedRunResult:
        traffic: Dict[str, Tuple[int, int]] = {}
        for result in results:
            for kind, (size, messages) in result["traffic"].items():
                base = traffic.get(kind, (0, 0))
                traffic[kind] = (base[0] + size, base[1] + messages)
        registry = {name: 0 for name in REGISTRY_COUNTERS}
        for result in results:
            for name, value in result["registry"].items():
                registry[name] += value
        collected_ids: List[str] = []
        for result in results:
            collected_ids.extend(result["collected_ids"])
        collected_ids.sort()
        trace = None
        if self.trace:
            merged: List[tuple] = []
            for result in results:
                merged.extend(result["trace"] or [])
            merged.sort(key=lambda event: event[0])  # stable: shard order ties
            trace = merged
        return ShardedRunResult(
            shard_count=self.plan.shard_count,
            workload=self.workload,
            created=sum(r["created"] for r in results),
            collected_acyclic=sum(r["collected_acyclic"] for r in results),
            collected_cyclic=sum(r["collected_cyclic"] for r in results),
            terminated_explicit=sum(
                r["terminated_explicit"] for r in results
            ),
            dead_letters=sum(r["dead_letters"] for r in results),
            safety_violations=sum(r["safety_violations"] for r in results),
            collected_ids=collected_ids,
            live_non_root=sum(r["live_non_root"] for r in results),
            rounds=rounds,
            sim_time_s=sim_time,
            wall_s=wall,
            phase_times=phase_times,
            frame_count=state["frame_count"],
            frame_bytes=state["frame_bytes"],
            frame_entries=state["frame_entries"],
            frame_digest=digest.hexdigest(),
            events_fired=sum(r["events_fired"] for r in results),
            events_workload=sum(r["events_workload"] for r in results),
            events_coordination=sum(
                r["events_coordination"] for r in results
            ),
            egress_messages=sum(r["egress_messages"] for r in results),
            injected_entries=sum(r["injected_entries"] for r in results),
            pulses=sum(r["pulses"] for r in results),
            staged_entries=sum(r["staged_entries"] for r in results),
            aggregated_messages=sum(
                r["aggregated_messages"] for r in results
            ),
            bucket_events=sum(r["bucket_events"] for r in results),
            total_bytes=sum(r["total_bytes"] for r in results),
            traffic=traffic,
            registry=registry,
            workload_results=[r["workload"] for r in results],
            per_shard=results,
            frames=frame_log,
            trace=trace,
        )


# ----------------------------------------------------------------------
# The single-process replay arm
# ----------------------------------------------------------------------


def _worker_process(
    conn, spec: WorkerSpec, coordinator_conns, heartbeats
) -> None:
    """A forked worker: close the coordinator-side pipe ends it
    inherited (barrier connections and heartbeat read ends), then serve.
    With the coordinator their only holder, its death is EOF on ``conn``
    and a broken heartbeat pipe, so the worker exits instead of
    outliving it.  ``worker_main`` is looked up here at call time, after
    the closes, so a caller may replace it (the spine profiles workers
    that way)."""
    for end in coordinator_conns:
        end.close()
    for fd in heartbeats:
        os.close(fd)
    worker_main(conn, spec)


def replay_single_process(
    topology: Topology,
    *,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    dgc: Optional[DgcConfig] = None,
    registry: Optional[RegistryConfig] = None,
    seed: int = 0,
    trace: bool = False,
):
    """Re-execute a sharded run's configuration in one process.

    Runs the *same* SPMD builder under a one-shard plan (every node
    local, on the workers' :class:`~repro.sim.kernel.SimKernel` class),
    driving the same phase protocol inline (:func:`run_phases`).
    Because setup placement, activity ids and RNG streams are identical
    by construction, the replay's outcome signature must equal the
    sharded run's — the verification that the multi-process execution
    changed the schedule but not the semantics.  Returns ``(world, env,
    signature)``.
    """
    world, env = build_single_process(
        topology, workload, dict(params or {}),
        dgc=dgc, registry=registry, seed=seed, trace=trace,
    )
    run_phases(world, env, workload)
    return world, env, outcome_signature(world)


def build_single_process(
    topology: Topology,
    workload: str,
    params: Dict[str, Any],
    *,
    dgc: Optional[DgcConfig] = None,
    registry: Optional[RegistryConfig] = None,
    seed: int = 0,
    trace: bool = False,
    safety_checks: bool = False,
) -> Tuple[World, ShardEnv]:
    """Set up one workload in a single-process world: the shard
    worker's own setup (fresh id streams, then the SPMD builder) under a
    one-shard plan, shared by :func:`replay_single_process` and the
    ``run_*`` runners, so a seed gives the same answer on every call.
    The world reads ``safety_checks`` (not a :class:`WorkerSpec` field)
    only when the DGC terminates an activity, never during setup."""
    world, env = build_shard_world(WorkerSpec(
        shard=0,
        plan=make_plan(topology, 1),
        topology=topology,
        workload=workload,
        params=params,
        dgc=dgc,
        registry=registry,
        seed=seed,
        trace=trace,
    ))
    world.safety_checks = safety_checks
    return world, env


def run_phases(world: World, env: ShardEnv, workload: str) -> List[float]:
    """Drive a built workload's run protocol inline, in one process.

    Each phase after the first starts with its entry action (this
    process owns the driver), then the kernel runs until the phase
    predicate holds — the coordinator's ``"collected"`` / ``"balance"``
    / ``"replied"`` / ``"ready"`` read off the one world every
    ``phase.poll`` seconds — or, for ``"until"``, for the phase's
    bound.  Returns the simulated time each phase completed at; raises
    :class:`SimulationError` naming the phase that did not complete
    within its bound.
    """
    kernel = world.kernel

    def balanced() -> bool:
        return (
            world.requests_sent == world.requests_delivered
            and world.replies_sent == world.replies_delivered
        )

    def replied() -> bool:
        return all(env.flags().values())

    def ready() -> bool:
        return (
            balanced() and replied()
            and all(a.is_idle() for a in world.live_non_roots())
        )

    polled = {"balance": balanced, "replied": replied, "ready": ready}
    phase_times: List[float] = []
    for index, phase in enumerate(env.phases):
        if index:
            env.enter_phase(index)
        if phase.predicate == "collected":
            done = world.run_until_collected(phase.bound)
        elif phase.predicate == "until":
            world.run_for(phase.bound)
            done = True
        else:
            done = kernel.run_until_quiescent(
                polled[phase.predicate], phase.poll, phase.bound
            )
        if not done:
            raise SimulationError(
                f"single-process {workload!r} timed out in phase "
                f"{phase.name!r} after {phase.bound}s "
                f"({len(world.live_non_roots())} survivors)"
            )
        phase_times.append(kernel.now)
    return phase_times


def outcome_signature(world: World) -> tuple:
    """A single-process world's cross-arm equivalence tier (see
    :meth:`ShardedRunResult.outcome_signature`)."""
    stats = world.stats
    return (
        stats.created,
        stats.terminated_explicit,
        stats.dead_letters,
        stats.safety_violations,
        tuple(sorted(stats.collected_by_id)),
    )
