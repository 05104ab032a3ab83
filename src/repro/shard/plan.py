"""Node-to-shard assignment and the conservative lookahead bounds.

The plan slices the topology's node list (which is grouped by site)
into contiguous blocks, one per shard.  When the topology has at least
as many (non-empty) sites as shards, every cut sits on a site boundary
— the one nearest each balanced cut — so no site is split; otherwise
the blocks are balanced.  That matters because the protocol's
*lookahead* is bounded by cross-boundary latency: events a worker
executes in a granted window can only generate cross-shard deliveries
later than the boundary's one-way latency, which is exactly what lets
every shard advance through the window without waiting for the others
(the classic conservative-synchronization argument; see
:mod:`repro.shard.coordinator`).  Splitting a low-latency site across
shards is legal but collapses the lookahead to the intra-site latency
and with it the useful window per barrier round.

Lookahead is tracked **per channel**: ``lookahead_matrix[i][j]`` is the
minimum one-way latency from any node on shard ``i`` to any node on
shard ``j``.  On a non-uniform topology (a WAN between metro pairs,
the Grid'5000 shape the paper measures on) the matrix beats the single
global minimum: a shard's horizon is constrained by the latency of the
channels that can actually reach it, not by the tightest boundary
anywhere in the plan.  Chains of hops matter too — shard ``i`` can
reach ``j`` through ``k`` — so the per-shard bound is the matrix's
shortest-path closure, :attr:`ShardPlan.horizon_matrix`, whose
diagonal holds each shard's shortest *round-trip cycle* (the bound for
a shard's own sends echoing back to it).  The closure is the
exact-arithmetic reference (and what the unit tests pin down); the
coordinator re-derives the same bounds each round by relaxing over
:attr:`ShardPlan.lookahead_matrix` with left-folded float additions,
because float ``+`` is not associative and a presummed closure can
overshoot a real chain's arrival by a few ULPs (see
:mod:`repro.shard.coordinator`).  The scalar
:attr:`ShardPlan.lookahead` stays as the matrix minimum for reporting
and back-compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.net.topology import Topology


@dataclass(frozen=True)
class ShardPlan:
    """One partitioning of a topology's nodes over shard processes."""

    shard_count: int
    #: All node names, in topology order (shared by every shard).
    node_names: Tuple[str, ...]
    #: ``node_names[i]`` lives on shard ``assignment[i]``.
    assignment: Tuple[int, ...]
    #: Minimum one-way latency across any shard boundary (seconds);
    #: ``inf`` for a single shard (there is no boundary).  Equals the
    #: off-diagonal minimum of :attr:`lookahead_matrix`.
    lookahead: float
    #: ``lookahead_matrix[i][j]``: minimum one-way latency from any
    #: node on shard ``i`` to any node on shard ``j`` (``inf`` on the
    #: diagonal and for a single shard).
    lookahead_matrix: Tuple[Tuple[float, ...], ...] = ()
    #: Shortest-path closure of :attr:`lookahead_matrix`:
    #: ``horizon_matrix[i][j]`` (``i != j``) lower-bounds the latency
    #: of *any* chain of cross-shard hops from ``i`` to ``j``;
    #: ``horizon_matrix[j][j]`` is shard ``j``'s shortest nontrivial
    #: cycle — the bound for its own output echoing back.  The
    #: exact-arithmetic form of the coordinator's per-shard horizons.
    horizon_matrix: Tuple[Tuple[float, ...], ...] = ()
    _shard_of: Dict[str, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_shard_of",
            dict(zip(self.node_names, self.assignment)),
        )
        if not self.lookahead_matrix:
            count = self.shard_count
            object.__setattr__(
                self,
                "lookahead_matrix",
                tuple(tuple(math.inf for _ in range(count))
                      for _ in range(count)),
            )
        if not self.horizon_matrix:
            object.__setattr__(
                self,
                "horizon_matrix",
                _closure(self.lookahead_matrix),
            )

    def shard_of(self, node: str) -> int:
        try:
            return self._shard_of[node]
        except KeyError:
            raise ConfigurationError(f"unknown node {node!r}") from None

    def nodes_of(self, shard: int) -> List[str]:
        return [
            name
            for name, owner in zip(self.node_names, self.assignment)
            if owner == shard
        ]


def _closure(
    matrix: Tuple[Tuple[float, ...], ...]
) -> Tuple[Tuple[float, ...], ...]:
    """Shortest-path closure with cycle diagonal.

    Floyd–Warshall over the one-hop latencies gives the cheapest chain
    ``i -> ... -> j`` for ``i != j``; the diagonal is then the cheapest
    nontrivial cycle through each shard, ``min_k (L[j][k] + D[k][j])``
    — any chain that leaves ``j`` and returns pays at least one
    outbound hop plus the cheapest way back.
    """
    count = len(matrix)
    dist = [[matrix[i][j] for j in range(count)] for i in range(count)]
    for i in range(count):
        dist[i][i] = math.inf
    for via in range(count):
        row_via = dist[via]
        for i in range(count):
            if i == via:
                continue
            through = dist[i][via]
            if through == math.inf:
                continue
            row = dist[i]
            for j in range(count):
                if j == via or j == i:
                    continue
                candidate = through + row_via[j]
                if candidate < row[j]:
                    row[j] = candidate
    for j in range(count):
        cycle = math.inf
        for k in range(count):
            if k == j:
                continue
            candidate = matrix[j][k] + dist[k][j]
            if candidate < cycle:
                cycle = candidate
        dist[j][j] = cycle
    return tuple(tuple(row) for row in dist)


def _align_to_sites(cuts: List[int], boundaries: List[int]) -> List[int]:
    """Move each balanced cut, in order, to the nearest site boundary
    (the lower one on a tie) that is past the previous cut and still
    leaves a boundary for every later cut."""
    aligned: List[int] = []
    low = 0
    for index, cut in enumerate(cuts):
        high = len(boundaries) - (len(cuts) - index)
        best = min(
            range(low, high + 1),
            key=lambda i: (abs(boundaries[i] - cut), i),
        )
        aligned.append(boundaries[best])
        low = best + 1
    return aligned


def make_plan(topology: Topology, shard_count: int) -> ShardPlan:
    """Partition ``topology`` into ``shard_count`` contiguous node blocks,
    cut at site boundaries when there are enough sites.

    Raises :class:`ConfigurationError` when the partition is impossible
    (more shards than nodes) or useless (a zero lookahead: two nodes
    with zero latency between them on different shards would leave no
    safe window to advance through, so the protocol could never make
    progress).
    """
    nodes = tuple(topology.nodes)
    if shard_count < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {shard_count}"
        )
    if shard_count > len(nodes):
        raise ConfigurationError(
            f"cannot split {len(nodes)} nodes over {shard_count} shards"
        )
    total = len(nodes)
    base, extra = divmod(total, shard_count)
    cuts: List[int] = []  # where each block but the last ends
    end = 0
    for shard in range(shard_count - 1):
        end += base + (1 if shard < extra else 0)
        cuts.append(end)
    boundaries: List[int] = []  # interior site boundaries, ascending
    end = 0
    for site in topology.sites:
        end += site.node_count
        if site.node_count and end < total:
            boundaries.append(end)
    if len(boundaries) >= len(cuts):
        cuts = _align_to_sites(cuts, boundaries)
    assignment: List[int] = []
    start = 0
    for shard, end in enumerate(cuts + [total]):
        assignment.extend([shard] * (end - start))
        start = end

    matrix = [
        [math.inf] * shard_count for _ in range(shard_count)
    ]
    lookahead = math.inf
    if shard_count > 1:
        # Site-pair latencies are uniform, so it suffices to probe one
        # representative node pair per (site, site, shard, shard)
        # combination that actually crosses a shard boundary.
        seen = set()
        for i, a in enumerate(nodes):
            for j in range(total):
                if i == j or assignment[i] == assignment[j]:
                    continue
                b = nodes[j]
                key = (
                    topology.site_of(a).name,
                    topology.site_of(b).name,
                    assignment[i],
                    assignment[j],
                )
                if key in seen:
                    continue
                seen.add(key)
                latency = topology.one_way_latency(a, b)
                row = matrix[assignment[i]]
                if latency < row[assignment[j]]:
                    row[assignment[j]] = latency
                if latency < lookahead:
                    lookahead = latency
        if lookahead <= 0.0:
            raise ConfigurationError(
                "shard plan has zero lookahead: some cross-shard node "
                "pair has zero one-way latency, so no safe advance "
                "window exists — keep zero-latency nodes on one shard"
            )
    return ShardPlan(
        shard_count=shard_count,
        node_names=nodes,
        assignment=tuple(assignment),
        lookahead=lookahead,
        lookahead_matrix=tuple(tuple(row) for row in matrix),
    )
