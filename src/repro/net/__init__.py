"""Simulated network fabric.

Replaces the paper's RMI-over-TCP transport on Grid'5000 with a
deterministic equivalent that preserves the two properties the DGC
actually depends on:

* per-(source node, destination node) **FIFO** delivery — DGC messages and
  responses "cannot race with application messages as they are sent over
  the same FIFO connection" (paper Sec. 3.2), and
* a bounded communication time **MaxComm** used by the
  ``TTA > 2*TTB + MaxComm`` safety margin (paper Sec. 3.1).

Bandwidth accounting mirrors the paper's instrumented-SOCKS methodology:
only cross-node payload bytes are counted; intra-node messages are free.
"""

from repro.net.kinds import (
    ALL_KINDS,
    KIND_APP_REPLY,
    KIND_APP_REQUEST,
    KIND_DGC_MESSAGE,
    KIND_DGC_RESPONSE,
    KIND_REGISTRY_LOOKUP,
    KIND_REGISTRY_REPLY,
    describe_traffic,
)
from repro.net.message import WireSizeModel
from repro.net.channel import FifoChannel
from repro.net.network import Network
from repro.net.topology import Site, Topology, grid5000_topology, uniform_topology
from repro.net.accounting import BandwidthAccountant, TrafficCategory
from repro.net.faults import FaultPlan

__all__ = [
    "ALL_KINDS",
    "KIND_APP_REPLY",
    "KIND_APP_REQUEST",
    "KIND_DGC_MESSAGE",
    "KIND_DGC_RESPONSE",
    "KIND_REGISTRY_LOOKUP",
    "KIND_REGISTRY_REPLY",
    "describe_traffic",
    "WireSizeModel",
    "FifoChannel",
    "Network",
    "Site",
    "Topology",
    "grid5000_topology",
    "uniform_topology",
    "BandwidthAccountant",
    "TrafficCategory",
    "FaultPlan",
]
