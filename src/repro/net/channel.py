"""Per-(source, destination) FIFO channels.

The DGC's correctness argument (paper Sec. 3.2) leans on the fact that DGC
messages, DGC responses and application messages between two activities
share one FIFO connection and therefore never race each other.  We model a
FIFO channel per ordered node pair: delivery times are non-decreasing in
send order even when the latency model would allow overtaking.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from typing import Callable, Optional

from repro.net.message import Envelope
from repro.sim.kernel import SimKernel


class FifoChannel:
    """One-directional FIFO pipe between two nodes.

    ``latency_fn`` returns the propagation delay for an envelope; the
    channel clamps each delivery to be no earlier than the previous one so
    FIFO order is preserved under jittery latency.
    """

    __slots__ = (
        "source",
        "dest",
        "pair",
        "_kernel",
        "_latency_fn",
        "_base_latency",
        "_delay_rules",
        "_last_delivery_time",
        "_label",
        "sent_count",
        "delivered_count",
        "acct_box",
    )

    def __init__(
        self,
        kernel: SimKernel,
        source: str,
        dest: str,
        latency_fn: Callable[[Envelope], float],
        *,
        base_latency: Optional[float] = None,
        delay_rules: Optional[list] = None,
        acct_box: Optional[list] = None,
    ) -> None:
        self._kernel = kernel
        self.source = source
        self.dest = dest
        #: Precomputed (source, dest) key for the bandwidth accountant.
        self.pair = (source, dest)
        self._latency_fn = latency_fn
        #: Fast path: when the base latency is known constant and no
        #: fault-plan delay rules exist, ``latency_fn`` is skipped
        #: entirely.  ``delay_rules`` is the fault plan's live list
        #: (mutated in place), so rules added later are honoured.
        self._base_latency = base_latency
        self._delay_rules = delay_rules
        self._last_delivery_time = 0.0
        # Precomputed once: the event label used to cost one f-string
        # allocation per transmitted envelope.
        self._label = f"deliver:{source}->{dest}"
        self.sent_count = 0
        self.delivered_count = 0
        #: Per-pair byte box lent out by the accountant when the network
        #: creates the channel; the fabric's fused send lanes bump it in
        #: place instead of probing the accountant's pair table.
        self.acct_box = acct_box

    def send(self, envelope: Envelope, sink: Callable[[Envelope], None]) -> float:
        """Schedule delivery of ``envelope`` into ``sink``; return the
        delivery time."""
        if self._base_latency is not None and not self._delay_rules:
            latency = self._base_latency
        else:
            latency = self._latency_fn(envelope)
        delivery_time = self._reserve_slot(latency)
        envelope.sent_at = self._kernel.now
        # Deliveries are never cancelled: take the event-less fast path.
        self._kernel.schedule_fire_at(
            delivery_time, self._deliver, (envelope, sink)
        )
        return delivery_time

    def stage_send(self) -> float:
        """Reserve the next FIFO delivery slot for one constant-latency
        message whose delivery event is managed *outside* the channel
        (the network's pulse batch).  Counters and the FIFO clamp behave
        exactly as :meth:`send`; the caller must bump
        ``delivered_count`` when the staged message is delivered.

        Only valid on the constant-latency fast path (no fault-plan
        delay rules) — the network falls back to :meth:`send` otherwise.
        """
        return self._reserve_slot(self._base_latency)

    def _reserve_slot(self, latency: float) -> float:
        """Latency clamp + FIFO ordering + send accounting for the
        envelope and staged paths.

        The clamp sequence (non-negative latency, non-decreasing
        delivery time, ``sent_count``) is deliberately duplicated in the
        hot lanes that cannot afford the callee frames.  Every site:

        * this method (behind :meth:`send` and :meth:`stage_send`),
        * the inlined blocks in
          :meth:`repro.net.network.Network.send_typed`,
          :meth:`~repro.net.network.Network.send_dgc_single` and
          :meth:`~repro.net.network.Network.send_dgc_run` (``n >= 2``).

        A change here must be mirrored in all of them — the
        bit-identical equivalence across delivery cores depends on every
        site computing the same delivery times and counters
        (``tests/unit/test_net_channel.py`` drives one schedule through
        each and compares).
        """
        if latency < 0:
            latency = 0.0
        delivery_time = self._kernel.now + latency
        if delivery_time < self._last_delivery_time:
            delivery_time = self._last_delivery_time
        self._last_delivery_time = delivery_time
        self.sent_count += 1
        return delivery_time

    def _deliver(self, envelope: Envelope, sink: Callable[[Envelope], None]) -> None:
        self.delivered_count += 1
        sink(envelope)
