"""Per-(source, destination) FIFO channels.

The DGC's correctness argument (paper Sec. 3.2) leans on the fact that DGC
messages, DGC responses and application messages between two activities
share one FIFO connection and therefore never race each other.  We model a
FIFO channel per ordered node pair: delivery times are non-decreasing in
send order even when the latency model would allow overtaking.
"""
# repro: hot-path — every class slotted, no closure allocation in loops (HOT rules)

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import SimKernel


class FifoChannel:
    """One-directional FIFO pipe between two nodes.

    The channel holds the pair's FIFO state and counters; the network
    owns the delivery events.  Each reserved delivery is clamped to be
    no earlier than the previous one, so FIFO order holds under any
    per-message latency (fault-plan delays included).
    """

    __slots__ = (
        "source",
        "dest",
        "pair",
        "_kernel",
        "_base_latency",
        "_delay_rules",
        "_last_delivery_time",
        "sent_count",
        "delivered_count",
        "acct_box",
    )

    def __init__(
        self,
        kernel: SimKernel,
        source: str,
        dest: str,
        base_latency: float,
        *,
        delay_rules: Optional[list] = None,
        acct_box: Optional[list] = None,
    ) -> None:
        self._kernel = kernel
        self.source = source
        self.dest = dest
        #: Precomputed (source, dest) key for the bandwidth accountant.
        self.pair = (source, dest)
        #: The topology's constant one-way latency for the pair.
        #: ``delay_rules`` is the fault plan's live list (mutated in
        #: place), so rules added later are honoured.
        self._base_latency = base_latency
        self._delay_rules = delay_rules
        self._last_delivery_time = 0.0
        self.sent_count = 0
        self.delivered_count = 0
        #: Per-pair byte box lent out by the accountant when the network
        #: creates the channel; the fabric's fused send lanes bump it in
        #: place instead of probing the accountant's pair table.
        self.acct_box = acct_box

    def _reserve_slot(self, latency: float) -> float:
        """Latency clamp + FIFO ordering + send counter for one message;
        returns its delivery time.  The caller owns the delivery event
        and bumps ``delivered_count`` when it fires.

        The clamp sequence (non-negative latency, non-decreasing
        delivery time, ``sent_count``) is deliberately duplicated in the
        hot lanes that cannot afford the callee frame.  Every site:

        * this method, behind the per-message lane
          :meth:`repro.net.network.Network._send_one`,
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
