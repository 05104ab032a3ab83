"""Wall-clock execution of the *same* protocol stack.

The DGC, the activity runtime and the network fabric are all written
against the kernel interface (``now``/``schedule``/``schedule_at``); this
package provides :class:`LiveKernel`, a thread-backed implementation
driven by the real clock.  A ``World`` built on it executes the exact
same code paths as the simulator — activities serve requests, heartbeats
fire every (real) TTB, consensus collects cycles — in wall-clock time,
demonstrating the paper's middleware-integration story (Sec. 4.1)
without a single protocol change.

Why this exists: every simulated world — single-process or sharded —
runs on :class:`repro.sim.kernel.SimKernel`, where time only moves when
an event fires.  The paper's safety bound is a real-time inequality
(Sec. 3.1), and this package is the only path that runs the unchanged
protocol against a real clock and real threads, so it stays beside the
simulator rather than in ``examples/``.

Usage::

    from repro.live import LiveKernel
    from repro import DgcConfig, World, uniform_topology

    kernel = LiveKernel()
    world = World(uniform_topology(2), dgc=DgcConfig(ttb=0.05, tta=0.2),
                  kernel=kernel)
    try:
        ...  # create activities, drop references
        world.run_until_collected(timeout=5.0)   # real seconds
    finally:
        kernel.shutdown()
"""

from repro.live.kernel import LiveKernel

__all__ = ["LiveKernel"]
