#!/usr/bin/env python
"""Run the identical DGC stack in wall-clock time.

Swapping the deterministic simulation kernel for the thread-backed
:class:`repro.live.LiveKernel` executes the same protocol — heartbeats,
activity clocks, consensus, doomed propagation — against the real
clock: a 3-cycle is created, released, and collected live in about a
second (TTB=50 ms, TTA=250 ms).

Run::

    python examples/live_realtime.py
"""

import time

from repro import DgcConfig, World, uniform_topology
from repro.live import LiveKernel
from repro.workloads.app import Peer, link, release_all


def main() -> None:
    kernel = LiveKernel()
    world = World(
        uniform_topology(2),
        dgc=DgcConfig(ttb=0.05, tta=0.25),
        kernel=kernel,
        seed=1,
        safety_checks=True,
    )
    try:
        driver = world.create_driver()
        ring = [driver.context.create(Peer(), name=f"r{i}") for i in range(3)]
        for index, source in enumerate(ring):
            link(driver, source, ring[(index + 1) % 3], key="next")
        world.run_for(0.3)
        print(f"ring built; {len(world.live_non_roots())} live activities")

        wall_start = time.monotonic()
        release_all(driver, ring)
        collected = world.run_until_collected(timeout=20.0)
        wall = time.monotonic() - wall_start
        print(f"collected: {collected} in {wall:.2f} real seconds")
        print(f"  cyclic: {world.stats.collected_cyclic}, "
              f"acyclic: {world.stats.collected_acyclic}, "
              f"wrongful: {world.stats.safety_violations}")
        print(f"  heartbeats on the wire: "
              f"{world.accountant.messages_for('dgc.message')}")
    finally:
        kernel.shutdown()


if __name__ == "__main__":
    main()
