"""repro — a complete distributed garbage collector for activities.

Reproduction of Caromel, Chazarain & Henrio, *Garbage Collecting the
Grid: A Complete DGC for Activities* (Middleware 2007).

Quickstart::

    from repro import DgcConfig, World, uniform_topology
    from repro.runtime import SinkBehavior

    world = World(uniform_topology(4), dgc=DgcConfig(ttb=1.0, tta=3.0))
    driver = world.create_driver()
    a = driver.context.create(SinkBehavior(), name="a")
    b = driver.context.create(SinkBehavior(), name="b")
    # ... build references, drop the driver's stubs, run:
    world.run_until_collected(timeout=60.0)

See DESIGN.md for the system inventory and ``benchmarks/test_fig*.py``
for the paper-vs-measured check of every table and figure.
"""

from repro.core.clock import ActivityClock
from repro.core.collector import DgcCollector
from repro.core.config import (
    DgcConfig,
    NAS_CONFIG,
    TORTURE_FAST_CONFIG,
    TORTURE_SLOW_CONFIG,
)
from repro.core.wire import DgcMessage, DgcResponse
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    RuntimeModelError,
)
from repro.net.topology import Site, Topology, grid5000_topology, uniform_topology
from repro.world import World, WorldStats

__version__ = "1.0.0"

__all__ = [
    "ActivityClock",
    "DgcCollector",
    "DgcConfig",
    "NAS_CONFIG",
    "TORTURE_FAST_CONFIG",
    "TORTURE_SLOW_CONFIG",
    "DgcMessage",
    "DgcResponse",
    "ConfigurationError",
    "ProtocolError",
    "ReproError",
    "RuntimeModelError",
    "Site",
    "Topology",
    "grid5000_topology",
    "uniform_topology",
    "World",
    "WorldStats",
    "__version__",
]
