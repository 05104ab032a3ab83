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

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining module.  The names resolve on first access
#: (PEP 562), so importing a subpackage — ``repro.analysis`` above all,
#: which must report a module that does not parse instead of failing to
#: import it — loads only what that subpackage itself needs.
_EXPORTS = {
    "ActivityClock": "repro.core.clock",
    "DgcCollector": "repro.core.collector",
    "DgcConfig": "repro.core.config",
    "NAS_CONFIG": "repro.core.config",
    "TORTURE_FAST_CONFIG": "repro.core.config",
    "TORTURE_SLOW_CONFIG": "repro.core.config",
    "DgcMessage": "repro.core.wire",
    "DgcResponse": "repro.core.wire",
    "ConfigurationError": "repro.errors",
    "ProtocolError": "repro.errors",
    "ReproError": "repro.errors",
    "RuntimeModelError": "repro.errors",
    "Site": "repro.net.topology",
    "Topology": "repro.net.topology",
    "grid5000_topology": "repro.net.topology",
    "uniform_topology": "repro.net.topology",
    "World": "repro.world",
    "WorldStats": "repro.world",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_EXPORTS[name]), name)
    return value
