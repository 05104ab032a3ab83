"""Active-object middleware substrate (the paper's ProActive equivalent).

Provides the middleware notions the DGC algorithm consumes (paper Sec. 4.1):

* **activities** (active objects): remotely-accessible objects with their
  own request queue and service loop, with a well-defined *idle* predicate,
* **stubs/proxies** with shared *tags* so the disappearance of every stub
  for a given remote activity is observable without modifying the local GC,
* **futures** for transparently asynchronous method calls,
* **nodes** (JVM equivalents) hosting activities and a simulated local GC,
* **registry** and **dummy root activities**, the DGC roots.
"""

from repro.runtime.ids import ActivityId, make_activity_id, reset_id_counter
from repro.runtime.proxy import Proxy, ProxyTable, RemoteRef, StubTag
from repro.runtime.request import Reply, Request
from repro.runtime.future import Future
from repro.runtime.activeobject import Activity, ActivityContext, ActivityState, Sleep
from repro.runtime.behaviors import Behavior, FunctionBehavior, SinkBehavior
from repro.runtime.node import Node
from repro.runtime.registry import (
    LeaseCache,
    NamingService,
    RegistryShard,
)
from repro.runtime.localgc import LocalGarbageCollector

__all__ = [
    "ActivityId",
    "make_activity_id",
    "reset_id_counter",
    "Proxy",
    "ProxyTable",
    "RemoteRef",
    "StubTag",
    "Reply",
    "Request",
    "Future",
    "Activity",
    "ActivityContext",
    "ActivityState",
    "Sleep",
    "Behavior",
    "FunctionBehavior",
    "SinkBehavior",
    "Node",
    "NamingService",
    "RegistryShard",
    "LeaseCache",
    "LocalGarbageCollector",
]
