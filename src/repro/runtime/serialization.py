"""Reference (de)serialization hooks.

Paper Sec. 2.2: "The graph is constructed by hooking into the
deserialization of stubs, and by remembering which local active object A
(i.e. the recipient of the message) triggered the deserialization, then A
can add the stub target B to its list of referenced active objects."

``serialize_refs`` converts proxies to wire-form :class:`RemoteRef`;
``deserialize_refs`` materialises stubs in the recipient's proxy table and
notifies its DGC collector (which also implements the "at least one DGC
message must be sent at the next broadcast" rule, Sec. 3.1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.errors import RuntimeModelError
from repro.runtime.proxy import Proxy, RemoteRef


def serialize_refs(
    refs: Sequence[Union[Proxy, RemoteRef]],
) -> Tuple[RemoteRef, ...]:
    """Convert held proxies (or already-serialized refs) to wire form."""
    wire: List[RemoteRef] = []
    for ref in refs:
        if isinstance(ref, Proxy):
            if ref.released:
                raise RuntimeModelError(f"serializing released {ref!r}")
            wire.append(ref.ref)
        elif isinstance(ref, RemoteRef):
            wire.append(ref)
        else:
            raise RuntimeModelError(f"cannot serialize reference {ref!r}")
    return tuple(wire)


def deserialize_refs(activity, refs: Sequence[RemoteRef]) -> Tuple[Proxy, ...]:
    """Materialise stubs for ``refs`` in ``activity``'s proxy table, in
    order, as one tuple (what a handler or a future receives).

    Each deserialization notifies the activity's DGC collector so the
    reference-graph edge exists *before* the application ever uses the
    stub.  Self-references are materialised too (an activity may legally
    hold a stub on itself, forming a 1-cycle).
    """
    proxies: List[Proxy] = []
    for ref in refs:
        proxy = activity.proxies.acquire(ref)
        if activity.collector is not None:
            activity.collector.on_reference_deserialized(proxy)
        proxies.append(proxy)
    return tuple(proxies)
