"""Reusable application behaviors and graph-building helpers.

The central piece is :class:`Peer`, an activity behavior that keeps
references under string keys (the simulated equivalent of object fields
holding stubs), can do timed work, and can forward references — enough to
express every synthetic topology and both paper workloads.

Helpers like :func:`link` and :func:`release_all` drive a world from a
*driver* (a dummy root activity standing in for ``main()``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.runtime.activeobject import Activity
from repro.runtime.behaviors import Behavior
from repro.runtime.proxy import Proxy
from repro.runtime.request import Request


class Peer(Behavior):
    """An activity that holds references under keys.

    Methods served:

    * ``hold`` — keep the attached references under ``request.data`` keys
      (a list aligned with the attached proxies); a re-used key drops the
      previously held reference first,
    * ``drop`` — drop the references held under ``request.data`` keys,
    * ``drop_all`` — drop every held reference,
    * ``work`` — sleep ``request.data`` seconds of simulated compute,
    * ``forward`` — send one held reference to another held peer:
      ``request.data = (target_key, ref_key, store_key)``,
    * ``ping`` — no-op (payload-only traffic).
    """

    def __init__(self) -> None:
        self.held: Dict[str, Proxy] = {}

    # -- reference management -------------------------------------------

    def do_hold(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        keys = request.data
        if keys is None:
            keys = [proxy.activity_id for proxy in proxies]
        for key, proxy in zip(keys, proxies):
            self._store(ctx, key, proxy)
        return None

    def do_drop(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        for key in request.data:
            self._discard(ctx, key)
        return None

    def do_drop_all(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        for key in list(self.held):
            self._discard(ctx, key)
        return None

    # -- compute and traffic ---------------------------------------------

    def do_work(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        yield ctx.sleep(float(request.data))
        return None

    def do_ping(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        return None

    def do_forward(self, ctx, request: Request, proxies: Tuple[Proxy, ...]):
        target_key, ref_key, store_key = request.data
        target = self.held.get(target_key)
        ref = self.held.get(ref_key)
        if target is None or ref is None:
            return None
        ctx.call(target, "hold", refs=[ref], data=[store_key])
        return None

    # -- internals --------------------------------------------------------

    def _store(self, ctx, key: str, proxy: Proxy) -> None:
        old = self.held.pop(key, None)
        if old is not None and not old.released:
            ctx.drop(old)
        self.held[key] = ctx.keep(proxy)

    def _discard(self, ctx, key: str) -> None:
        proxy = self.held.pop(key, None)
        if proxy is not None and not proxy.released:
            ctx.drop(proxy)


def link(
    driver: Activity,
    source: Proxy,
    target: Proxy,
    *,
    key: Optional[str] = None,
    payload_bytes: int = 0,
) -> None:
    """Make ``source`` hold a reference to ``target`` (edge source->target).

    Implemented as an application request from the driver carrying the
    target reference, exactly how edges appear in a real deployment.
    """
    driver.context.call(
        source,
        "hold",
        refs=[target],
        data=[key if key is not None else target.activity_id],
        payload_bytes=payload_bytes,
    )


def unlink(
    driver: Activity,
    source: Proxy,
    *,
    key: str,
) -> None:
    """Make ``source`` drop the reference held under ``key``."""
    driver.context.call(source, "drop", data=[key])


def release_all(driver: Activity, proxies: Iterable[Proxy]) -> None:
    """The driver drops its stubs (the simulated ``main()`` returning)."""
    for proxy in proxies:
        if not proxy.released:
            driver.context.drop(proxy)


def links_settled(world) -> bool:
    """True when no application traffic is in flight and everyone who will
    become idle is idle (useful before dropping driver references)."""
    if world.inflight_pinned():
        return False
    return all(
        activity.is_idle() or activity.is_root
        for activity in world.live_activities()
    )
