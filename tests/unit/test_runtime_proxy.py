"""Unit tests for stubs, tags and the per-activity proxy table.

A stub is released only through :meth:`Activity.release_proxy`; these
drive it on a collector-less activity, whose dying tag is marked dead
and counted at once.
"""

import pytest

from repro.errors import RuntimeModelError
from repro.net.topology import uniform_topology
from repro.runtime.behaviors import SinkBehavior
from repro.runtime.proxy import ProxyTable, RemoteRef
from repro.world import World


def make_table(holder="ao-h"):
    return ProxyTable(holder)


def make_holder():
    world = World(uniform_topology(1), dgc=None, trace=False)
    return world.create_activity(SinkBehavior(), root=True, dgc_enabled=False)


def release(holder, proxy):
    """Release ``proxy``; True when it was its tag's last live stub."""
    was_dead = proxy.tag.dead
    holder.release_proxy(proxy)
    return proxy.tag.dead and not was_dead


def ref(target="ao-t", node="n0"):
    return RemoteRef(target, node)


def test_acquire_creates_proxy_with_tag():
    table = make_table()
    proxy = table.acquire(ref())
    assert proxy.activity_id == "ao-t"
    assert proxy.tag.holder == "ao-h"
    assert proxy.tag.target == "ao-t"
    assert table.holds("ao-t")


def test_same_target_shares_tag():
    """Sec. 2.2: all stubs for the same remote object owned by the same
    local activity share one tag."""
    table = make_table()
    first = table.acquire(ref())
    second = table.acquire(ref())
    assert first.tag is second.tag
    assert table.live_count("ao-t") == 2


def test_release_last_stub_reports_tag_death():
    holder = make_holder()
    table = holder.proxies
    first = table.acquire(ref())
    second = table.acquire(ref())
    assert release(holder, first) is False
    assert release(holder, second) is True
    assert not table.holds("ao-t")


def test_double_release_rejected():
    holder = make_holder()
    proxy = holder.proxies.acquire(ref())
    release(holder, proxy)
    with pytest.raises(RuntimeModelError):
        release(holder, proxy)


def test_reacquisition_mints_new_generation():
    holder = make_holder()
    table = holder.proxies
    first = table.acquire(ref())
    release(holder, first)
    second = table.acquire(ref())
    assert second.tag is not first.tag
    assert second.tag.generation == first.tag.generation + 1


def test_release_of_stale_generation_is_harmless():
    holder = make_holder()
    table = holder.proxies
    first = table.acquire(ref())
    dead_tags = table.release_all()
    assert [tag.target for tag in dead_tags] == ["ao-t"]
    # first's tag generation was retired wholesale; a later individual
    # release must not touch the new generation.
    second = table.acquire(ref())
    assert release(holder, first) is False
    assert table.holds("ao-t")
    assert second.tag.generation == 2


def test_release_all_clears_table():
    table = make_table()
    table.acquire(ref("ao-1"))
    table.acquire(ref("ao-2"))
    dead = table.release_all()
    assert len(dead) == 2
    assert table.targets() == []


def test_distinct_targets_distinct_tags():
    table = make_table()
    one = table.acquire(ref("ao-1"))
    two = table.acquire(ref("ao-2"))
    assert one.tag is not two.tag
    assert sorted(table.targets()) == ["ao-1", "ao-2"]


def test_ref_for():
    table = make_table()
    table.acquire(ref("ao-1", "node-7"))
    assert table.ref_for("ao-1").node == "node-7"
    assert table.ref_for("ao-none") is None
