"""The identity-first agreement scan vs plain Algorithm 1.

:meth:`ReferencerTable.agree` compares clocks by identity before
``!=``; it must answer exactly as :meth:`agree_scan` through every
mutation path: message updates (:meth:`update`, including the
``touch_skip`` diet), referencer expiry (:meth:`expire`), explicit
removal (:meth:`forget`), consensus-flag flips, and clock changes.  The
last test swaps the reference scan into a whole world and compares
outcomes.
"""

from __future__ import annotations

import random

from repro.core.clock import ActivityClock
from repro.core.config import DgcConfig
from repro.core.referencers import ReferencerTable
from repro.net.topology import uniform_topology
from repro.runtime.ids import reset_id_counter
from repro.workloads.app import release_all
from repro.workloads.synthetic import build_ring
from repro.world import World


def clock(value, owner="owner"):
    return ActivityClock(value, owner)


def assert_consistent(table, clocks):
    """The identity-first answer equals the plain scan for every clock."""
    for candidate in clocks:
        assert table.agree(candidate) == table.agree_scan(candidate), (
            f"agree() diverged from the scan for {candidate}"
        )


def test_empty_table_agrees_vacuously():
    table = ReferencerTable()
    assert table.agree(clock(1)) is True
    assert table.agree_scan(clock(1)) is True


def test_agree_checks_consensus_and_clock():
    table = ReferencerTable()
    c1 = clock(1)
    table.update("a", c1, True, now=0.0)
    table.update("b", c1, True, now=0.0)
    assert table.agree(c1) is True
    table.update("b", c1, False, now=1.0)
    assert table.agree(c1) is False
    assert_consistent(table, [c1])


def test_consensus_flag_flips_update_the_counter():
    table = ReferencerTable()
    c1 = clock(1)
    assert table.agree(c1) is True  # vacuous on the empty table
    table.update("a", c1, False, now=0.0)
    assert table.agree(c1) is False
    table.update("a", c1, True, now=1.0)
    assert table.agree(c1) is True
    table.update("a", c1, True, now=2.0)  # no-op flip stays consistent
    assert table.agree(c1) is True
    assert_consistent(table, [c1])


def test_clock_change_rekeys_the_tracked_clock():
    table = ReferencerTable()
    c1, c2 = clock(1), clock(2)
    table.update("a", c1, True, now=0.0)
    assert table.agree(c1) is True
    # The activity adopts a newer clock: agreement on c1 says nothing
    # about c2.
    assert table.agree(c2) is False
    table.update("a", c2, True, now=1.0)
    assert table.agree(c2) is True
    # Asking about the stale clock again sees the moved record.
    assert table.agree(c1) is False
    assert_consistent(table, [c1, c2])


def test_same_value_different_owner_is_a_different_clock():
    table = ReferencerTable()
    ours, theirs = clock(3, "us"), clock(3, "them")
    table.update("a", ours, True, now=0.0)
    assert table.agree(ours) is True
    assert table.agree(theirs) is False
    assert_consistent(table, [ours, theirs])


def test_expiry_removes_agreement():
    table = ReferencerTable()
    c1 = clock(1)
    table.update("old", c1, True, now=0.0)
    table.update("new", c1, True, now=10.0)
    assert table.agree(c1) is True
    lost = table.expire(now=12.0, tta=5.0)
    assert lost == ["old"]
    assert table.agree(c1) is True  # the survivor still agrees
    table.update("new", c1, False, now=13.0)
    assert table.agree(c1) is False
    assert_consistent(table, [c1])


def test_expire_fast_path_skips_scan_but_stays_exact():
    table = ReferencerTable()
    c1 = clock(1)
    for index in range(16):
        table.update(f"r{index}", c1, True, now=float(index))
    # Nothing can have expired yet.
    assert table.expire(now=10.0, tta=100.0) == []
    assert len(table) == 16
    assert table.agree(c1) is True
    # Move far enough that the oldest half expires.
    lost = table.expire(now=107.5, tta=100.0)
    assert sorted(lost) == [f"r{index}" for index in range(8)]
    assert table.agree(c1) is True
    assert_consistent(table, [c1])


def test_forget_updates_counter():
    table = ReferencerTable()
    c1 = clock(1)
    table.update("a", c1, True, now=0.0)
    table.update("b", c1, False, now=0.0)
    assert table.agree(c1) is False
    table.forget("b")  # the only dissenter is gone
    assert table.agree(c1) is True
    table.forget("a")
    assert table.agree(c1) is True  # vacuous again
    table.forget("missing")  # a no-op
    assert table.agree(c1) is True
    assert_consistent(table, [c1])


def test_property_random_mutation_storm_matches_naive_scan():
    """Property test: any interleaving of update/expire/forget/agree
    keeps the identity-first scan identical to the plain one — with and
    without the ``touch_skip`` diet, and with clocks that are equal but
    not the same object, so the ``!=`` fallback is exercised."""
    rng = random.Random(1234)
    owners = ["p", "q", "r"]
    referencers = [f"ref{index}" for index in range(12)]
    for trial in range(60):
        table = ReferencerTable()
        table.touch_skip = trial % 2 == 1
        now = 0.0
        clocks = [clock(value, rng.choice(owners)) for value in range(1, 4)]
        clocks += [clock(c.value, c.owner) for c in clocks]
        for __ in range(120):
            now += rng.uniform(0.0, 3.0)
            op = rng.random()
            if op < 0.55:
                table.update(
                    rng.choice(referencers),
                    rng.choice(clocks),
                    rng.random() < 0.5,
                    now,
                    sender_ttb=rng.choice([0.0, 5.0]),
                )
            elif op < 0.75:
                table.expire(
                    now,
                    rng.choice([4.0, 10.0]),
                    base_ttb=1.0,
                    honor_sender_ttb=rng.random() < 0.5,
                )
            elif op < 0.85:
                table.forget(rng.choice(referencers))
            else:
                candidate = rng.choice(clocks)
                assert table.agree(candidate) == table.agree_scan(candidate)
        assert_consistent(table, clocks)


def test_naive_and_optimized_cores_agree_on_a_small_world(monkeypatch):
    """End-to-end determinism probe at unit scale: one ring collected
    with the identity-first :meth:`agree` and again with
    :meth:`agree_scan` in its place must produce identical stats."""
    config = DgcConfig(ttb=1.0, tta=3.0)

    def outcome():
        reset_id_counter()
        world = World(uniform_topology(2), dgc=config, seed=7)
        driver = world.create_driver()
        ring = build_ring(world, driver, 4)
        world.run_for(2.0)
        release_all(driver, ring)
        assert world.run_until_collected(100 * config.tta)
        return (
            world.stats.collected_acyclic,
            world.stats.collected_cyclic,
            sorted(world.stats.collected_by_id.items()),
        )

    fast = outcome()
    monkeypatch.setattr(ReferencerTable, "agree", ReferencerTable.agree_scan)
    slow = outcome()
    assert fast == slow
