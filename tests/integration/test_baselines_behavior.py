"""Baseline collectors: behavioural contracts from the related work.

* RMI-style: collects acyclic garbage; **cannot** collect cycles.
* Veiga-Ferreira-style: collects cycles, but CDM size grows with the
  cycle.
* Le Fessant-style sketch: collects quiescent cycles via mark
  propagation.
"""

import pytest

from repro.baselines.lefessant import LeFessantConfig, lefessant_collector_factory
from repro.baselines.rmi import RmiDgcConfig, rmi_collector_factory
from repro.baselines.veiga import VeigaConfig, veiga_collector_factory
from repro.net.topology import uniform_topology
from repro.workloads.app import Peer, link, release_all
from repro.workloads.synthetic import build_chain, build_ring
from repro.world import World


def make_baseline_world(factory, seed=0):
    return World(
        uniform_topology(4),
        dgc=None,
        collector_factory=factory,
        seed=seed,
    )


# ----------------------------------------------------------------------
# RMI
# ----------------------------------------------------------------------

RMI = RmiDgcConfig(lease_s=4.0)


def test_rmi_collects_acyclic_chain():
    world = make_baseline_world(rmi_collector_factory(RMI))
    driver = world.create_driver()
    chain = build_chain(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, chain)
    assert world.run_until_collected(40 * RMI.lease_s)
    assert world.stats.collected_acyclic == 3


def test_rmi_keeps_referenced_activities_alive():
    world = make_baseline_world(rmi_collector_factory(RMI))
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    b = driver.context.create(Peer(), name="b")
    link(driver, a, b)
    world.run_for(2.0)
    driver.context.drop(b)
    world.run_for(30 * RMI.lease_s)
    assert world.find_activity(b.activity_id) is not None


def test_rmi_cannot_collect_cycles():
    """The headline incompleteness the paper fixes (Sec. 1)."""
    world = make_baseline_world(rmi_collector_factory(RMI))
    driver = world.create_driver()
    ring = build_ring(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, ring)
    world.run_for(50 * RMI.lease_s)
    assert len(world.live_non_roots()) == 3
    assert world.stats.collected_total == 0


# ----------------------------------------------------------------------
# Veiga & Ferreira CDMs
# ----------------------------------------------------------------------

VEIGA = VeigaConfig(
    heartbeat_s=1.0, alone_after_s=3.0, suspect_after_s=2.0
)


def test_veiga_collects_cycles():
    world = make_baseline_world(veiga_collector_factory(VEIGA))
    driver = world.create_driver()
    ring = build_ring(world, driver, 4)
    world.run_for(2.0)
    release_all(driver, ring)
    assert world.run_until_collected(60 * VEIGA.alone_after_s)
    assert world.stats.collected_cyclic >= 1
    assert world.stats.collected_total == 4


def test_veiga_collects_acyclic_garbage_too():
    world = make_baseline_world(veiga_collector_factory(VEIGA))
    driver = world.create_driver()
    a = driver.context.create(Peer(), name="a")
    world.run_for(1.0)
    driver.context.drop(a)
    assert world.run_until_collected(40 * VEIGA.alone_after_s)
    assert world.stats.collected_acyclic == 1


def test_veiga_spares_live_cycles():
    world = make_baseline_world(veiga_collector_factory(VEIGA))
    driver = world.create_driver()
    ring = build_ring(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, ring[1:])  # driver keeps ring[0]
    world.run_for(30 * VEIGA.alone_after_s)
    assert len(world.live_non_roots()) == 3


def test_veiga_cdm_size_grows_with_cycle():
    """The paper's space-complexity criticism (Sec. 6): the detection
    message names every visited/pending activity."""
    sizes = {}
    for cycle_size in (3, 9):
        world = make_baseline_world(veiga_collector_factory(VEIGA))
        driver = world.create_driver()
        ring = build_ring(world, driver, cycle_size)
        world.run_for(2.0)
        release_all(driver, ring)
        assert world.run_until_collected(80 * VEIGA.alone_after_s)
        max_ids = 0
        # Collectors are gone with their activities; read the counters
        # from the traffic: CDM bytes scale with ids.  Easiest: re-run
        # tracking the max over live collectors before collection -
        # instead we use the accountant's DGC message bytes as a proxy:
        sizes[cycle_size] = world.accountant.bytes_for("dgc.message")
    assert sizes[9] > sizes[3]


# ----------------------------------------------------------------------
# Le Fessant sketch
# ----------------------------------------------------------------------

LF = LeFessantConfig(heartbeat_s=1.0, alone_after_s=3.0)


def test_lefessant_collects_quiescent_cycle():
    world = make_baseline_world(lefessant_collector_factory(LF))
    driver = world.create_driver()
    ring = build_ring(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, ring)
    assert world.run_until_collected(80 * LF.alone_after_s)
    assert world.stats.collected_total == 3


def test_lefessant_spares_cycle_referenced_by_root():
    world = make_baseline_world(lefessant_collector_factory(LF))
    driver = world.create_driver()
    ring = build_ring(world, driver, 3)
    world.run_for(2.0)
    release_all(driver, ring[1:])
    world.run_for(30 * LF.alone_after_s)
    assert len(world.live_non_roots()) == 3
