"""Baseline — Veiga & Ferreira-style cycle detection messages.

Claim benchmarked (Sec. 6): "the growth of the [cycle detection] message
is limited only by the total size of the distributed system, so the
communication overhead can become large" — versus the paper's fixed-size
DGC messages (Sec. 4.3).
"""

import pytest

from repro.baselines.veiga import VeigaConfig, veiga_collector_factory
from repro.harness.report import render_table
from repro.net.message import WireSizeModel
from repro.net.topology import uniform_topology
from repro.workloads.app import release_all
from repro.workloads.synthetic import build_ring
from repro.world import World

VEIGA = VeigaConfig(heartbeat_s=1.0, alone_after_s=3.0, suspect_after_s=2.0)
SIZES = (4, 8, 16)


def run_veiga_ring(size: int) -> dict:
    world = World(
        uniform_topology(4),
        dgc=None,
        collector_factory=veiga_collector_factory(VEIGA),
        seed=1,
    )
    # Track the largest DGC message entering the fabric.
    biggest = {"bytes": 0}
    original_send = world.network.send_dgc_single

    def tracking_send(source, dest, kind, size_bytes, item, payload):
        if kind == "dgc.message":
            biggest["bytes"] = max(biggest["bytes"], size_bytes)
        original_send(source, dest, kind, size_bytes, item, payload)

    world.network.send_dgc_single = tracking_send
    driver = world.create_driver()
    ring = build_ring(world, driver, size)
    world.run_for(2.0)
    release_all(driver, ring)
    collected = world.run_until_collected(200 * VEIGA.alone_after_s)
    return {
        "size": size,
        "collected": collected,
        "max_message": biggest["bytes"],
        "dgc_bytes": world.accountant.dgc_bytes,
    }


@pytest.fixture(scope="module")
def sweep():
    return [run_veiga_ring(size) for size in SIZES]


def test_baseline_veiga_message_growth(benchmark, sweep):
    benchmark.pedantic(lambda: run_veiga_ring(4), rounds=1, iterations=1)
    fixed = WireSizeModel().dgc_message_bytes
    print()
    print(
        render_table(
            ["cycle size", "collected", "max CDM bytes",
             "paper DGC msg bytes"],
            [
                [
                    row["size"],
                    str(row["collected"]),
                    row["max_message"],
                    fixed,
                ]
                for row in sweep
            ],
            title="Baseline — Veiga-Ferreira CDM size vs cycle size",
        )
    )
    for row in sweep:
        assert row["collected"]
    # CDM size grows with the cycle...
    messages = [row["max_message"] for row in sweep]
    assert messages == sorted(messages)
    assert messages[-1] > 2 * messages[0]
    # ...while the paper's DGC messages are fixed-size regardless.
    assert messages[-1] > fixed
