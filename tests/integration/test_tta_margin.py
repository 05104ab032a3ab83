"""Sec. 3.1: the TTA safety margin ``TTA > 2*TTB + MaxComm``.

* configurations violating the margin are rejected up front;
* with validation bypassed *and* the paper's worst-case schedule (a
  reference handed over right around the broadcast instants, with the
  original stub collected immediately), a too-small TTA wrongfully
  collects a live activity;
* the compliant configuration survives the same adversarial schedule.
"""

import pytest

from repro.core.config import DgcConfig
from repro.errors import ConfigurationError, ProtocolError
from repro.net.faults import FaultPlan
from repro.net.kinds import KIND_APP_REQUEST
from repro.workloads.app import Peer, link, release_all


def test_world_rejects_unsafe_config(make_world):
    with pytest.raises(ConfigurationError):
        make_world(dgc=DgcConfig(ttb=1.0, tta=2.0))


def test_validation_bypass_allows_unsafe_config(make_world):
    world = make_world(
        dgc=DgcConfig(ttb=1.0, tta=2.0), validate_dgc_config=False
    )
    assert world.dgc_config.tta == 2.0


def build_handoff(world, driver):
    """Driver -> A holds B; A will hand B to C and drop its own stub."""

    class HandOver(Peer):
        def do_handoff(self, ctx, request, proxies):
            target = self.held.get("to")
            ref = self.held.get("payload")
            ctx.call(target, "hold", refs=[ref], data=["kept"])
            self._discard(ctx, "payload")
            return None

    a = driver.context.create(HandOver(), name="A")
    b = driver.context.create(Peer(), name="B")
    c = driver.context.create(Peer(), name="C")
    link(driver, a, b, key="payload")
    link(driver, a, c, key="to")
    return a, b, c


def run_adversarial_handoff(world, driver, a, b, c, *, delay_app: float):
    world.run_for(3.0)
    if delay_app:
        # Delay the handoff request carrying B's reference to C: the
        # effective communication time exceeds the assumed MaxComm, which
        # is exactly the paper's worst case (Sec. 3.1): B hears nothing
        # between A's last beat and C's first.
        world.network.fault_plan.add_delay(
            delay_app,
            kind=KIND_APP_REQUEST,
            predicate=lambda request: request.target == c.activity_id
            and request.method == "hold",
        )
    driver.context.call(a, "handoff")
    release_all(driver, [a, b])
    world.run_for(60.0)


def test_insufficient_tta_wrongfully_collects(make_world):
    # TTA barely above 2*TTB: any communication slower than 0.05s breaks
    # the margin.
    unsafe = DgcConfig(ttb=2.0, tta=4.05, start_jitter=True)
    world = make_world(
        dgc=unsafe, validate_dgc_config=False, seed=5
    )
    driver = world.create_driver()
    a, b, c = build_handoff(world, driver)
    with pytest.raises(ProtocolError, match="wrongful"):
        run_adversarial_handoff(world, driver, a, b, c, delay_app=7.0)


def test_sufficient_tta_survives_same_schedule(make_world):
    # TTA > 2*TTB + the 7s adversarial communication time: safe again.
    safe = DgcConfig(ttb=2.0, tta=12.0, start_jitter=True)
    world = make_world(dgc=safe, validate_dgc_config=False, seed=5)
    driver = world.create_driver()
    a, b, c = build_handoff(world, driver)
    run_adversarial_handoff(world, driver, a, b, c, delay_app=7.0)
    # B is now held by C (and kept alive); the handoff must not have
    # killed it.
    assert world.find_activity(b.activity_id) is not None
    assert world.stats.safety_violations == 0
    assert world.stats.dead_letters == 0


def test_margin_formula_matches_network_max_comm(make_world):
    from repro.net.topology import grid5000_topology
    from repro.world import World

    world = World(grid5000_topology(scale=0.05), dgc=DgcConfig(30.0, 61.0))
    assert world.dgc_config.satisfies_margin(world.network.max_comm())
