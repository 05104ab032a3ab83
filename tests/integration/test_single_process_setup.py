"""The single-process runners share the sharded world's setup.

``run_torture``, ``run_naming`` and ``run_nas_kernel`` build their
workloads through the SPMD builders of :mod:`repro.shard.workloads` and
drive the same phase protocol as
:func:`repro.shard.replay_single_process`.  Two consequences are pinned
here:

* **reproducibility** — each runner draws fresh activity, request and
  future ids, so the same seed gives the same answer on every call in
  one process, and a Fig. 8/9 row does not depend on what ran before it;
* **parity** — a runner's outcome equals the replay's for the same
  topology, seed and parameters, so the single-process and sharded arms
  cannot fork again.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DgcConfig, RegistryConfig
from repro.harness.tables import compare_kernel
from repro.net.topology import uniform_topology
from repro.shard import replay_single_process
from repro.shard.coordinator import outcome_signature
from repro.workloads.naming import run_naming
from repro.workloads.nas import kernel_spec, run_nas_kernel
from repro.workloads.torture import run_torture

DGC = DgcConfig(ttb=2.0, tta=6.0)
NODES = 5

TORTURE = dict(slave_count=12, active_duration=30.0, initial_pool=3)
NAMING = dict(
    client_count=6, service_count=4, duration=30.0, lookup_period=3.0,
    lookup_burst=2, churn_period=5.0,
)
NAS = {
    "FT": dict(ao_count=6, iterations=3, iter_time_s=4.0, payload_bytes=800),
    "CG": dict(ao_count=6, iterations=5, iter_time_s=4.0, payload_bytes=2_000),
    "EP": dict(ao_count=6, iterations=1, iter_time_s=4.0),
}
REGISTRIES = {
    "home": RegistryConfig(lease_ttb=3, lease_beat_s=2.0),
    "replicated": RegistryConfig(placement="replicated"),
}


def torture(seed, dgc=DGC, **options):
    return run_torture(
        dgc=dgc, topology=uniform_topology(NODES), seed=seed,
        sample_period=5.0, **TORTURE, **options,
    )


def naming(seed, placement="home", dgc=DGC, **options):
    return run_naming(
        dgc=dgc, registry=REGISTRIES[placement],
        topology=uniform_topology(NODES), seed=seed, **NAMING, **options,
    )


def nas(kernel, seed, dgc=DGC, barrier=False, **options):
    return run_nas_kernel(
        kernel_spec(kernel, reply_barrier=barrier, **NAS[kernel]), dgc=dgc,
        topology=uniform_topology(NODES), seed=seed, **options,
    )


def scalars(result):
    """Every scalar field of a result dataclass."""
    return {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if isinstance(getattr(result, field.name), (bool, int, float, str))
    }


# ----------------------------------------------------------------------
# Reproducibility: the same seed twice in one process
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "run",
    [
        lambda: torture(4),
        lambda: torture(4, dgc=None),
        lambda: naming(4),
        lambda: naming(4, dgc=None),
        lambda: nas("CG", 4),
        lambda: nas("FT", 4),
        lambda: nas("FT", 4, dgc=None),
        lambda: nas("CG", 4, barrier=True),
        lambda: nas("CG", 4, dgc=None, barrier=True),
    ],
    ids=["torture", "torture-no-dgc", "naming", "naming-no-dgc", "nas-cg",
         "nas-ft", "nas-ft-no-dgc", "nas-cg-barrier",
         "nas-cg-barrier-no-dgc"],
)
def test_same_seed_twice_gives_the_same_result(run):
    first, second = run(), run()
    assert scalars(first) == scalars(second)


def test_fig8_row_does_not_depend_on_run_order():
    """A CG row of Figs. 8/9 is the same run alone or after EP."""

    def row(kernel):
        return compare_kernel(
            kernel_spec(kernel, **NAS[kernel]), dgc=DGC, seeds=(1, 2),
            topology_factory=lambda: uniform_topology(NODES),
        )

    alone = row("CG")
    row("EP")
    assert row("CG") == alone


# ----------------------------------------------------------------------
# Parity: each runner against the single-process replay
# ----------------------------------------------------------------------


def assert_parity(
    result, workload, params, seed, registry=None, sampled=0, dgc=DGC
):
    """``result`` (run with ``keep_world=True``) matches the replay of
    the same configuration: outcome signature, bytes on the wire, last
    collection (or termination), and kernel events up to the ``sampled``
    events of an observation device the replay does not run."""
    world, _, signature = replay_single_process(
        uniform_topology(NODES), workload=workload, params=params,
        dgc=dgc, registry=registry, seed=seed,
    )
    mine = result.world
    assert outcome_signature(mine) == signature
    assert mine.accountant.megabytes() == world.accountant.megabytes()
    assert max(mine.stats.collected_by_id.values(), default=None) == max(
        world.stats.collected_by_id.values(), default=None
    )
    assert mine.kernel.fired_count - sampled == world.kernel.fired_count


@pytest.mark.parametrize("seed", [1, 6])
def test_run_torture_matches_replay(seed):
    result = torture(seed, keep_world=True)
    # Every Fig. 10 sample but the closing one is a kernel event.
    assert_parity(
        result, "torture", TORTURE, seed, sampled=len(result.series) - 1
    )


@pytest.mark.parametrize("placement", sorted(REGISTRIES))
def test_run_naming_matches_replay(placement):
    result = naming(2, placement, keep_world=True)
    assert_parity(
        result, "naming", NAMING, 2, registry=REGISTRIES[placement]
    )


@pytest.mark.parametrize("kernel", sorted(NAS))
def test_run_nas_kernel_matches_replay(kernel):
    result = nas(kernel, 3, keep_world=True)
    assert_parity(result, "nas", dict(kernel=kernel, **NAS[kernel]), 3)


def test_run_torture_without_dgc_matches_replay():
    result = torture(6, dgc=None, keep_world=True)
    assert not result.all_collected and result.last_collected_s is None
    assert_parity(
        result, "torture", TORTURE, 6, sampled=len(result.series) - 1,
        dgc=None,
    )


@pytest.mark.parametrize("placement", sorted(REGISTRIES))
def test_run_naming_without_dgc_matches_replay(placement):
    result = naming(2, placement, dgc=None, keep_world=True)
    assert_parity(
        result, "naming", NAMING, 2, registry=REGISTRIES[placement],
        dgc=None,
    )


@pytest.mark.parametrize(
    "kernel, with_dgc, barrier",
    [("FT", False, False), ("CG", True, True), ("CG", False, True)],
    ids=["ft-no-dgc", "cg-barrier", "cg-barrier-no-dgc"],
)
def test_run_nas_kernel_variants_match_replay(kernel, with_dgc, barrier):
    dgc = DGC if with_dgc else None
    result = nas(kernel, 3, dgc=dgc, barrier=barrier, keep_world=True)
    if dgc is None:
        assert result.dgc_time_s == 0.0
        assert result.world.stats.terminated_explicit == result.ao_count
    assert_parity(
        result, "nas",
        dict(kernel=kernel, reply_barrier=barrier, **NAS[kernel]), 3,
        dgc=dgc,
    )
