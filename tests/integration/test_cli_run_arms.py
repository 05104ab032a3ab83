"""``harness run`` and ``harness run --live``: one setup, two arms.

Both arms take the workload parameters, the DGC config and the
registry config from one helper, so a knob reaches the single-process
runner and the sharded world alike.  The ``--live`` runs here fork two
shard workers at small sizes.
"""

import pytest

import repro.shard
import repro.workloads.nas
import repro.workloads.torture
from repro.harness.__main__ import main as harness_main

SMALL_DGC = ["--ttb", "2", "--tta", "6", "--nodes", "4"]


class Captured(Exception):
    """Raised by a stubbed runner, carrying the arguments it got."""


def capture(monkeypatch, module, name):
    def stub(*args, **kwargs):
        raise Captured(args, kwargs)

    monkeypatch.setattr(module, name, stub)


def captured_call(argv):
    with pytest.raises(Captured) as caught:
        harness_main(argv)
    return caught.value.args


def test_paper_scale_reaches_the_torture_arms(monkeypatch):
    capture(monkeypatch, repro.workloads.torture, "run_torture")
    capture(monkeypatch, repro.shard, "ShardedWorld")
    _, single = captured_call(
        ["run", "--workload", "torture", "--paper-scale"]
    )
    assert single["slave_count"] == 6400
    assert len(single["topology"].nodes) == 128
    (topology, shards), live = captured_call(
        ["run", "--workload", "torture", "--paper-scale", "--live"]
    )
    assert live["params"]["slave_count"] == 6400
    assert len(topology.nodes) == 128
    assert shards == 2


def test_paper_scale_reaches_the_nas_arms(monkeypatch):
    capture(monkeypatch, repro.workloads.nas, "run_nas_kernel")
    capture(monkeypatch, repro.shard, "ShardedWorld")
    (spec,), single = captured_call(
        ["run", "--workload", "nas:cg", "--paper-scale"]
    )
    assert spec.ao_count == 256
    assert len(single["topology"].nodes) == 128
    (topology, _), live = captured_call(
        ["run", "--workload", "nas:cg", "--paper-scale", "--shards", "3"]
    )
    assert live["params"]["ao_count"] == 256
    assert len(topology.nodes) == 128


def test_cli_overrides_reach_both_arms(monkeypatch):
    capture(monkeypatch, repro.workloads.torture, "run_torture")
    capture(monkeypatch, repro.shard, "ShardedWorld")
    flags = ["run", "--ttb", "3", "--tta", "9", "--beat-slots", "4"]
    _, single = captured_call(flags)
    _, live = captured_call(flags + ["--live"])
    for dgc in (single["dgc"], live["dgc"]):
        assert (dgc.ttb, dgc.tta, dgc.beat_slots) == (3.0, 9.0, 4)


@pytest.mark.parametrize(
    "argv",
    [
        ["--workload", "torture", "--slaves", "8", "--duration", "10"],
        ["--workload", "naming", "--clients", "4", "--services", "3",
         "--duration", "20"],
        ["--workload", "nas:ft", "--ao-count", "4", "--iterations", "2",
         "--iter-time", "2"],
    ],
    ids=["torture", "naming", "nas-ft"],
)
def test_cli_run_live_two_shards(argv, capsys):
    code = harness_main(["run", "--live", "--shards", "2"] + SMALL_DGC + argv)
    assert code == 0
    output = capsys.readouterr().out
    assert "sharded live world (2 processes)" in output
    assert "| shards x nodes             | 2 x 4" in output
    assert "dead letters               | 0 " in output


def test_cli_run_live_keeps_the_lease_note(capsys):
    code = harness_main(
        ["run", "--live", "--workload", "naming", "--clients", "4",
         "--services", "3", "--duration", "20",
         "--registry-placement", "replicated", "--lease-ttb", "2"]
        + SMALL_DGC
    )
    assert code == 0
    assert "--lease-ttb has no effect" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--no-dgc", "--workload", "torture", "--slaves", "8",
         "--duration", "10"],
        ["--workload", "nas:cg", "--nas-barrier", "--ao-count", "4",
         "--iterations", "2", "--iter-time", "2"],
    ],
    ids=["no-dgc", "nas-barrier"],
)
def test_cli_run_live_runs_every_ending(argv, capsys):
    code = harness_main(["run", "--live"] + SMALL_DGC + argv)
    assert code == 0
    output = capsys.readouterr().out
    assert "sharded live world (2 processes)" in output
    assert "dead letters               | 0 " in output


def test_nas_barrier_reaches_both_arms(monkeypatch):
    capture(monkeypatch, repro.workloads.nas, "run_nas_kernel")
    capture(monkeypatch, repro.shard, "ShardedWorld")
    flags = ["run", "--workload", "nas:cg", "--nas-barrier"]
    (spec,), _ = captured_call(flags)
    _, live = captured_call(flags + ["--live"])
    assert spec.reply_barrier
    assert live["params"]["reply_barrier"] is True


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--aggregation", "per-event"], "drop --aggregation per-event"),
    ],
    ids=["per-event"],
)
def test_cli_run_live_rejections(argv, reason, capsys):
    assert harness_main(["run", "--live"] + argv) == 2
    assert reason in capsys.readouterr().err
