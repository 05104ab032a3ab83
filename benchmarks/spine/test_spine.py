"""Self-tests of the spine benchmark (``pytest benchmarks/spine``; not tier-1).

They check the benchmark, not the program: names fit the contract, exact
metrics repeat between two fresh interpreters, layer shares sum to one, a
counter the program stops exposing reads as missing instead of crashing, and
a broken outcome is counted as failed operations.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def smoke_report(workload: str, tmp_path) -> dict:
    path = tmp_path / f"{workload}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--json", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.END_TO_END)
    report = json.loads(path.read_text())
    path.unlink()
    return report


def test_names_and_units_fit_the_contract(contract):
    names = list(SCENARIOS) + list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    units = list(run.END_TO_END.values()) + list(run.PER_LAYER.values())
    assert all(UNIT.match(unit) for unit in units), units


def test_benchmark_json_matches_the_runner(contract):
    assert [w["name"] for w in contract["workloads"]] == list(SCENARIOS)
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        higher = metric["name"] in run.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower"), metric
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])


@pytest.mark.parametrize("workload", list(SCENARIOS))
def test_two_smoke_runs_agree_exactly(workload, tmp_path):
    first = smoke_report(workload, tmp_path)
    second = smoke_report(workload, tmp_path)
    assert first["counters"] == second["counters"]
    for group in ("end_to_end", "per_layer"):
        for name, metric in first[group].items():
            if run.is_exact(name):
                other = second[group][name]["value"]
                assert run.repeats(name, metric["value"], other), name
    share = sum(
        first["per_layer"][f"{layer}.cpu_share"]["value"] for layer in layers.LAYERS
    )
    assert abs(share - 1.0) <= 0.02
    ran = {
        layer for layer in ("net.wire", "live.kernel")
        if first["per_layer"][f"{layer}.cpu_share"]["value"] > 0
    }
    assert ran == ({"net.wire", "live.kernel"} if workload == "sharded2" else set())


def test_layer_of_maps_files_to_layers():
    assert layers.layer_of("/x/src/repro/net/network.py") == "net.network"
    assert layers.layer_of("/x/src/repro/net/kinds.py") == "net.other"
    assert layers.layer_of("/x/src/repro/workloads/nas/common.py") == "workloads"
    assert layers.layer_of("/x/src/repro/world.py") == "world"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") == "stdlib"
    assert layers.layer_of("/x/src/repro/harness/report.py") == "stdlib"


def test_fold_charges_builtins_to_the_caller_and_splits_waits():
    kernel = ("/x/src/repro/sim/kernel.py", 10, "run")
    recv = ("/usr/lib/python3.11/multiprocessing/connection.py", 5, "recv")
    stats = {
        kernel: (1, 1, 2.0, 6.0, {}),
        recv: (3, 3, 0.5, 3.5, {kernel: (3, 3, 0.5, 3.5)}),
        ("~", 0, "<built-in method _heapq.heappop>"): (
            4, 4, 1.0, 1.0, {kernel: (4, 4, 1.0, 1.0)}),
        ("~", 0, "<built-in method posix.read>"): (
            3, 3, 3.0, 3.0, {recv: (3, 3, 3.0, 3.0)}),
    }
    records = layers.fold(stats)
    assert records["sim.kernel"]["calls"] == 5 and records["sim.kernel"]["self_s"] == 3.0
    assert records["stdlib"] == {
        "calls": 6, "self_s": 0.5, "blocked_s": 3.0,
        "entered": {"sim.kernel": {"calls": 3, "inclusive_s": 3.5}},
    }
    assert sum(r["calls"] for r in records.values()) == sum(row[1] for row in stats.values())
    assert layers.blocked_share(records) == pytest.approx(3.0 / 6.5)
    assert sum(layers.shares(layers.merge([records])).values()) == pytest.approx(1.0)


def test_a_missing_counter_reads_null_and_is_listed():
    counters = rep.world_counters(types.SimpleNamespace(), types.SimpleNamespace())
    assert set(counters.values()) == {None}
    derived = run.counter_metrics(counters, None, naming=True, sharded=False)
    assert derived.values["sim.kernel.events_per_op"] is None
    assert "sim.kernel.events_per_op" in derived.missing
    assert "runtime.registry.cache_hit_share" in derived.missing
    assert "net.wire.frame_bytes" in derived.not_applicable
    assert set(rep.sharded_counters(types.SimpleNamespace()).values()) == {None}


def _rep(**counters) -> rep.Rep:
    base = {"messages": 100, "live": 0, "safety_violations": 0, "dead_letters": 0}
    return rep.Rep(1.0, 1.0, 0.0, 0.0, 0.0, {**base, **counters}, signature=("sig",))


def test_broken_outcomes_are_counted_as_failed_ops():
    good = _rep()
    assert rep.audit("rep 1", _rep(), good, "messages", False) == (100, 0, [])
    attempted, failed, why = rep.audit("rep 1", _rep(live=2), good, "messages", False)
    assert (attempted, failed) == (100, 100) and "live = 2" in why[0]
    # Checked against itself, an uncollected activity fails only itself.
    uncollected = _rep(live=2)
    assert rep.audit("rep 0", uncollected, uncollected, "messages", False)[1] == 2
    other = _rep()
    other.signature = ("other",)
    attempted, failed, why = rep.audit("rep 2", other, good, "messages", False)
    assert failed == 100 and "outcome signature" in why[0] and "rep 2" in why[0]
    timed_out = rep.Rep(1.0, 1.0, None, 0.0, None, {}, error="SimulationError: timed out")
    assert rep.audit("rep 3", timed_out, good, "messages", False)[1] == 100
    unresolved = _rep(resolves_issued=10, resolves_completed=7, binds=0, unbinds=0)
    assert ("resolves_issued - resolves_completed", 3) in rep.failed_ops(
        unresolved.counters, naming=True
    )
