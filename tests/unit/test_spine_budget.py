"""The CI ratchet on the spine's exact count (benchmarks/spine_budget.py)."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_module():
    spec = importlib.util.spec_from_file_location(
        "spine_budget", os.path.join(ROOT, "benchmarks", "spine_budget.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_budget_covers_every_benchmark_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = {w["name"] for w in json.load(handle)["workloads"]}
    with open(load_module().BUDGET_PATH) as handle:
        budget = json.load(handle)
    assert set(budget["calls_per_op"]) == workloads
    assert budget["tolerance"] == 0.02
    assert all(value > 0 for value in budget["calls_per_op"].values())


def test_check_fails_only_beyond_the_tolerance():
    check = load_module().check
    budget = {"tolerance": 0.02, "calls_per_op": {"a": 10.0, "b": 20.0}}
    lines, ok = check(budget, {"a": (10.19, 0), "b": (12.0, 0)})
    assert ok and not any("OVER" in line for line in lines)
    lines, ok = check(budget, {"a": (10.21, 0), "b": (20.0, 0)})
    assert not ok
    assert [line for line in lines if "OVER BUDGET" in line][0].startswith("a ")
    # A workload without a report, or a report without a budget, fails.
    assert not check(budget, {"a": (10.0, 0)})[1]
    assert not check(budget, {"a": (10.0, 0), "b": (20.0, 0), "c": (1.0, 0)})[1]
