"""The resident-state view of benchmarks/compare_spine.py."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_module():
    spec = importlib.util.spec_from_file_location(
        "compare_spine", os.path.join(ROOT, "benchmarks", "compare_spine.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reports(values):
    return {
        ("nas_ft", seed): {"end_to_end": {"peak_rss_mb": {"value": value}}}
        for seed, value in values.items()
    }


def test_resident_table_says_whether_every_change_run_is_below_every_parent_run():
    table = load_module().resident_table
    parent = reports({"default": 76.0, "1": 75.9, "2": 76.1})
    lines = table(parent, reports({"default": 57.7, "1": 58.1, "2": 57.3}))
    assert lines[2] == (
        "| `nas_ft` | 3 | 76.00 (75.90-76.10) | 57.70 (57.30-58.10) | -24.1 % | yes |"
    )
    # One change run at or above the parent's lowest run fails the test.
    lines = table(parent, reports({"default": 57.7, "1": 75.9, "2": 57.3}))
    assert lines[2].endswith("| no |")
    # Workloads without reports on both sides get no row.
    assert len(table(parent, {})) == 2
