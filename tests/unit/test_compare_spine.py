"""The resident-state and paired-timing views of benchmarks/compare_spine.py."""

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


def timed(values, steal=0.01):
    return {
        ("sharded2", seed): {
            "end_to_end": {"ops_per_cpu_s": {"value": value}},
            "per_layer": {"harness.steal_share": {"value": steal}},
        }
        for seed, value in values.items()
    }


def test_paired_table_reports_the_median_ratio_its_interval_and_each_pair():
    module = load_module()
    parent = timed({str(seed): 100.0 for seed in range(1, 12)})
    faster = timed({str(seed): 110.0 + seed for seed in range(1, 12)}, steal=0.02)
    lines = module.paired_table(parent, faster)
    # Eleven pairs, every one won: the interval excludes 1.0.
    assert lines[2].startswith("| `sharded2` | 11 | 11 | 1.160 | ")
    assert lines[2].endswith("| yes |")
    pair = next(line for line in lines if line.startswith("| `sharded2` | 3 |"))
    assert pair == "| `sharded2` | 3 | 100.00 | 113.00 | 1.130 | 1.0 % | 2.0 % |"
    # Ratios on both sides of 1.0: the interval covers it.  Six pairs are
    # won, four lost and one (seed 5) tied, which neither side wins.
    mixed = timed({str(seed): 95.0 + seed for seed in range(1, 12)})
    assert module.paired_table(parent, mixed)[2].startswith("| `sharded2` | 11 | 6 | ")
    assert module.paired_table(parent, mixed)[2].endswith("| no |")
    # The parent winning every pair leaves the change none.
    slower = timed({str(seed): 90.0 for seed in range(1, 12)})
    assert module.paired_table(parent, slower)[2].startswith("| `sharded2` | 11 | 0 | ")
    # The interval is a pure function of the reports.
    assert module.paired_table(parent, mixed) == module.paired_table(parent, mixed)


def test_paired_table_pairs_only_the_seeds_run_on_both_sides():
    module = load_module()
    parent = timed({str(seed): 100.0 for seed in range(1, 6)})
    # Seed 5 is missing on the change side and seed 9 on the parent's.
    change = timed({"1": 120.0, "2": 80.0, "3": 100.0, "4": 130.0, "9": 500.0})
    lines = module.paired_table(parent, change)
    # Four pairs: two won, one lost, one tied.
    assert lines[2].startswith("| `sharded2` | 4 | 2 | ")
    assert not any(line.startswith("| `sharded2` | 5 |") for line in lines)
    assert not any(line.startswith("| `sharded2` | 9 |") for line in lines)
    # No shared seed: both tables keep only their headers.
    empty = module.paired_table(parent, timed({"9": 500.0}))
    assert empty == lines[:2] + [""] + lines[4:6]
