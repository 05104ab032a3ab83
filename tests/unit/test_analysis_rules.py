"""The hot-path analyzer: fixture corpus, self-check, CLI.

The corpus under ``tests/fixtures/analysis/`` annotates every seeded
violation with an ``# expect[RULE-id]`` marker (comma lists for lines
carrying several).  The contract is exact set equality between markers
and findings, so every *unmarked* line doubles as a negative case: a
rule that over-fires breaks the test just as loudly as one that stays
silent.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import all_rule_ids, run_analysis
from repro.analysis.__main__ import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "analysis"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

_EXPECT_RE = re.compile(r"expect\[([A-Za-z0-9_,\s-]+)\]")


def _expected_markers():
    """(filename, line, rule) for every ``# expect[...]`` in the corpus."""
    markers = set()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _EXPECT_RE.search(line)
            if match is None:
                continue
            for rule in match.group(1).split(","):
                markers.add((path.name, lineno, rule.strip()))
    return markers


def _corpus_findings():
    result = run_analysis([str(FIXTURES)], force_scope=True)
    return result, {(f.path, f.line, f.rule) for f in result.findings}


class TestFixtureCorpus:
    def test_findings_match_expect_markers_exactly(self):
        result, found = _corpus_findings()
        expected = _expected_markers()
        missing = expected - found
        spurious = found - expected
        assert not missing and not spurious, (
            f"marker/finding mismatch:\n"
            f"  expected but not found: {sorted(missing)}\n"
            f"  found but not expected: {sorted(spurious)}\n"
            f"  all findings: "
            f"{[f.location() + ' ' + f.rule for f in result.findings]}"
        )

    def test_corpus_exercises_every_rule(self):
        marker_rules = {rule for (_, _, rule) in _expected_markers()}
        assert marker_rules == set(all_rule_ids()), (
            f"corpus gaps: {sorted(set(all_rule_ids()) - marker_rules)}; "
            f"unknown markers: {sorted(marker_rules - set(all_rule_ids()))}"
        )

    def test_reasoned_suppressions_are_counted(self):
        result, _ = _corpus_findings()
        # suppress.py silences two findings (trailing + alone-on-line).
        assert result.suppressed_count == 2

    def test_rule_filter_narrows_the_run(self):
        result = run_analysis(
            [str(FIXTURES)], rules=["HOT-slots"], force_scope=True
        )
        assert result.rules_run == ("HOT-slots",)
        expected = {
            (name, line)
            for (name, line, rule) in _expected_markers()
            if rule == "HOT-slots"
        }
        assert {(f.path, f.line) for f in result.findings} == expected

    def test_unknown_rule_id_is_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis([str(FIXTURES)], rules=["DET-entropy"])


class TestHeadOfTree:
    def test_src_repro_is_clean(self):
        result = run_analysis([str(SRC_REPRO)])
        assert result.clean, (
            "src/repro must analyze clean; findings:\n"
            + "\n".join(
                f"  {f.location()}  {f.rule}  {f.message}"
                for f in result.findings
            )
        )
        assert result.files_scanned > 50
        # ``Network`` is unslotted on purpose, and says why.
        assert result.suppressed_count == 1

    def test_hot_tag_scopes_the_slots_rule(self, tmp_path):
        """Scoping keeps the rules quiet on cold code: a class without
        slots is flagged once its module carries the tag."""
        text = (SRC_REPRO / "runtime" / "future.py").read_text()
        unslotted = text.replace("    __slots__ = (", "    _fields = (", 1)
        target = tmp_path / "repro" / "runtime" / "future.py"
        target.parent.mkdir(parents=True)
        target.write_text(unslotted)
        result = run_analysis([str(tmp_path)])
        assert [(f.path, f.rule) for f in result.findings] == [
            ("repro/runtime/future.py", "HOT-slots")
        ]
        target.write_text(unslotted.replace("# repro: hot-path", "#"))
        assert run_analysis([str(tmp_path)]).clean


class TestCli:
    def test_findings_exit_one_and_name_the_rule(self, capsys):
        code = main([str(FIXTURES / "hot_slots.py"), "--force-scope"])
        captured = capsys.readouterr()
        assert code == 1
        assert "HOT-slots" in captured.out
        assert "hot_slots.py" in captured.out

    def test_json_format_schema(self, capsys):
        code = main(
            [str(FIXTURES / "hot_closure.py"), "--force-scope",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["HOT-closure"] == len(
            [f for f in payload["findings"] if f["rule"] == "HOT-closure"]
        ) > 0

    def test_rule_filter_flag(self, capsys):
        matching = main(
            [str(FIXTURES / "hot_slots.py"), "--force-scope",
             "--rule", "HOT-slots"]
        )
        capsys.readouterr()
        non_matching = main(
            [str(FIXTURES / "hot_slots.py"), "--force-scope",
             "--rule", "HOT-closure"]
        )
        captured = capsys.readouterr()
        assert matching == 1
        assert non_matching == 0
        assert "clean" in captured.out

    def test_unknown_rule_exits_two(self, capsys):
        code = main([str(FIXTURES), "--rule", "DET-bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule" in captured.err

    def test_missing_path_exits_two(self, capsys):
        code = main([str(FIXTURES / "no_such_file.py")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such file" in captured.err

    def test_file_that_does_not_parse_exits_two(self, capsys, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n    return None\n")
        code = main([str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "broken.py:1: does not parse" in captured.err

    def test_package_module_that_does_not_parse_exits_two(self, tmp_path):
        # The entry point imports the ``repro`` package it analyzes: a
        # syntax error in a module that package used to import eagerly
        # must still be a report (exit 2, file and line), not a
        # traceback.  The run imports the broken copy, not this tree.
        copy = tmp_path / "repro"
        shutil.copytree(SRC_REPRO, copy, ignore=shutil.ignore_patterns("__pycache__"))
        collector = copy / "core" / "collector.py"
        lines = collector.read_text(encoding="utf-8").splitlines(keepends=True)
        lineno = next(
            number for number, line in enumerate(lines, start=1)
            if line.startswith("    def on_dgc_message(")
        )
        lines[lineno - 1] = lines[lineno - 1].replace(") -> None:", ") -> None")
        collector.write_text("".join(lines), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        completed = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(copy)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert completed.returncode == 2, completed.stderr
        assert f"core/collector.py:{lineno}: does not parse" in completed.stderr

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        for rule_id in all_rule_ids():
            assert rule_id in captured.out

    def test_clean_tree_within_budget_exits_zero(self, capsys):
        code = main([str(SRC_REPRO), "--budget-seconds", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean" in captured.out
