"""The fabric-invariant analyzer: fixture corpus, self-check, CLI.

The corpus under ``tests/fixtures/analysis/`` annotates every seeded
violation with an ``# expect[RULE-id]`` marker (comma lists for lines
carrying several).  The contract is exact set equality between markers
and findings, so every *unmarked* line doubles as a negative case: a
rule that over-fires breaks the test just as loudly as one that stays
silent.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.analysis import all_rule_ids, run_analysis
from repro.analysis.__main__ import main
from repro.analysis.facts import build_facts
from repro.analysis.walker import META_PARSE, META_SUPPRESSION, SourceFile

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
        every_rule = set(all_rule_ids()) | {META_PARSE, META_SUPPRESSION}
        assert marker_rules == every_rule, (
            f"corpus gaps: {sorted(every_rule - marker_rules)}; "
            f"unknown markers: {sorted(marker_rules - every_rule)}"
        )

    def test_reasoned_suppressions_are_counted(self):
        result, _ = _corpus_findings()
        # suppress.py silences two findings (trailing + alone-on-line).
        assert result.suppressed_count >= 2

    def test_rule_filter_narrows_the_run(self):
        result = run_analysis(
            [str(FIXTURES)], rules=["DET-entropy"], force_scope=True
        )
        assert result.rules_run == ("DET-entropy",)
        assert {f.rule for f in result.findings} == {"DET-entropy"}
        expected = {
            (name, line)
            for (name, line, rule) in _expected_markers()
            if rule == "DET-entropy"
        }
        assert {(f.path, f.line) for f in result.findings} == expected

    def test_unknown_rule_id_is_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis([str(FIXTURES)], rules=["DET-bogus"])


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
        # The triaged allowances (rng router, reporting-only wall-clock,
        # tracer event names, SPMD ghost arms, Network monkeypatching)
        # are suppressions, not silence.
        assert result.suppressed_count >= 10

    def test_kind_codec_rule_finds_the_real_codec(self):
        """KIND-codec yields nothing when no file looks like the codec,
        so "clean" alone cannot tell a covered tree from a blind rule:
        pin that the real tree's codec is detected and non-trivial."""
        files = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            rel = path.relative_to(SRC_REPRO).as_posix()
            files.append(SourceFile(path, rel, text, ast.parse(text)))
        codec = build_facts(files).codec
        assert codec is not None and codec.path == "net/wire.py"
        for names in codec.function_sets().values():
            assert {"DgcMessage", "DgcResponse", "Request"} <= names


class TestCli:
    def test_findings_exit_one_and_name_the_rule(self, capsys):
        code = main([str(FIXTURES / "det_entropy.py"), "--force-scope"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DET-entropy" in captured.out
        assert "det_entropy.py" in captured.out

    def test_json_format_schema(self, capsys):
        code = main(
            [str(FIXTURES / "det_entropy.py"), "--force-scope",
             "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["DET-entropy"] == len(
            [f for f in payload["findings"] if f["rule"] == "DET-entropy"]
        ) > 0

    def test_rule_filter_flag(self, capsys):
        matching = main(
            [str(FIXTURES / "hot_slots.py"), "--force-scope",
             "--rule", "HOT-slots"]
        )
        capsys.readouterr()
        non_matching = main(
            [str(FIXTURES / "hot_slots.py"), "--force-scope",
             "--rule", "DET-entropy"]
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

    def test_list_rules(self, capsys):
        code = main(["--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        for rule_id in all_rule_ids():
            assert rule_id in captured.out
        assert META_PARSE in captured.out

    def test_clean_tree_within_budget_exits_zero(self, capsys):
        code = main([str(SRC_REPRO), "--budget-seconds", "10"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean" in captured.out


class TestHarnessAnalyze:
    """``python -m repro.harness analyze`` delegates to the analyzer."""

    def test_findings_exit_one(self, capsys):
        from repro.harness.__main__ import main as harness_main

        code = harness_main(
            ["analyze", str(FIXTURES / "det_entropy.py"), "--force-scope"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "DET-entropy" in captured.out

    def test_rule_and_format_filters_pass_through(self, capsys):
        from repro.harness.__main__ import main as harness_main

        code = harness_main(
            ["analyze", str(FIXTURES / "hot_slots.py"), "--force-scope",
             "--rule", "HOT-slots", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["rules_run"] == ["HOT-slots"]
        assert payload["counts"] == {"HOT-slots": 1}

    def test_clean_source_exits_zero(self, capsys):
        from repro.harness.__main__ import main as harness_main

        code = harness_main(["analyze", str(SRC_REPRO)])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean" in captured.out
