"""Tests for the DISC-invariant lint engine (repro.analysis).

Covers the per-rule fixtures under ``tests/fixtures/lint/``, suppression
comments, the JSON reporter shape, the CLI exit codes — and the gate
itself: the engine must report zero findings over ``src/repro``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_sarif,
    render_text,
    rule_catalog,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint" / "repro"


def findings_of(path: Path) -> list[tuple[str, int]]:
    return [(f.rule_id, f.line) for f in lint_file(path)]


class TestGate:
    """The repo's own source must stay lint-clean (the pytest gate)."""

    def test_src_is_clean(self):
        findings, checked = lint_paths([SRC])
        assert checked > 50
        assert findings == [], "\n".join(f.render() for f in findings)


class TestRuleFixtures:
    def test_disc001_counting_in_loop(self):
        found = findings_of(FIXTURES / "core" / "disc.py")
        assert found == [("DISC001", 12), ("DISC001", 13)]

    def test_disc002_default_ordered_sorts(self):
        found = findings_of(FIXTURES / "core" / "bad_sort.py")
        assert found == [("DISC002", 9), ("DISC002", 10)]

    def test_disc003_canonical_mutation(self):
        found = findings_of(FIXTURES / "core" / "bad_mutation.py")
        assert [rule for rule, _ in found] == ["DISC003", "DISC003", "DISC003"]
        assert [line for _, line in found] == [11, 15, 16]

    def test_disc004_dataclass_slots(self):
        found = findings_of(FIXTURES / "core" / "bad_dataclass.py")
        assert found == [("DISC004", 11), ("DISC004", 16)]

    def test_disc005_silent_except(self):
        found = findings_of(FIXTURES / "mining" / "bad_except.py")
        assert [rule for rule, _ in found] == ["DISC005", "DISC005"]

    def test_service_layer_fixture(self):
        found = findings_of(FIXTURES / "service" / "bad_service.py")
        assert [rule for rule, _ in found] == ["DISC002", "DISC005"]
        assert found[0][1] == 11  # the default-ordered sort

    def test_disc006_stdout_telemetry(self):
        found = findings_of(FIXTURES / "core" / "bad_print.py")
        # the logging imports and both print() calls; the obs-API call
        # in between stays clean
        assert found == [
            ("DISC006", 8),
            ("DISC006", 9),
            ("DISC006", 13),
            ("DISC006", 17),
        ]

    def test_disc007_adhoc_fault_flags(self):
        found = findings_of(FIXTURES / "service" / "bad_faults.py")
        assert [rule for rule, _ in found] == ["DISC007"] * 5
        assert [line for _, line in found] == [9, 10, 14, 16, 18]

    def test_disc007_exempts_the_faults_module(self):
        source = (
            "import os\n"
            "TESTING = os.getenv('REPRO_FAULTS')\n"
            "if TESTING:\n"
            "    pass\n"
        )
        assert lint_source(source, path="repro/faults.py") == []
        assert lint_source(source, path="repro/core/x.py") != []

    def test_lint001_unknown_suppression_id(self):
        found = findings_of(FIXTURES / "core" / "bad_allow.py")
        # the typo'd id suppresses nothing: the sort fires AND is reported
        assert ("LINT001", 9) in found
        assert ("DISC002", 9) in found

    def test_clean_fixture(self):
        assert findings_of(FIXTURES / "core" / "clean.py") == []

    def test_suppressed_fixture(self):
        assert findings_of(FIXTURES / "core" / "suppressed.py") == []

    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("core/disc.py", "DISC001"),
            ("core/suppressed.py", "DISC002"),
            ("core/bad_mutation.py", "DISC003"),
            ("core/bad_dataclass.py", "DISC004"),
            ("mining/bad_except.py", "DISC005"),
            ("core/bad_print.py", "DISC006"),
            ("service/bad_faults.py", "DISC007"),
            ("core/bad_allow.py", "LINT001"),
        ],
    )
    def test_suppressed_twin_fires_without_its_comment(self, fixture, rule):
        # each fixture carries a violation silenced by allow[RULE]; the
        # exact-findings tests above prove it silent, this proves it real
        path = FIXTURES / fixture
        source = path.read_text(encoding="utf-8")
        assert f"allow[{rule}" in source

        def count(text: str) -> int:
            found = lint_source(text, path=str(path))
            return sum(finding.rule_id == rule for finding in found)

        assert count(source.replace(f"allow[{rule}", "allow[NOPE000")) > count(
            source
        )


class TestScoping:
    """Rules apply only inside their declared path scopes."""

    def test_disc002_ignores_out_of_scope_modules(self):
        source = "def f(xs):\n    return sorted(xs)\n"
        assert lint_source(source, path="repro/db/helper.py") == []
        in_scope = lint_source(source, path="repro/core/helper.py")
        assert [f.rule_id for f in in_scope] == ["DISC002"]

    def test_disc002_and_disc005_cover_the_service_layer(self):
        sort = "def f(xs):\n    return sorted(xs)\n"
        assert [f.rule_id for f in lint_source(sort, path="repro/service/x.py")] == [
            "DISC002"
        ]
        swallow = "def f(g):\n    try:\n        g()\n    except:\n        pass\n"
        found = lint_source(swallow, path="repro/service/x.py")
        assert "DISC005" in [f.rule_id for f in found]

    def test_disc001_applies_only_to_disc_modules(self):
        source = (
            "def f(entries, CountingArray):\n"
            "    while entries:\n"
            "        CountingArray(())\n"
            "        entries = entries[1:]\n"
        )
        assert lint_source(source, path="repro/core/dynamic.py") != []
        assert lint_source(source, path="repro/core/avl.py") == []

    def test_counting_outside_loop_is_sanctioned(self):
        source = (
            "def bilevel(group, CountingArray):\n"
            "    array = CountingArray(())\n"
            "    array.observe_all(group)\n"
            "    return array\n"
        )
        assert lint_source(source, path="repro/core/disc.py") == []


class TestSuppression:
    def test_same_line(self):
        source = "def f(xs):\n    return sorted(xs)  # repro: allow[DISC002]\n"
        assert lint_source(source, path="repro/core/x.py") == []

    def test_standalone_line_above(self):
        source = (
            "def f(xs):\n"
            "    # repro: allow[DISC002] — scalars\n"
            "    return sorted(xs)\n"
        )
        assert lint_source(source, path="repro/core/x.py") == []

    def test_wrong_rule_id_does_not_suppress(self):
        source = "def f(xs):\n    return sorted(xs)  # repro: allow[DISC005]\n"
        assert [f.rule_id for f in lint_source(source, path="repro/core/x.py")] == [
            "DISC002"
        ]

    def test_multiple_ids_in_one_comment(self):
        source = (
            "def f(xs):\n"
            "    return sorted(xs)  # repro: allow[DISC002, DISC005]\n"
        )
        assert lint_source(source, path="repro/core/x.py") == []

    def test_suppression_does_not_leak_to_other_lines(self):
        source = (
            "def f(xs):\n"
            "    a = sorted(xs)  # repro: allow[DISC002]\n"
            "    b = sorted(xs)\n"
            "    return a, b\n"
        )
        assert [(f.rule_id, f.line) for f in lint_source(source, path="repro/core/x.py")] == [
            ("DISC002", 3)
        ]


class TestEngineEdges:
    def test_syntax_error_is_a_finding(self):
        found = lint_source("def broken(:\n", path="repro/core/x.py")
        assert [f.rule_id for f in found] == ["LINT000"]

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            lint_source("x = 1\n", path="repro/core/x.py", rule_ids=["NOPE001"])

    def test_rule_selection_restricts_to_named_rules(self):
        source = "def f(xs):\n    return sorted(xs)\n"
        assert (
            lint_source(source, path="repro/core/x.py", rule_ids=["DISC004"]) == []
        )

    def test_catalog_has_documented_rules(self):
        catalog = rule_catalog()
        for rule_id in ("DISC001", "DISC002", "DISC003", "DISC004", "DISC005",
                        "DISC006", "DISC007", "LINT001"):
            assert rule_id in catalog
            assert catalog[rule_id].title
            assert catalog[rule_id].rationale


class TestReporters:
    def _findings(self) -> list[Finding]:
        return lint_file(FIXTURES / "core" / "bad_sort.py")

    def test_text_has_rule_id_and_position(self):
        found = self._findings()
        text = render_text(found, files_checked=1)
        assert "bad_sort.py:9:" in text
        assert "DISC002" in text
        assert "2 finding(s) in 1 file" in text

    def test_text_clean_summary(self):
        assert render_text([], files_checked=3) == "clean: 3 files, 0 findings"

    def test_json_shape(self):
        found = self._findings()
        payload = json.loads(render_json(found, files_checked=1))
        assert payload["format"] == "repro.lint-report"
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"DISC002": 2}
        assert len(payload["findings"]) == 2
        first = payload["findings"][0]
        assert set(first) == {"rule_id", "path", "line", "col", "message"}
        assert first["rule_id"] == "DISC002"
        assert first["line"] == 9

    def test_sarif_shape(self):
        found = self._findings()
        payload = json.loads(render_sarif(found, files_checked=1))
        assert payload["version"] == "2.1.0"
        assert "sarif-2.1.0" in payload["$schema"]
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rules = {rule["id"]: rule for rule in run["tool"]["driver"]["rules"]}
        assert "DISC002" in rules and "LINT000" in rules
        assert rules["DISC002"]["shortDescription"]["text"]
        result = run["results"][0]
        assert result["ruleId"] == "DISC002"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 9
        assert region["startColumn"] >= 1


class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_violating_fixture_exits_nonzero(self, capsys):
        path = FIXTURES / "core" / "bad_sort.py"
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DISC002" in out
        assert "bad_sort.py:9:" in out

    def test_every_violating_fixture_fails_the_cli(self):
        for name in ("core/disc.py", "core/bad_sort.py", "core/bad_mutation.py",
                     "core/bad_dataclass.py", "mining/bad_except.py",
                     "core/bad_allow.py", "core/bad_print.py",
                     "service/bad_service.py", "service/bad_faults.py"):
            assert main(["lint", str(FIXTURES / name)]) == 1, name

    def test_json_format(self, capsys):
        path = FIXTURES / "mining" / "bad_except.py"
        assert main(["lint", "--format", "json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DISC005": 2}

    def test_rules_filter(self, capsys):
        path = FIXTURES / "core" / "bad_sort.py"
        assert main(["lint", "--rules", "DISC004", str(path)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DISC001" in out and "DISC005" in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, capsys):
        broken = REPO_ROOT / "tests" / "fixtures" / "check" / "broken"
        assert main(["lint", str(broken)]) == 2
        assert "LINT000" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(self, capsys):
        assert main(["lint", "--rules", "NOPE001", str(SRC)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_sarif_format(self, capsys):
        path = FIXTURES / "core" / "bad_sort.py"
        assert main(["lint", "--format", "sarif", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"][0]["ruleId"] == "DISC002"
