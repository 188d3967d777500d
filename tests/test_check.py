"""Tests for the whole-program checker (repro check).

Covers the per-rule fixture packages under ``tests/fixtures/check/``,
the suppression hygiene of each rule, the reporters, the CLI exit codes
— and the gate itself: the checker must report zero findings over
``src/repro``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import check_paths, project_rule_catalog, render_sarif
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "check"


def findings_of(fixture: str, rule: str) -> list[tuple[str, int]]:
    findings, _ = check_paths([FIXTURES / fixture], rule_ids=[rule])
    return [(f.rule_id, f.line) for f in findings]


class TestGate:
    """The repo's own source must stay check-clean (the pytest gate)."""

    def test_src_is_clean(self):
        findings, checked = check_paths([SRC])
        assert checked > 50
        assert findings == [], "\n".join(f.render() for f in findings)


class TestConc001:
    def test_unguarded_access_and_undeclared_lock(self):
        # line 27: Store.size reads _items with no lock and no callers
        # holding it; line 33: Unannotated owns a lock, declares nothing.
        assert findings_of("conc001", "CONC001") == [
            ("CONC001", 27),
            ("CONC001", 33),
        ]

    def test_suppressed_access_stays_silent(self):
        # Store.peek (line 30) violates too but carries an allow comment.
        assert ("CONC001", 30) not in findings_of("conc001", "CONC001")

    def test_lexical_and_caller_held_accesses_are_clean(self):
        # Store.add (lexical with) and Store._drain_locked (every call
        # site holds the lock) produce nothing: only size/Unannotated.
        lines = [line for _, line in findings_of("conc001", "CONC001")]
        assert lines == [27, 33]

    def test_cluster_scope_is_gated_too(self):
        # membership-style lease tables under cluster/ are in scope:
        # LeaseTable.generation reads _records without the table lock,
        # while the locked register/drop/snapshot paths stay silent.
        assert findings_of("conc001_cluster", "CONC001") == [
            ("CONC001", 28),
        ]


class TestConc002:
    def test_opposite_order_cycle(self):
        # Deadlocker: a -> b lexically, b -> a through _locked_a().
        assert findings_of("conc002", "CONC002") == [("CONC002", 15)]

    def test_suppressed_cycle_stays_silent(self):
        # SuppressedDeadlocker has the same shape; its reported edge
        # (line 36) carries the allow comment.
        found = findings_of("conc002", "CONC002")
        assert all(line < 20 for _, line in found), found


class TestFlow002:
    def test_loop_without_checkpoint(self):
        assert findings_of("flow002", "FLOW002") == [("FLOW002", 30)]

    def test_lexical_and_transitive_checkpoints_are_clean(self):
        # polite() checkpoints lexically, indirect() through _step();
        # acknowledged() carries the allow comment.  Only rude() fires.
        lines = [line for _, line in findings_of("flow002", "FLOW002")]
        assert lines == [30]


class TestHot001:
    def test_registry_lookup_inside_the_loop(self):
        assert findings_of("hot001", "HOT001") == [("HOT001", 11)]

    def test_prefetched_handle_and_suppression_are_clean(self):
        # handle.add(1) is a pre-fetched mutator (allowed); the
        # acknowledged_loop lookup (line 19) carries the allow comment.
        lines = [line for _, line in findings_of("hot001", "HOT001")]
        assert lines == [11]


class TestWire001:
    def test_undeclared_event_and_undeclared_field(self):
        # line 7 emits a name outside contracts.EVENTS; line 8 passes a
        # field job.accepted never declared.
        assert findings_of("wire001", "WIRE001") == [
            ("WIRE001", 7),
            ("WIRE001", 8),
        ]

    def test_suppressed_twin_and_well_formed_site_are_clean(self):
        lines = [line for _, line in findings_of("wire001", "WIRE001")]
        assert 9 not in lines  # allow[WIRE001] twin
        assert 13 not in lines  # well-formed emit

    def test_rule_gates_on_the_manifest_marker(self, tmp_path):
        # fixture trees without a repro/contracts.py module opt out
        tree = tmp_path / "wire001"
        shutil.copytree(FIXTURES / "wire001", tree)
        (tree / "repro" / "contracts.py").unlink()
        findings, _ = check_paths([tree], rule_ids=["WIRE001"])
        assert findings == []


class TestWire003:
    def test_classify_with_a_local_retry_table(self):
        # classify() (line 14) walks its own copy of RETRYABLE_BY_CLASS
        # instead of calling contracts.is_retryable: the PR-10 drift
        assert findings_of("wire003", "WIRE003") == [("WIRE003", 14)]

    def test_suppressed_twin_is_silent(self, tmp_path):
        # the coordinator's _http_error (line 4) re-derives its default
        # the same way; only its allow comment keeps it quiet
        found, _ = check_paths([FIXTURES / "wire003"], rule_ids=["WIRE003"])
        assert not [f for f in found if f.path.endswith("coordinator.py")]
        tree = tmp_path / "wire003"
        shutil.copytree(FIXTURES / "wire003", tree)
        twin = tree / "repro" / "cluster" / "coordinator.py"
        twin.write_text(
            twin.read_text().replace("  # repro: allow[WIRE003]", "")
        )
        found, _ = check_paths([tree], rule_ids=["WIRE003"])
        assert [
            f.line for f in found if f.path.endswith("coordinator.py")
        ] == [4]

    def test_rule_gates_on_the_manifest_marker(self, tmp_path):
        # the same tree without its repro/contracts.py marker opts out
        tree = tmp_path / "wire003"
        shutil.copytree(FIXTURES / "wire003", tree)
        (tree / "repro" / "contracts.py").unlink()
        findings, _ = check_paths([tree], rule_ids=["WIRE003"])
        assert findings == []


class TestWire004:
    def test_undeclared_invariant_and_undeclared_site(self):
        # compare.py line 7 reads an invariant the registry never heard
        # of; pipeline.py line 7 produces it.
        assert findings_of("wire004", "WIRE004") == [
            ("WIRE004", 7),
            ("WIRE004", 7),
        ]

    def test_suppressed_twin_and_declared_metric_are_clean(self):
        found = findings_of("wire004", "WIRE004")
        assert len(found) == 2  # the allow'd site and the declared
        # disc.comparisons production stay silent

    def test_rule_gates_on_the_manifest_marker(self):
        # hot001 produces an undeclared 'disc.steps' counter on purpose
        assert findings_of("hot001", "WIRE004") == []


class TestCatalog:
    def test_every_project_rule_is_documented(self):
        catalog = project_rule_catalog()
        for rule_id in (
            "CONC001", "CONC002", "FLOW002", "HOT001",
            "WIRE001", "WIRE003", "WIRE004",
        ):
            assert rule_id in catalog
            assert catalog[rule_id].title
            assert catalog[rule_id].rationale

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            check_paths([FIXTURES / "conc001"], rule_ids=["NOPE001"])

    def test_family_prefix_selects_every_member(self):
        # --rules WIRE must reach every member: the wire001 fixture
        # fires under the family exactly as under the exact id.
        family, _ = check_paths([FIXTURES / "wire001"], rule_ids=["WIRE"])
        exact, _ = check_paths([FIXTURES / "wire001"], rule_ids=["WIRE001"])
        assert [f.rule_id for f in family] and family == exact


class TestCli:
    def test_check_src_exits_zero(self, capsys):
        assert main(["check", str(SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violating_fixture_exits_one(self, capsys):
        assert main(["check", str(FIXTURES / "conc001")]) == 1
        out = capsys.readouterr().out
        assert "CONC001" in out
        assert "state.py:27:" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["check", "does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unparseable_file_exits_two(self, capsys):
        assert main(["check", str(FIXTURES / "broken")]) == 2
        assert "LINT000" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["check", "--rules", "NOPE001", str(SRC)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_rules_filter_restricts_to_named_rules(self, capsys):
        # the conc002 fixture is clean under every rule but CONC002
        # (CONC001's meta-check would fire on its undeclared locks)
        assert main(
            ["check", "--rules", "FLOW002", str(FIXTURES / "conc002")]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "CONC001", "CONC002", "FLOW002", "HOT001",
            "WIRE001", "WIRE003", "WIRE004",
            "DISC001",  # the listing is unified across both engines
        ):
            assert rule_id in out
        for retired in ("FLOW001", "WIRE002", "STATE001"):
            assert retired not in out

    def test_family_rules_filter_on_the_cli(self, capsys):
        assert main(
            ["check", "--rules", "WIRE", str(FIXTURES / "wire001")]
        ) == 1
        out = capsys.readouterr().out
        assert "WIRE001" in out
        # STATE is no longer a rule family: an unknown selection
        assert main(["check", "--rules", "WIRE,STATE", str(SRC)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(
            ["check", "--format", "json", str(FIXTURES / "flow002")]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"FLOW002": 1}
        assert payload["findings"][0]["line"] == 30


class TestSarif:
    def test_cli_emits_valid_sarif(self, capsys):
        assert main(
            ["check", "--format", "sarif", str(FIXTURES / "hot001")]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"CONC001", "FLOW002", "HOT001", "DISC001", "LINT000"} <= rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "HOT001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 11
        assert location["artifactLocation"]["uri"].endswith("core/disc.py")

    def test_render_sarif_clean_run(self):
        payload = json.loads(render_sarif([], 5, tool_name="repro-check"))
        assert payload["runs"][0]["results"] == []
        assert payload["runs"][0]["properties"]["filesChecked"] == 5
