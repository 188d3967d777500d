"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.db import io as dbio
from repro.db.database import SequenceDatabase


@pytest.fixture
def spmf_file(tmp_path, table1_db):
    path = tmp_path / "table1.spmf"
    dbio.write_spmf(table1_db, path)
    return str(path)


class TestGenerate:
    def test_writes_spmf(self, tmp_path, capsys):
        out = tmp_path / "g.spmf"
        code = main([
            "generate", "--ncust", "30", "--nitems", "20", "--npats", "10",
            "--seed", "4", "-o", str(out),
        ])
        assert code == 0
        assert "wrote 30 sequences" in capsys.readouterr().out
        assert len(dbio.read_spmf(out)) == 30

    def test_writes_paper_format(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main([
            "generate", "--ncust", "10", "--nitems", "20", "--npats", "10",
            "-o", str(out),
        ]) == 0
        assert len(dbio.read_paper(out)) == 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.spmf", tmp_path / "b.spmf"
        args = ["generate", "--ncust", "15", "--nitems", "20", "--npats", "10",
                "--seed", "9"]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_text() == b.read_text()


class TestMine:
    def test_mines_and_prints(self, spmf_file, capsys):
        code = main(["mine", spmf_file, "--min-support", "0.5", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frequent sequences" in out
        assert "<(" in out

    def test_absolute_support(self, spmf_file, capsys):
        assert main(["mine", spmf_file, "--min-support", "2"]) == 0
        assert "delta=2" in capsys.readouterr().out

    def test_min_length_filter(self, spmf_file, capsys):
        main(["mine", spmf_file, "--min-support", "2", "--min-length", "3"])
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith(tuple("0123456789"))
        ]
        # each printed pattern has length >= 3 (count items inside <...>)
        for line in lines:
            pattern = line.split(None, 1)[1]
            n_items = pattern.count(",") + pattern.count(")(") + 1
            assert n_items >= 3

    def test_algorithm_choice(self, spmf_file, capsys):
        assert main([
            "mine", spmf_file, "--min-support", "2", "--algorithm", "spade",
        ]) == 0
        assert "spade" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["mine", "/nonexistent.spmf", "--min-support", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.spmf"
        bad.write_text("1 -1\n")
        assert main(["mine", str(bad), "--min-support", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestMineObservability:
    def test_trace_prints_span_tree(self, spmf_file, capsys):
        assert main(["mine", spmf_file, "--min-support", "2", "--top", "1",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "mine" in out
        assert "metrics:" in out

    def test_metrics_json_writes_valid_report(self, tmp_path, spmf_file, capsys):
        from repro.obs import RunReport

        target = tmp_path / "report.json"
        assert main(["mine", spmf_file, "--min-support", "2", "--top", "1",
                     "--metrics-json", str(target)]) == 0
        assert "wrote run report" in capsys.readouterr().out
        report = RunReport.from_json(target.read_text(encoding="utf-8"))
        assert report.spans[0].name == "mine"
        assert "post_filter" in report.phase_totals()

    def test_no_flags_no_report_output(self, spmf_file, capsys):
        assert main(["mine", spmf_file, "--min-support", "2", "--top", "1"]) == 0
        assert "phases:" not in capsys.readouterr().out

    def test_bench_writes_baseline_document(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        assert main(["bench", "--scale", "smoke", "-o", str(target)]) == 0
        assert "baseline runs" in capsys.readouterr().out
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["format"] == "repro.bench-baseline"
        assert payload["runs"]
        run = payload["runs"][0]
        assert {"algorithm", "minsup", "elapsed_seconds",
                "phase_seconds", "counters"} <= set(run)


class TestOtherCommands:
    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "disc-all" in out and "prefixspan" in out

    def test_stats(self, spmf_file, capsys):
        assert main(["stats", spmf_file]) == 0
        out = capsys.readouterr().out
        assert "sequences:            4" in out
        assert "max sequence length:  9" in out

    def test_paper_format_input(self, tmp_path, table1_db, capsys):
        path = tmp_path / "db.txt"
        dbio.write_paper(table1_db, path)
        assert main(["stats", str(path)]) == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompareAndVerify:
    def test_compare_agreement(self, spmf_file, capsys):
        assert main([
            "compare", spmf_file, "--min-support", "2",
            "--algorithms", "disc-all", "spade",
        ]) == 0
        assert "agreement: OK" in capsys.readouterr().out

    def test_compare_detects_mismatch(self, spmf_file, capsys):
        from repro.mining import registry

        registry.register_algorithm(
            "test-broken", lambda members, delta: {}, replace=True
        )
        try:
            assert main([
                "compare", spmf_file, "--min-support", "2",
                "--algorithms", "test-broken",
            ]) == 1
            assert "MISMATCH" in capsys.readouterr().out
        finally:
            registry._REGISTRY.pop("test-broken", None)

    def test_verify_passes(self, spmf_file, capsys):
        assert main([
            "verify", spmf_file, "--min-support", "2", "--sample", "10",
        ]) == 0
        assert "verification OK" in capsys.readouterr().out


class TestTopkAndRules:
    def test_topk_command(self, spmf_file, capsys):
        assert main(["topk", spmf_file, "-k", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3
        supports = [int(line.split()[0]) for line in lines]
        assert supports == sorted(supports, reverse=True)

    def test_topk_min_length(self, spmf_file, capsys):
        assert main(["topk", spmf_file, "-k", "5", "--min-length", "3"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            pattern = line.split(None, 1)[1]
            n_items = pattern.count(",") + pattern.count(")(") + 1
            assert n_items >= 3

    def test_rules_command(self, spmf_file, capsys):
        assert main([
            "rules", spmf_file, "--min-support", "2",
            "--min-confidence", "0.9", "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "rules (conf >= 0.9)" in out
        assert "=>" in out


class TestStdinAndFormat:
    def test_mine_reads_spmf_from_stdin(self, table1_db, capsys, monkeypatch):
        import io

        buffer = io.StringIO()
        dbio.write_spmf(table1_db, buffer)
        monkeypatch.setattr("sys.stdin", io.StringIO(buffer.getvalue()))
        code = main(["mine", "-", "--format", "spmf", "--min-support", "2"])
        assert code == 0
        assert "frequent sequences" in capsys.readouterr().out

    def test_stats_reads_paper_from_stdin(self, table1_db, capsys, monkeypatch):
        import io

        buffer = io.StringIO()
        dbio.write_paper(table1_db, buffer)
        monkeypatch.setattr("sys.stdin", io.StringIO(buffer.getvalue()))
        assert main(["stats", "-", "--format", "paper"]) == 0
        assert "sequences:            4" in capsys.readouterr().out

    def test_stdin_without_format_is_an_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("1 -1 -2\n"))
        assert main(["mine", "-", "--min-support", "2"]) == 2
        assert "--format" in capsys.readouterr().err

    def test_format_overrides_suffix_dispatch(self, tmp_path, table1_db, capsys):
        # paper-format content under an .spmf suffix: the explicit flag
        # must win over the filename heuristic
        path = tmp_path / "mislabeled.spmf"
        dbio.write_paper(table1_db, path)
        code = main([
            "mine", str(path), "--format", "paper", "--min-support", "2",
        ])
        assert code == 0
        assert "frequent sequences" in capsys.readouterr().out

    def test_bad_format_value_is_a_usage_error(self, spmf_file):
        with pytest.raises(SystemExit):
            main(["mine", spmf_file, "--format", "csv", "--min-support", "2"])


class TestClusterCli:
    def test_coordinator_flag_requires_worker_role(self, capsys):
        assert main([
            "serve", "--role", "coordinator",
            "--coordinator", "http://127.0.0.1:1",
        ]) == 2
        assert "--role worker" in capsys.readouterr().err

    def test_advertise_requires_coordinator_flag(self, capsys):
        assert main([
            "serve", "--role", "worker",
            "--advertise", "http://127.0.0.1:1",
        ]) == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_heartbeat_requires_coordinator_flag(self, capsys):
        assert main([
            "serve", "--role", "worker", "--heartbeat-seconds", "2",
        ]) == 2
        assert "--coordinator" in capsys.readouterr().err

    def test_worker_role_rejects_worker_urls(self, capsys):
        assert main([
            "serve", "--role", "worker", "--worker", "http://127.0.0.1:1",
        ]) == 2
        assert "coordinator" in capsys.readouterr().err

    def test_worker_urls_require_coordinator_role(self, capsys):
        assert main(["serve", "--worker", "http://127.0.0.1:1"]) == 2
        assert "--role coordinator" in capsys.readouterr().err

    def test_worker_role_rejects_databases(self, spmf_file, capsys):
        assert main(["serve", "--role", "worker", spmf_file]) == 2
        assert "holds no databases" in capsys.readouterr().err
