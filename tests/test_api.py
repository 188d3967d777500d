"""Tests for the mining API and registry (repro.mining)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.mining.api import mine
from repro.mining.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
)


class TestMine:
    def test_default_algorithm_is_disc_all(self, table1_db):
        result = mine(table1_db, 2)
        assert result.algorithm == "disc-all"
        assert result.delta == 2
        assert result.database_size == 4
        assert result.elapsed_seconds >= 0

    def test_fractional_support(self, table1_db):
        result = mine(table1_db, 0.5)
        assert result.delta == 2

    def test_absolute_support(self, table1_db):
        assert mine(table1_db, 3).delta == 3

    def test_options_forwarded(self, table1_db):
        result = mine(table1_db, 2, algorithm="dynamic-disc-all", gamma=0.9)
        assert result.same_patterns(mine(table1_db, 2))

    def test_unknown_algorithm(self, table1_db):
        with pytest.raises(UnknownAlgorithmError):
            mine(table1_db, 2, algorithm="nope")

    def test_invalid_support(self, table1_db):
        with pytest.raises(InvalidParameterError):
            mine(table1_db, 0)

    def test_all_registered_algorithms_run(self, table1_db):
        reference = mine(table1_db, 2, algorithm="bruteforce")
        for name in available_algorithms():
            assert mine(table1_db, 2, algorithm=name).same_patterns(reference)


class TestRegistry:
    def test_available_contains_paper_algorithms(self):
        names = available_algorithms()
        for expected in (
            "disc-all",
            "dynamic-disc-all",
            "prefixspan",
            "pseudo",
            "gsp",
            "spade",
            "spam",
        ):
            assert expected in names

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(UnknownAlgorithmError, match="disc-all"):
            get_algorithm("unknown")

    def test_register_rejects_duplicates(self):
        def fake(members, delta):
            return {}

        register_algorithm("test-fake", fake)
        try:
            with pytest.raises(ValueError):
                register_algorithm("test-fake", fake)
            register_algorithm("test-fake", fake, replace=True)
        finally:
            from repro.mining import registry

            registry._REGISTRY.pop("test-fake", None)


    def test_import_loads_no_process_pool_or_cluster(self):
        # The registry mines in-process; the cluster loads on demand.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'\n"
            "             or m.startswith('repro.cluster')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out.strip() == "[]"


class TestTable5Strategies:
    """Table 5 of the paper: the strategy matrix, encoded and asserted."""

    def test_paper_rows(self):
        from repro.mining.registry import (
            CANDIDATE_PRUNING,
            CUSTOMER_REDUCING,
            DATABASE_PARTITIONING,
            DISC,
            strategies_of,
        )

        assert strategies_of("gsp") == {CANDIDATE_PRUNING}
        assert strategies_of("spade") == {CANDIDATE_PRUNING, DATABASE_PARTITIONING}
        assert strategies_of("spam") == {CANDIDATE_PRUNING, DATABASE_PARTITIONING}
        assert strategies_of("prefixspan") == {
            CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING,
        }
        assert strategies_of("disc-all") == {
            CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING, DISC,
        }

    def test_only_disc_family_uses_disc(self):
        from repro.mining.registry import DISC, available_algorithms, strategies_of

        for name in available_algorithms():
            uses_disc = DISC in strategies_of(name)
            assert uses_disc == ("disc" in name), name

    def test_unknown_algorithm(self):
        from repro.exceptions import UnknownAlgorithmError
        from repro.mining.registry import strategies_of

        with pytest.raises(UnknownAlgorithmError):
            strategies_of("nope")


class TestMarkdownRendering:
    def test_markdown_table(self):
        from repro.bench.reporting import render_markdown

        text = render_markdown(["a", "b"], [[1, 2.5]], title="T")
        assert "### T" in text
        assert "| a | b |" in text
        assert "| 1 | 2.5 |" in text

    def test_experiment_markdown(self, capsys):
        from repro.cli import main

        assert main([
            "experiment", "table12", "--scale", "smoke", "--markdown",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### table12")
        assert "|---" in out


class TestMineFilters:
    def test_closed_flag(self, table1_db):
        full = mine(table1_db, 2)
        closed = mine(table1_db, 2, closed=True)
        assert closed.patterns == full.closed_patterns()

    def test_maximal_flag(self, table1_db):
        full = mine(table1_db, 2)
        maximal = mine(table1_db, 2, maximal=True)
        assert maximal.patterns == full.maximal_patterns()

    def test_length_bounds(self, table1_db):
        from repro.core.sequence import seq_length

        result = mine(table1_db, 2, min_length=2, max_length=3)
        assert result.patterns
        assert all(2 <= seq_length(raw) <= 3 for raw in result.patterns)

    def test_closed_and_maximal_exclusive(self, table1_db):
        with pytest.raises(InvalidParameterError):
            mine(table1_db, 2, closed=True, maximal=True)

    def test_bad_length_bounds(self, table1_db):
        with pytest.raises(InvalidParameterError):
            mine(table1_db, 2, min_length=3, max_length=2)
        with pytest.raises(InvalidParameterError):
            mine(table1_db, 2, min_length=0)

    def test_filters_compose(self, table1_db):
        from repro.core.sequence import seq_length

        result = mine(table1_db, 2, maximal=True, min_length=4)
        full_maximal = mine(table1_db, 2).maximal_patterns()
        assert result.patterns == {
            raw: count for raw, count in full_maximal.items()
            if seq_length(raw) >= 4
        }
