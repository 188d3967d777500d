"""Integration tests for DISC-all and Dynamic DISC-all."""

from __future__ import annotations

import random

import pytest

from repro.baselines.bruteforce import mine_bruteforce
from repro.core.cancel import CancelToken, cancel_scope
from repro.core.checkpoint import (
    CheckpointIdentity,
    CheckpointRecorder,
    recording_scope,
)
from repro.core.discall import disc_all
from repro.core.dynamic import dynamic_disc_all
from repro.core.sequence import parse, seq_length
from repro.exceptions import InjectedFaultError, OperationCancelledError
from repro.faults import FaultPlan, fault_plan
from tests.conftest import random_database


class TestDiscAll:
    def test_matches_bruteforce_random(self):
        rng = random.Random(71)
        for _ in range(50):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            expected = mine_bruteforce(members, delta)
            assert disc_all(members, delta).patterns == expected

    @pytest.mark.parametrize(
        "options",
        [
            {"bilevel": False},
            {"reduce": False},
            {"backend": "avl"},
            {"bilevel": False, "reduce": False},
        ],
        ids=["plain", "no-reduce", "avl", "plain-no-reduce"],
    )
    def test_variants_agree(self, options):
        rng = random.Random(72)
        for _ in range(25):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            assert (
                disc_all(members, delta, **options).patterns
                == disc_all(members, delta).patterns
            )

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            disc_all([], 0)

    def test_empty_database(self):
        assert disc_all([], 3).patterns == {}

    def test_delta_above_database_size(self, table1_members):
        assert disc_all(table1_members, 99).patterns == {}

    def test_single_customer_delta_one(self):
        members = [(1, parse("(a, b)(a)"))]
        patterns = disc_all(members, 1).patterns
        assert patterns == mine_bruteforce(members, 1)
        assert patterns[parse("(a)(a)")] == 1
        assert patterns[parse("(a, b)(a)")] == 1

    def test_single_item_alphabet(self):
        members = [(1, parse("(a)(a)(a)")), (2, parse("(a)(a)"))]
        patterns = disc_all(members, 2).patterns
        assert patterns == {
            parse("(a)"): 2,
            parse("(a)(a)"): 2,
        }

    def test_stats_populated(self, table6_members):
        out = disc_all(table6_members, 3)
        assert out.stats.first_level_partitions >= 4
        assert out.stats.second_level_partitions >= 1

    def test_supports_are_exact(self):
        rng = random.Random(73)
        for _ in range(20):
            db = random_database(rng)
            members = db.members()
            raws = [raw for _, raw in members]
            delta = rng.randint(1, max(1, len(members) // 2))
            from repro.core.sequence import support_count

            for pattern, count in disc_all(members, delta).patterns.items():
                assert count == support_count(raws, pattern)


class TestFirstLevelBoundaries:
    """The first-level loop honours fault sites and checkpoints per partition."""

    def test_fault_point_fires_per_partition(self, table6_members):
        with fault_plan(FaultPlan.from_spec("disc.partition:2")) as plan:
            with pytest.raises(InjectedFaultError):
                disc_all(table6_members, 3)
        assert plan.fired() == {"disc.partition": 1}
        assert plan.hits()["disc.partition"] == 2

    def test_recorder_marks_partitions_in_dispatch_order(self, table6_members):
        recorder = CheckpointRecorder()
        with recording_scope(recorder):
            out = disc_all(table6_members, 3)
        # Every dispatched partition was marked done, in ascending order.
        done = recorder.completed_partitions
        assert len(done) == out.stats.first_level_partitions
        assert list(done) == sorted(done)

    def test_recorder_skips_completed_partitions(self, table6_members):
        full = disc_all(table6_members, 3)
        # First run: cancel after two partitions, capture the watermark.
        token = CancelToken()
        recorder = CheckpointRecorder()
        original_done = recorder.partition_done

        def cancel_after_two(lam: int, patterns: dict) -> None:
            original_done(lam, patterns)
            if len(recorder.completed_partitions) == 2:
                token.cancel("captured enough")

        recorder.partition_done = cancel_after_two  # type: ignore[method-assign]
        with cancel_scope(token), recording_scope(recorder):
            with pytest.raises(OperationCancelledError):
                disc_all(table6_members, 3)
        assert len(recorder.completed_partitions) == 2

        # Second run resumes: completed partitions are not mined again,
        # and the merged output still equals the uninterrupted run.
        checkpoint = recorder.capture(
            CheckpointIdentity("d" * 64, 3, "disc-all", "x")
        )
        resume_recorder = CheckpointRecorder(resume_from=checkpoint)
        with recording_scope(resume_recorder):
            resumed = disc_all(table6_members, 3)
        assert resumed.stats.first_level_partitions == (
            full.stats.first_level_partitions - 2
        )
        assert resumed.patterns == full.patterns


class TestDynamicDiscAll:
    def test_matches_bruteforce_random(self):
        rng = random.Random(74)
        for _ in range(40):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            expected = mine_bruteforce(members, delta)
            assert dynamic_disc_all(members, delta).patterns == expected

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 1.0])
    def test_gamma_never_changes_results(self, gamma):
        rng = random.Random(75)
        for _ in range(20):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            assert (
                dynamic_disc_all(members, delta, gamma=gamma).patterns
                == mine_bruteforce(members, delta)
            )

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            dynamic_disc_all([], 1, gamma=1.5)
        with pytest.raises(ValueError):
            dynamic_disc_all([], 1, gamma=-0.1)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            dynamic_disc_all([], 0)

    def test_gamma_zero_uses_disc_immediately(self, table6_members):
        out = dynamic_disc_all(table6_members, 3, gamma=0.0)
        assert out.stats.disc_rounds > 0
        assert out.stats.first_level_partitions == 0

    def test_gamma_one_partitions_deep(self, table6_members):
        out = dynamic_disc_all(table6_members, 3, gamma=1.0)
        assert out.stats.first_level_partitions > 0

    def test_agrees_with_static(self):
        rng = random.Random(76)
        for _ in range(20):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            assert (
                dynamic_disc_all(members, delta).patterns
                == disc_all(members, delta).patterns
            )


class TestPatternProperties:
    def test_all_patterns_contained_in_some_sequence(self):
        rng = random.Random(77)
        from repro.core.sequence import contains

        for _ in range(15):
            db = random_database(rng)
            members = db.members()
            raws = [raw for _, raw in members]
            for pattern in disc_all(members, 1).patterns:
                assert any(contains(raw, pattern) for raw in raws)

    def test_downward_closure_of_result(self):
        """Every (k-1)-prefix of a frequent k-sequence is frequent."""
        from repro.core.sequence import k_prefix

        rng = random.Random(78)
        for _ in range(15):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members) // 2))
            patterns = disc_all(members, delta).patterns
            for pattern in patterns:
                length = seq_length(pattern)
                if length > 1:
                    assert k_prefix(pattern, length - 1) in patterns


class TestMultilevelDiscAll:
    def test_matches_bruteforce_at_every_depth(self):
        import random as _random

        from repro.core.dynamic import multilevel_disc_all

        rng = _random.Random(79)
        for _ in range(20):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            expected = mine_bruteforce(members, delta)
            for levels in (1, 2, 3, 5):
                got = multilevel_disc_all(members, delta, levels=levels)
                assert got.patterns == expected, levels

    def test_levels_validation(self):
        from repro.core.dynamic import multilevel_disc_all

        with pytest.raises(ValueError):
            multilevel_disc_all([], 1, levels=0)

    def test_two_level_matches_figure2_implementation(self):
        """levels=2 re-derives DISC-all through the generic recursion."""
        import random as _random

        from repro.core.dynamic import multilevel_disc_all

        rng = _random.Random(80)
        for _ in range(15):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            assert (
                multilevel_disc_all(members, delta, levels=2).patterns
                == disc_all(members, delta).patterns
            )
