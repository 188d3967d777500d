"""Tests for process-parallel DISC-all (repro.core.parallel)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.bruteforce import mine_bruteforce
from repro.core.cancel import CancelToken, cancel_scope
from repro.core.checkpoint import CheckpointRecorder, recording_scope
from repro.core.discall import disc_all
from repro.core.parallel import disc_all_parallel
from repro.exceptions import InjectedFaultError, OperationCancelledError
from repro.faults import FaultPlan, fault_plan
from tests.conftest import random_database


class TestParity:
    def test_sequential_mode_matches_disc_all(self):
        rng = random.Random(191)
        for _ in range(25):
            db = random_database(rng)
            members = db.members()
            delta = rng.randint(1, max(1, len(members)))
            assert (
                disc_all_parallel(members, delta, processes=1).patterns
                == disc_all(members, delta).patterns
            )

    def test_pool_mode_matches_oracle(self, table6_members):
        # One real pool run (kept small: process spawn is expensive).
        out = disc_all_parallel(table6_members, 3, processes=2)
        assert out.patterns == mine_bruteforce(table6_members, 3)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            disc_all_parallel([], 0)

    def test_empty_database(self):
        assert disc_all_parallel([], 2, processes=1).patterns == {}

    def test_registry_entry(self, table1_db):
        from repro.mining.api import mine

        result = mine(table1_db, 2, algorithm="disc-all-parallel", processes=1)
        assert result.same_patterns(mine(table1_db, 2))


class TestCheckpointPlacement:
    """The coordinator honors cancel/checkpoint/fault at each partition."""

    def test_cancel_token_stops_between_partitions(self, table6_members):
        token = CancelToken()
        token.cancel("stop now")
        with cancel_scope(token):
            with pytest.raises(OperationCancelledError):
                disc_all_parallel(table6_members, 3, processes=1)

    def test_fault_point_fires_per_partition(self, table6_members):
        with fault_plan(FaultPlan.from_spec("disc.partition:2")) as plan:
            with pytest.raises(InjectedFaultError):
                disc_all_parallel(table6_members, 3, processes=1)
        assert plan.fired() == {"disc.partition": 1}
        assert plan.hits()["disc.partition"] == 2

    def test_recorder_marks_partitions_in_dispatch_order(self, table6_members):
        recorder = CheckpointRecorder()
        with recording_scope(recorder):
            out = disc_all_parallel(table6_members, 3, processes=1)
        # Every dispatched partition was marked done, in ascending order.
        done = recorder.completed_partitions
        assert len(done) == out.stats.first_level_partitions
        assert list(done) == sorted(done)

    def test_recorder_skips_completed_partitions(self, table6_members):
        full = disc_all_parallel(table6_members, 3, processes=1)
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
                disc_all_parallel(table6_members, 3, processes=1)
        assert len(recorder.completed_partitions) == 2

        # Second run resumes: completed partitions are not re-dispatched,
        # and the merged output still equals the uninterrupted run.
        from repro.core.checkpoint import MiningCheckpoint, CheckpointIdentity

        checkpoint = recorder.capture(
            CheckpointIdentity("d" * 64, 3, "disc-all-parallel", "x")
        )
        resume_recorder = CheckpointRecorder(resume_from=checkpoint)
        with recording_scope(resume_recorder):
            resumed = disc_all_parallel(table6_members, 3, processes=1)
        assert resumed.stats.first_level_partitions == (
            full.stats.first_level_partitions - 2
        )
        assert resumed.patterns == full.patterns
