"""Worker supervision (repro.service.supervise + scheduler retries).

The classification table, deterministic capped backoff, and the
scheduler integration: retryable failures resume from the job's last
checkpoint, terminal ones fail immediately, exhaustion fails the job.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.db.database import SequenceDatabase
from repro.exceptions import (
    DataFormatError,
    InjectedFaultError,
    InvalidParameterError,
    OperationCancelledError,
    ReproError,
)
from repro.faults import FaultPlan, fault_plan
from repro.mining.api import mine
from repro.obs.events import EventLog, event_log
from repro.service import (
    FAILED,
    MineOutcome,
    MiningService,
    RETRYABLE,
    RetryPolicy,
    TERMINAL,
    backoff_delay,
    classify,
)

from tests.conftest import TABLE6_TEXTS


@pytest.fixture
def db() -> SequenceDatabase:
    return SequenceDatabase.from_texts(list(TABLE6_TEXTS.values()))


#: fast-retry policy so tests never sleep for real
QUICK = RetryPolicy(max_retries=3, base_delay=0.001, max_delay=0.01)


class TestClassify:
    @pytest.mark.parametrize(
        ("exc", "expected"),
        [
            (OperationCancelledError("deadline"), TERMINAL),
            (InjectedFaultError("injected"), RETRYABLE),
            (ReproError("validation"), TERMINAL),
            (DataFormatError("bad payload"), TERMINAL),
            (MemoryError(), RETRYABLE),
            (RuntimeError("bug"), RETRYABLE),
        ],
    )
    def test_classification_table(self, exc, expected):
        assert classify(exc) == expected

    def test_injected_fault_beats_repro_error_ordering(self):
        # InjectedFaultError IS a ReproError; the retryable branch must
        # win or fault-injection tests could never exercise retries.
        assert issubclass(InjectedFaultError, ReproError)
        assert classify(InjectedFaultError("x")) == RETRYABLE


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=1.5)

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0, jitter=0.0)
        assert backoff_delay(1, policy) == 1.0
        assert backoff_delay(2, policy) == 2.0
        assert backoff_delay(3, policy) == 4.0
        assert backoff_delay(4, policy) == 5.0  # capped
        assert backoff_delay(10, policy) == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.5, seed=3)
        first = backoff_delay(2, policy)
        assert first == backoff_delay(2, policy)
        assert 2.0 <= first <= 3.0  # base 2.0 plus at most 50%
        other_seed = RetryPolicy(
            base_delay=1.0, max_delay=8.0, jitter=0.5, seed=4
        )
        assert backoff_delay(2, other_seed) != first

    def test_attempt_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            backoff_delay(0, QUICK)


class TestSchedulerRetries:
    def test_retryable_failure_is_retried_to_success(self, db):
        reference = mine(db, 2)
        service = MiningService(workers=1, retry_policy=QUICK)
        service.register_database("demo", db)
        with fault_plan(FaultPlan.from_spec("worker.crash:1")):
            job = service.submit_mine("demo", 2)
            service.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.attempts == 2
        outcome = job.result
        assert isinstance(outcome, MineOutcome)
        assert outcome.result.patterns == reference.patterns
        snapshot = service.metrics_snapshot()
        assert snapshot["service.retries"]["value"] == 1
        service.close()

    def test_retry_resumes_from_job_progress(self, db):
        # Crash mid-mine (after some partitions) — the retry must resume
        # from the in-memory checkpoint and still produce the full set.
        reference = mine(db, 2)
        service = MiningService(workers=1, retry_policy=QUICK)
        service.register_database("demo", db)
        buffer = io.StringIO()
        with event_log(EventLog(buffer)):
            with fault_plan(FaultPlan.from_spec("disc.partition:3")):
                job = service.submit_mine("demo", 2)
                service.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.attempts == 2
        retries = [
            record for record in map(json.loads, buffer.getvalue().splitlines())
            if record["event"] == "job.retry"
        ]
        # the retry had a checkpoint to resume from ...
        assert [record["partitions"] > 0 for record in retries] == [True]
        # ... which the finished job no longer holds
        assert job.progress is None
        outcome = job.result
        assert outcome.result.patterns == reference.patterns
        service.close()

    def test_exhausted_retries_fail_the_job(self, db):
        service = MiningService(
            workers=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.001,
                                     max_delay=0.01),
        )
        service.register_database("demo", db)
        with fault_plan(FaultPlan.from_spec("worker.crash:1+")):
            job = service.submit_mine("demo", 2)
            service.wait(job.id, timeout=60)
        assert job.state == FAILED
        assert job.attempts == 2  # the first attempt plus one retry
        service.close()

    def test_terminal_failure_is_not_retried(self, db):
        service = MiningService(workers=1, retry_policy=QUICK)
        service.register_database("demo", db)
        # closed+maximal is a validation error (ReproError -> terminal):
        # retrying a deterministic input failure would repeat it forever.
        job = service.submit_mine(
            "demo", 2, options={"closed": True, "maximal": True}
        )
        service.wait(job.id, timeout=60)
        assert job.state == FAILED
        assert job.attempts == 1
        service.close()

    def test_deadline_expiry_is_a_partial_done_not_a_retry(self, db):
        service = MiningService(workers=1, retry_policy=QUICK)
        service.register_database("demo", db)
        job = service.submit_mine("demo", 2, deadline_seconds=0.0001)
        service.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.attempts == 1  # partial completion consumes no retries
        outcome = job.result
        assert isinstance(outcome, MineOutcome)
        assert not outcome.result.complete
        service.close()

    def test_no_retry_policy_means_single_attempt(self, db):
        service = MiningService(workers=1)  # retry_policy=None
        service.register_database("demo", db)
        with fault_plan(FaultPlan.from_spec("worker.crash:1")):
            job = service.submit_mine("demo", 2)
            service.wait(job.id, timeout=60)
        assert job.state == FAILED
        assert job.attempts == 1
        service.close()
