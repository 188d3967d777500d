"""Tests for the mining service core (repro.service).

Covers the cooperative cancellation tokens, the content-digest database
registry, the LRU result cache (hit == fresh mine, invalidation on
re-register, budget eviction), the bounded scheduler (backpressure,
deadlines, cancellation, drain-on-close) and the MiningService that ties
them together.  The HTTP front-end has its own module
(``test_service_http.py``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.cancel import (
    NEVER_CANCELLED,
    CancelToken,
    active_token,
    cancel_scope,
)
from repro.core.discall import disc_all
from repro.db.database import SequenceDatabase
from repro.exceptions import (
    InvalidParameterError,
    OperationCancelledError,
    UnknownAlgorithmError,
)
from repro.mining.api import mine
from repro.service import (
    CANCELLED,
    DONE,
    QUEUED,
    CacheKey,
    DatabaseRegistry,
    JobScheduler,
    MiningService,
    ResultCache,
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownDatabaseError,
    UnknownJobError,
    database_digest,
    freeze_options,
)

from tests.conftest import TABLE1_TEXTS


def make_db(texts: list[str]) -> SequenceDatabase:
    return SequenceDatabase.from_texts(texts)


#: Six customers sharing one long sequence: produces k>=4 patterns, so a
#: mine over it runs second-level discovery rounds (disc.rounds > 0).
DEEP_TEXTS = ["(1)(2)(3)(4)(5)(6)"] * 6


def metric_value(
    snapshot: dict[str, dict[str, object]], name: str, **labels: object
) -> object:
    for entry in snapshot.values():
        if entry["name"] == name and entry.get("labels", {}) == labels:
            return entry["value"]
    return 0


# -- cancellation tokens ------------------------------------------------------


class TestCancelToken:
    def test_fresh_token_is_live(self):
        token = CancelToken()
        assert not token.cancelled()
        token.checkpoint()  # no raise

    def test_cancel_first_reason_sticks(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"
        with pytest.raises(OperationCancelledError, match="first"):
            token.checkpoint()

    def test_deadline_expiry_cancels(self):
        token = CancelToken.with_timeout(0.005)
        time.sleep(0.02)
        assert token.expired()
        with pytest.raises(OperationCancelledError, match="deadline"):
            token.checkpoint()
        assert "deadline" in token.reason

    def test_never_cancelled_is_inert(self):
        assert not NEVER_CANCELLED.cancelled()
        NEVER_CANCELLED.checkpoint()
        with pytest.raises(RuntimeError, match="shared default"):
            NEVER_CANCELLED.cancel()

    def test_scope_installs_and_restores(self):
        assert active_token() is NEVER_CANCELLED
        token = CancelToken()
        with cancel_scope(token):
            assert active_token() is token
        assert active_token() is NEVER_CANCELLED

    def test_disc_all_unwinds_at_checkpoint(self, table1_members):
        token = CancelToken()
        token.cancel("test abort")
        with cancel_scope(token):
            with pytest.raises(OperationCancelledError, match="test abort"):
                disc_all(table1_members, 2)

    def test_disc_all_unscoped_is_unaffected(self, table1_members):
        assert disc_all(table1_members, 2).patterns


# -- database registry --------------------------------------------------------


class TestDigestAndRegistry:
    def test_digest_depends_on_content_not_identity(self):
        a = make_db(TABLE1_TEXTS)
        b = make_db(TABLE1_TEXTS)
        assert database_digest(a) == database_digest(b)
        c = make_db(TABLE1_TEXTS[:2])
        assert database_digest(a) != database_digest(c)

    def test_digest_is_order_sensitive(self):
        a = make_db(TABLE1_TEXTS)
        b = make_db(list(reversed(TABLE1_TEXTS)))
        assert database_digest(a) != database_digest(b)

    def test_register_and_get_by_name_or_digest(self):
        registry = DatabaseRegistry()
        entry, replaced = registry.register("t1", make_db(TABLE1_TEXTS))
        assert replaced is None
        assert registry.get("t1") is entry
        assert registry.get(entry.digest) is entry
        assert len(registry) == 1

    def test_reregister_same_content_is_not_a_replace(self):
        registry = DatabaseRegistry()
        registry.register("t1", make_db(TABLE1_TEXTS))
        _, replaced = registry.register("t1", make_db(TABLE1_TEXTS))
        assert replaced is None

    def test_reregister_different_content_reports_old_digest(self):
        registry = DatabaseRegistry()
        first, _ = registry.register("t1", make_db(TABLE1_TEXTS))
        _, replaced = registry.register("t1", make_db(TABLE1_TEXTS[:2]))
        assert replaced == first.digest

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownDatabaseError):
            DatabaseRegistry().get("nope")

    def test_evict(self):
        registry = DatabaseRegistry()
        entry, _ = registry.register("t1", make_db(TABLE1_TEXTS))
        assert registry.evict("t1") is entry
        with pytest.raises(UnknownDatabaseError):
            registry.get("t1")
        with pytest.raises(UnknownDatabaseError):
            registry.evict("t1")


# -- result cache -------------------------------------------------------------


class TestResultCache:
    def key(self, n: int = 0, digest: str = "d") -> CacheKey:
        return CacheKey(digest, n, "disc-all", ())

    def test_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get(self.key()) is None
        cache.put(self.key(), "value")
        assert cache.get(self.key()) == "value"
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_respects_budget(self):
        cache = ResultCache(2)
        cache.put(self.key(1), "a")
        cache.put(self.key(2), "b")
        cache.put(self.key(3), "c")
        assert len(cache) == 2
        assert cache.get(self.key(1)) is None  # oldest evicted
        assert cache.get(self.key(3)) == "c"

    def test_get_refreshes_recency(self):
        cache = ResultCache(2)
        cache.put(self.key(1), "a")
        cache.put(self.key(2), "b")
        cache.get(self.key(1))  # 1 becomes most recent
        cache.put(self.key(3), "c")
        assert cache.get(self.key(2)) is None
        assert cache.get(self.key(1)) == "a"

    def test_zero_budget_disables_caching(self):
        cache = ResultCache(0)
        cache.put(self.key(), "value")
        assert cache.get(self.key()) is None
        assert len(cache) == 0

    def test_invalidate_digest_drops_only_that_digest(self):
        cache = ResultCache(8)
        cache.put(self.key(1, "aa"), "a1")
        cache.put(self.key(2, "aa"), "a2")
        cache.put(self.key(1, "bb"), "b1")
        assert cache.invalidate_digest("aa") == 2
        assert cache.get(self.key(1, "bb")) == "b1"
        assert cache.get(self.key(1, "aa")) is None

    def test_freeze_options_is_order_insensitive(self):
        assert freeze_options({"a": 1, "b": 2}) == freeze_options(
            {"b": 2, "a": 1}
        )
        assert freeze_options(None) == ()

    def test_freeze_options_rejects_unhashable(self):
        with pytest.raises(InvalidParameterError, match="hashable"):
            freeze_options({"bad": [1, 2]})


# -- scheduler ----------------------------------------------------------------


class TestScheduler:
    def test_runs_jobs_in_order(self):
        seen: list[object] = []
        scheduler = JobScheduler(
            lambda job: seen.append(job.request) or job.request,
            workers=1,
            queue_size=8,
        )
        try:
            jobs = [scheduler.submit(n) for n in range(4)]
            for job in jobs:
                scheduler.wait(job.id, timeout=10.0)
            assert seen == [0, 1, 2, 3]
            assert [job.result for job in jobs] == [0, 1, 2, 3]
            assert all(job.state == DONE for job in jobs)
        finally:
            scheduler.close()

    def test_backpressure_rejects_when_full(self):
        started = threading.Event()
        release = threading.Event()

        def runner(job):
            started.set()
            release.wait(10.0)
            return job.request

        scheduler = JobScheduler(runner, workers=1, queue_size=2)
        try:
            blocker = scheduler.submit("blocker")
            assert started.wait(10.0)
            scheduler.submit("q1")
            scheduler.submit("q2")
            with pytest.raises(ServiceOverloadedError, match="full"):
                scheduler.submit("q3")
            assert scheduler.queue_depth() == 2
        finally:
            release.set()
            scheduler.close()
        assert blocker.state == DONE

    def test_rejection_is_counted(self):
        from repro.obs import MetricsRegistry

        release = threading.Event()
        metrics = MetricsRegistry()
        scheduler = JobScheduler(
            lambda job: release.wait(10.0), workers=1, queue_size=1,
            metrics=metrics,
        )
        try:
            scheduler.submit("a")
            # the worker may or may not have popped "a" yet; fill until full
            rejected = 0
            for _ in range(3):
                try:
                    scheduler.submit("b")
                except ServiceOverloadedError:
                    rejected += 1
            assert rejected >= 1
            assert metrics.counter("service.rejected").value == rejected
        finally:
            release.set()
            scheduler.close()

    def test_deadline_cancels_running_job(self):
        def runner(job):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                time.sleep(0.005)
                active_token().checkpoint()
            return "never"

        scheduler = JobScheduler(runner, workers=1, queue_size=2)
        try:
            job = scheduler.submit("slow", deadline_seconds=0.05)
            scheduler.wait(job.id, timeout=10.0)
            assert job.state == CANCELLED
            assert job.error_code == "deadline"
        finally:
            scheduler.close()

    def test_deadline_expired_before_start(self):
        started = threading.Event()
        release = threading.Event()

        def runner(job):
            started.set()
            release.wait(10.0)
            return job.request

        scheduler = JobScheduler(runner, workers=1, queue_size=4)
        try:
            scheduler.submit("blocker")
            assert started.wait(10.0)
            doomed = scheduler.submit("late", deadline_seconds=0.01)
            time.sleep(0.05)
            release.set()
            scheduler.wait(doomed.id, timeout=10.0)
            assert doomed.state == CANCELLED
            assert doomed.error_code == "deadline"
            assert doomed.started_at is None  # never ran
        finally:
            release.set()
            scheduler.close()

    def test_cancel_queued_job(self):
        started = threading.Event()
        release = threading.Event()

        def runner(job):
            started.set()
            release.wait(10.0)
            return job.request

        scheduler = JobScheduler(runner, workers=1, queue_size=4)
        try:
            scheduler.submit("blocker")
            assert started.wait(10.0)
            queued = scheduler.submit("queued")
            assert queued.state == QUEUED
            scheduler.cancel(queued.id, "changed my mind")
            assert queued.state == CANCELLED
            assert queued.error == "changed my mind"
        finally:
            release.set()
            scheduler.close()

    def test_cancel_running_job_stops_at_checkpoint(self):
        started = threading.Event()

        def runner(job):
            started.set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                time.sleep(0.005)
                active_token().checkpoint()
            return "never"

        scheduler = JobScheduler(runner, workers=1, queue_size=2)
        try:
            job = scheduler.submit("slow")
            assert started.wait(10.0)
            scheduler.cancel(job.id)
            scheduler.wait(job.id, timeout=10.0)
            assert job.state == CANCELLED
            assert job.error_code == "cancelled"
        finally:
            scheduler.close()

    def test_runner_errors_fail_the_job_not_the_worker(self):
        def runner(job):
            if job.request == "boom":
                raise ValueError("kaput")
            return job.request

        scheduler = JobScheduler(runner, workers=1, queue_size=4)
        try:
            bad = scheduler.submit("boom")
            good = scheduler.submit("fine")
            scheduler.wait(bad.id, timeout=10.0)
            scheduler.wait(good.id, timeout=10.0)
            assert bad.state == "failed"
            assert bad.error_code == "internal"
            assert "kaput" in bad.error
            assert good.state == DONE  # the worker survived
        finally:
            scheduler.close()

    def test_close_drains_queued_jobs(self):
        scheduler = JobScheduler(
            lambda job: job.request, workers=1, queue_size=16
        )
        jobs = [scheduler.submit(n) for n in range(8)]
        scheduler.close(drain=True, timeout=30.0)
        assert all(job.state == DONE for job in jobs)
        assert [job.result for job in jobs] == list(range(8))
        with pytest.raises(ServiceClosedError):
            scheduler.submit("late")

    def test_close_without_drain_cancels_queued(self):
        started = threading.Event()
        release = threading.Event()

        def runner(job):
            started.set()
            release.wait(10.0)
            return job.request

        scheduler = JobScheduler(runner, workers=1, queue_size=4)
        running = scheduler.submit("running")
        assert started.wait(10.0)
        queued = scheduler.submit("queued")
        scheduler.close(drain=False, timeout=0.2)
        assert queued.state == CANCELLED
        assert queued.error_code == "shutdown"
        release.set()
        scheduler.wait(running.id, timeout=10.0)
        assert running.state == DONE  # in-flight work was not lost

    def test_wait_timeout(self):
        release = threading.Event()
        scheduler = JobScheduler(
            lambda job: release.wait(10.0), workers=1, queue_size=2
        )
        try:
            job = scheduler.submit("slow")
            with pytest.raises(TimeoutError):
                scheduler.wait(job.id, timeout=0.05)
        finally:
            release.set()
            scheduler.close()

    def test_unknown_job_raises(self):
        scheduler = JobScheduler(lambda job: None, workers=1, queue_size=2)
        try:
            with pytest.raises(UnknownJobError):
                scheduler.get("j999999")
        finally:
            scheduler.close()

    def test_finished_jobs_are_pruned_beyond_history(self):
        scheduler = JobScheduler(
            lambda job: job.request, workers=1, queue_size=4, job_history=3
        )
        try:
            jobs = [scheduler.submit(n) for n in range(3)]
            for job in jobs:
                scheduler.wait(job.id, timeout=10.0)
            for n in range(3, 6):
                scheduler.wait(scheduler.submit(n).id, timeout=10.0)
            retained = scheduler.jobs()
            assert len(retained) == 3
            assert jobs[0].id not in [job.id for job in retained]
        finally:
            scheduler.close()


# -- the service --------------------------------------------------------------


@pytest.fixture
def service():
    svc = MiningService(workers=1, queue_size=8, cache_entries=16)
    yield svc
    svc.close(drain=True)


class TestMiningService:
    def test_mine_matches_direct_call(self, service):
        db = make_db(TABLE1_TEXTS)
        service.register_database("t1", db)
        job = service.submit_mine("t1", 2)
        job = service.wait(job.id, timeout=30.0)
        assert job.state == DONE
        outcome = job.result
        assert outcome.cached is False
        direct = mine(db, 2)
        assert outcome.result.patterns == direct.patterns

    def test_finished_job_drops_its_checkpoint(self, service):
        # the job history keeps finished jobs; their last checkpoint's
        # chunk list must not ride along with the result
        service.register_database("t1", make_db(TABLE1_TEXTS))
        job = service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        assert job.state == DONE
        assert job.result.result.complete
        assert job.progress is None

    def test_repeat_request_is_a_cache_hit(self, service):
        service.register_database("deep", make_db(DEEP_TEXTS))
        first = service.wait(service.submit_mine("deep", 4).id, timeout=30.0)
        snap = service.metrics_snapshot()
        rounds_before = metric_value(snap, "disc.rounds")
        assert rounds_before > 0  # the miss actually ran discovery rounds
        assert metric_value(snap, "service.cache_hits") == 0

        second = service.submit_mine("deep", 4)
        assert second.state == DONE  # finished synchronously, no queue
        assert second.result.cached is True
        assert second.result.result.patterns == first.result.result.patterns

        snap = service.metrics_snapshot()
        assert metric_value(snap, "service.cache_hits") == 1
        # served from cache: no new discovery rounds were merged in
        assert metric_value(snap, "disc.rounds") == rounds_before

    def test_distinct_thresholds_are_distinct_entries(self, service):
        service.register_database("t1", make_db(TABLE1_TEXTS))
        a = service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        b = service.wait(service.submit_mine("t1", 3).id, timeout=30.0)
        assert a.result.cached is False
        assert b.result.cached is False
        assert len(service.cache) == 2

    def test_fractional_and_absolute_support_share_the_entry(self, service):
        # 0.5 of 4 customers == absolute 2: same delta, same cache key
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        repeat = service.submit_mine("t1", 0.5)
        assert repeat.state == DONE
        assert repeat.result.cached is True

    def test_reregister_modified_db_invalidates_cache(self, service):
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        assert len(service.cache) == 1
        _, replaced = service.register_database("t1", make_db(TABLE1_TEXTS[:3]))
        assert replaced is True
        assert len(service.cache) == 0
        job = service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        assert job.result.cached is False
        snap = service.metrics_snapshot()
        assert metric_value(snap, "service.cache_invalidated") == 1

    def test_reregister_identical_db_keeps_cache(self, service):
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        _, replaced = service.register_database("t1", make_db(TABLE1_TEXTS))
        assert replaced is False
        assert len(service.cache) == 1

    def test_unknown_database_and_algorithm(self, service):
        with pytest.raises(UnknownDatabaseError):
            service.submit_mine("nope", 2)
        service.register_database("t1", make_db(TABLE1_TEXTS))
        with pytest.raises(UnknownAlgorithmError):
            service.submit_mine("t1", 2, algorithm="nope")
        assert len(service.scheduler.jobs()) == 0  # nothing was queued

    def test_options_reach_the_miner(self, service):
        db = make_db(TABLE1_TEXTS)
        service.register_database("t1", db)
        job = service.wait(
            service.submit_mine(
                "t1", 2, algorithm="disc-all", options={"bilevel": False}
            ).id,
            timeout=30.0,
        )
        assert job.state == DONE
        assert job.result.result.patterns == mine(db, 2).patterns

    def test_health_reports_counts(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["databases"] == 0
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        health = service.health()
        assert health == {
            "status": "ok",
            "role": "standalone",
            "databases": 1,
            "cache_entries": 1,
            "queue_depth": 0,
            "jobs": 1,
        }

    def test_close_reports_shutting_down(self):
        svc = MiningService(workers=1, queue_size=2, cache_entries=4)
        svc.close(drain=True)
        assert svc.health()["status"] == "shutting_down"
        with pytest.raises(ServiceClosedError):
            svc.register_database("t1", make_db(TABLE1_TEXTS))
            svc.submit_mine("t1", 2)

    def test_context_manager_drains(self):
        with MiningService(workers=1, queue_size=8, cache_entries=4) as svc:
            svc.register_database("t1", make_db(TABLE1_TEXTS))
            jobs = [svc.submit_mine("t1", n) for n in (1, 2, 3)]
        assert all(job.state == DONE for job in jobs)

    def test_partial_result_is_done_but_never_cached(self, service, monkeypatch):
        import repro.service.service as service_module

        real_mine = service_module.mine

        def slow_mine(*args, **kwargs):
            # The deadline must expire after the job starts: one that
            # expires while the job waits for a worker cancels it instead.
            time.sleep(0.3)
            return real_mine(*args, **kwargs)

        monkeypatch.setattr(service_module, "mine", slow_mine)
        service.register_database("deep", make_db(DEEP_TEXTS))
        job = service.submit_mine("deep", 2, deadline_seconds=0.1)
        service.wait(job.id, timeout=30.0)
        assert job.state == DONE
        partial = job.result
        assert partial.result.complete is False
        snap = service.metrics_snapshot()
        assert metric_value(snap, "service.partial_results") == 1
        # A partial result must not poison the cache: the same request
        # without a deadline runs fresh and completes.
        again = service.wait(service.submit_mine("deep", 2).id, timeout=30.0)
        assert again.result.cached is False
        assert again.result.result.complete is True

    def test_retry_after_hint_is_bounded(self, service):
        hint = service.retry_after_hint()
        assert isinstance(hint, int)
        assert 1 <= hint <= 60
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        assert 1 <= service.retry_after_hint() <= 60

    def test_job_latency_histogram_is_recorded(self, service):
        service.register_database("t1", make_db(TABLE1_TEXTS))
        service.wait(service.submit_mine("t1", 2).id, timeout=30.0)
        snap = service.metrics_snapshot()
        histogram = next(
            entry for entry in snap.values()
            if entry["name"] == "service.job_seconds"
        )
        assert histogram["type"] == "histogram"
        assert histogram["count"] == 1
