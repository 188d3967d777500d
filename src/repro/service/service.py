"""The mining service: registry + cache + scheduler + metrics (system S27).

:class:`MiningService` is the long-lived object behind ``repro serve``
(and directly embeddable in tests or other servers).  It loads each
database once, resolves every submission to a cache key
``(db_digest, delta, algorithm, frozen options)``, serves repeats from
the LRU cache, and schedules misses onto the worker pool under
admission control.

Fault tolerance is layered on top when a :class:`JobJournal` is
attached: submissions are journaled before the caller sees the job id,
resumable runs journal a checkpoint at every completed first-level
partition, and :meth:`recover` replays the journal on startup —
re-enqueueing interrupted jobs from their last checkpoint under their
original ids, and failing unresumable ones with a reason.  A
:class:`~repro.service.supervise.RetryPolicy` makes workers retry
retryable failures, resuming from the job's freshest checkpoint so a
retry repeats only the interrupted partition.

Telemetry shares the :mod:`repro.obs` vocabulary: the service owns a
live :class:`MetricsRegistry` holding ``service.queue_depth``,
``service.cache_hits`` / ``service.cache_misses`` / ``service.rejected``,
``service.retries`` / ``service.recovered_jobs`` /
``service.partial_results``, the ``service.job_seconds`` latency
histogram — and, merged in from each completed job's
:class:`RunReport`, the cumulative mining counters (``disc.rounds``,
``disc.comparisons``, ...), so server telemetry and ``repro bench``
trajectories read the same names.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.checkpoint import MiningCheckpoint
from repro.db.database import SequenceDatabase
from repro.exceptions import (
    CheckpointMismatchError,
    DataFormatError,
    InvalidParameterError,
)
from repro.mining.api import mine, run_identity
from repro.mining.registry import get_algorithm, supports_resume
from repro.mining.result import MiningResult
from repro.obs import MetricsRegistry, RunReport
from repro.obs.events import emit as emit_event
from repro.obs.trace_context import TraceContext
from repro.service.cache import CacheKey, FrozenOptions, ResultCache, freeze_options
from repro.service.errors import UnknownDatabaseError, UnknownWorkerError
from repro.service.journal import (
    JobJournal,
    JournalEntry,
    JournalReplay,
    replay_journal,
)
from repro.service.registry import DatabaseRegistry, RegisteredDatabase
from repro.service.scheduler import (
    CANCELLED,
    FAILED,
    LATENCY_BUCKETS,
    TERMINAL_STATES,
    Job,
    JobScheduler,
)

if TYPE_CHECKING:
    from repro.cluster.coordinator import WorkerClient, WorkerPool
    from repro.cluster.membership import WorkerMembership
    from repro.service.supervise import RetryPolicy


@dataclass(frozen=True, slots=True)
class MineRequest:
    """A resolved, validated mining submission (what a job carries)."""

    database: str
    digest: str
    db: SequenceDatabase
    delta: int
    algorithm: str
    options: FrozenOptions
    #: checkpoint a recovered job resumes from (excluded from identity:
    #: a resumed request is the *same* request, and checkpoints are not
    #: hashable anyway)
    resume_from: MiningCheckpoint | None = field(
        default=None, compare=False, hash=False
    )

    def cache_key(self) -> CacheKey:
        return CacheKey(self.digest, self.delta, self.algorithm, self.options)


@dataclass(frozen=True, slots=True)
class MineOutcome:
    """A completed job's payload: the result and where it came from."""

    result: MiningResult
    cached: bool


class MiningService:
    """Load-once, cache-aware, admission-controlled mining server core."""

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 32,
        cache_entries: int = 128,
        job_history: int = 1024,
        journal: JobJournal | None = None,
        retry_policy: "RetryPolicy | None" = None,
        role: str = "standalone",
        worker_pool: "WorkerPool | None" = None,
        default_algorithm: str = "disc-all",
    ) -> None:
        self.metrics = MetricsRegistry()
        self.registry = DatabaseRegistry()
        self.cache = ResultCache(cache_entries)
        self.journal = journal
        #: "standalone", "coordinator" (with a worker pool) — reported on
        #: ``/healthz``; a cluster coordinator also defaults ``POST /mine``
        #: submissions to *default_algorithm* (``disc-all-cluster``)
        self.role = role
        self.worker_pool = worker_pool
        if worker_pool is not None:
            # breaker/membership gauges land in the service registry, and
            # the reaper sweeps leases for as long as the service lives
            worker_pool.membership.metrics = self.metrics
            worker_pool.membership.start()
        self.default_algorithm = default_algorithm
        self._workers = workers
        self._merge_lock = threading.Lock()
        self._cache_hits = self.metrics.counter("service.cache_hits")
        self._cache_misses = self.metrics.counter("service.cache_misses")
        self._recovered = self.metrics.counter("service.recovered_jobs")
        self._partials = self.metrics.counter("service.partial_results")
        #: ids of jobs this process journaled an "accepted" record for;
        #: lifecycle events of any other job (cache hits, pre-journal
        #: submissions) are not journaled
        self._journaled: set[str] = set()  # guarded-by: _journaled_lock
        self._journaled_lock = threading.Lock()
        self.scheduler = JobScheduler(
            self._run_job,
            workers=workers,
            queue_size=queue_size,
            metrics=self.metrics,
            job_history=job_history,
            retry_policy=retry_policy,
            listener=self._on_job_event,
        )

    # -- databases -----------------------------------------------------------

    def register_database(
        self, name: str, db: SequenceDatabase
    ) -> tuple[RegisteredDatabase, bool]:
        """Register *db* under *name*; returns ``(entry, replaced)``.

        Re-registering a name with different content invalidates every
        cache entry of the previous content's digest.
        """
        entry, replaced_digest = self.registry.register(name, db)
        if replaced_digest is not None:
            dropped = self.cache.invalidate_digest(replaced_digest)
            self.metrics.counter("service.cache_invalidated").add(dropped)
        return entry, replaced_digest is not None

    # -- submissions ---------------------------------------------------------

    def submit_mine(
        self,
        database: str,
        min_support: float | int,
        algorithm: str = "disc-all",
        options: Mapping[str, object] | None = None,
        deadline_seconds: float | None = None,
        trace: TraceContext | None = None,
    ) -> Job:
        """Validate, consult the cache, and queue a mining job.

        A cache hit returns an already-finished job without touching the
        queue (hits are never subject to backpressure); a miss enqueues
        and may raise :class:`ServiceOverloadedError` immediately.

        *trace* is the caller's trace context (parsed from a
        ``traceparent`` header by the HTTP layer); omitted, the service
        mints one, so every job has a trace identity.  Cache hits answer
        under the trace id of the run that actually mined the result.
        """
        entry = self.registry.get(database)
        delta = entry.db.delta_for(min_support)
        get_algorithm(algorithm)  # validates the name before queueing
        if trace is None:
            trace = TraceContext.mint()
        request = MineRequest(
            database=entry.name,
            digest=entry.digest,
            db=entry.db,
            delta=delta,
            algorithm=algorithm,
            options=freeze_options(options),
        )
        cached = self.cache.get(request.cache_key())
        if cached is not None:
            job = self.scheduler.submit_finished(
                request,
                MineOutcome(cached, cached=True),
                trace=_continued_trace(cached, trace),
            )
            # counted only after submit_finished: a hit during shutdown
            # is a 503, not a served response
            with self._merge_lock:
                self._cache_hits.add(1)
            return job
        return self._submit_request(request, deadline_seconds, trace=trace)

    def _submit_request(
        self,
        request: MineRequest,
        deadline_seconds: float | None,
        job_id: str | None = None,
        trace: TraceContext | None = None,
    ) -> Job:
        """Enqueue a cache-missing request and journal its acceptance."""
        if trace is None:
            trace = TraceContext.mint()
        job = self.scheduler.submit(
            request, deadline_seconds=deadline_seconds, job_id=job_id, trace=trace
        )
        if self.journal is not None:
            with self._journaled_lock:
                self._journaled.add(job.id)
            self.journal.append(
                "accepted",
                job.id,
                database=request.database,
                digest=request.digest,
                delta=request.delta,
                algorithm=request.algorithm,
                options=dict(request.options),
                deadline_seconds=deadline_seconds,
                resumed=request.resume_from is not None,
                trace_id=trace.trace_id,
            )
        emit_event(
            "job.accepted",
            job_id=job.id,
            trace_id=trace.trace_id,
            database=request.database,
            algorithm=request.algorithm,
            delta=request.delta,
            resumed=request.resume_from is not None,
        )
        return job

    def job(self, job_id: str) -> Job:
        """Look a job up by id."""
        return self.scheduler.get(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job finishes (test and CLI convenience)."""
        return self.scheduler.wait(job_id, timeout)

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> dict[str, int]:
        """Replay the journal and re-enqueue interrupted jobs.

        Call once at startup, after registering databases and before
        serving traffic.  For each job the journal never saw finish:

        - its database is gone or its content digest changed → the job
          is journaled ``failed`` with an ``unresumable`` code (mining a
          different database than the client asked for would be worse
          than failing);
        - its stored checkpoint is missing, malformed, or does not
          fingerprint-match the run → the job restarts from scratch;
        - otherwise it resumes from the checkpoint, skipping completed
          partitions, under its **original job id** so clients polling
          across the restart keep working.

        Returns a summary: ``resumed`` / ``restarted`` / ``failed`` job
        counts plus ``corrupt_lines`` skipped during replay.  The same
        tallies — including torn/garbage line counts that the summary's
        callers historically dropped — are exported as
        ``service.journal_*`` counters and narrated as a
        ``journal.replayed`` event, so replay health is visible on
        ``/metrics`` instead of only in the return value.
        """
        summary = {"resumed": 0, "restarted": 0, "failed": 0, "corrupt_lines": 0}
        if self.journal is None:
            return summary
        replay = replay_journal(self.journal.path)
        summary["corrupt_lines"] = replay.corrupt_lines
        self.scheduler.ensure_ids_above(_highest_job_number(replay))
        for entry in replay.interrupted():
            summary[self._recover_one(entry)] += 1
        with self._merge_lock:
            self.metrics.counter("service.journal_replayed_lines").add(
                replay.total_lines
            )
            self.metrics.counter("service.journal_corrupt_lines").add(
                replay.corrupt_lines
            )
            self.metrics.counter("service.journal_resumed").add(summary["resumed"])
            self.metrics.counter("service.journal_restarted").add(
                summary["restarted"]
            )
            self.metrics.counter("service.journal_unresumable").add(
                summary["failed"]
            )
        emit_event(
            "journal.replayed",
            level="warn" if replay.corrupt_lines else "info",
            total_lines=replay.total_lines,
            corrupt_lines=replay.corrupt_lines,
            jobs=len(replay.entries),
            resumed=summary["resumed"],
            restarted=summary["restarted"],
            unresumable=summary["failed"],
        )
        return summary

    def _recover_one(self, entry: JournalEntry) -> str:
        """Re-enqueue one interrupted journal entry.

        Returns the summary tally it counts towards: ``resumed``,
        ``restarted`` or ``failed``.
        """
        accepted = entry.accepted
        if accepted is None:
            self._journal_unresumable(
                entry, "journal has no accepted record for this job"
            )
            return "failed"
        try:
            registered = self.registry.get(str(accepted.get("database")))
        except UnknownDatabaseError:
            self._journal_unresumable(
                entry,
                f"database {accepted.get('database')!r} is not registered",
            )
            return "failed"
        if registered.digest != accepted.get("digest"):
            self._journal_unresumable(
                entry,
                f"database {registered.name!r} content changed "
                "since the job was accepted",
            )
            return "failed"
        try:
            delta = int(accepted["delta"])
            algorithm = str(accepted["algorithm"])
            raw_options = accepted.get("options") or {}
            options = freeze_options(
                raw_options if isinstance(raw_options, dict) else {}
            )
            raw_deadline = accepted.get("deadline_seconds")
            deadline = float(raw_deadline) if raw_deadline is not None else None
        except (KeyError, TypeError, ValueError):
            self._journal_unresumable(entry, "accepted record is malformed")
            return "failed"
        checkpoint = self._usable_checkpoint(
            entry, registered.db, delta, algorithm, dict(options)
        )
        request = MineRequest(
            database=registered.name,
            digest=registered.digest,
            db=registered.db,
            delta=delta,
            algorithm=algorithm,
            options=options,
            resume_from=checkpoint,
        )
        trace = _recovered_trace(entry.trace_id)
        emit_event(
            "job.recovered",
            job_id=entry.job_id,
            trace_id=trace.trace_id,
            resumed=checkpoint is not None,
            attempts=entry.attempts,
        )
        self._submit_request(request, deadline, job_id=entry.job_id, trace=trace)
        with self._merge_lock:
            self._recovered.add(1)
        return "restarted" if checkpoint is None else "resumed"

    def _usable_checkpoint(
        self,
        entry: JournalEntry,
        db: SequenceDatabase,
        delta: int,
        algorithm: str,
        options: dict[str, object],
    ) -> MiningCheckpoint | None:
        """The entry's folded checkpoint if it fits the recovered run.

        Returns None when the job has no checkpoint record.  A bad
        checkpoint — a malformed or old-version record, or one that
        does not fingerprint-match — downgrades the job to a
        from-scratch restart: re-mining is always correct, resuming from
        the wrong snapshot never is.
        """
        if not entry.checkpoints or not supports_resume(algorithm):
            return None
        try:
            checkpoint = entry.checkpoint()
            checkpoint.validate_for(run_identity(db, delta, algorithm, options))
        except (DataFormatError, CheckpointMismatchError):
            return None
        return checkpoint

    def _journal_unresumable(self, entry: JournalEntry, reason: str) -> None:
        """Journal a terminal failure for a job that cannot be recovered."""
        if self.journal is not None:
            fields: dict[str, object] = {}
            if entry.trace_id is not None:
                fields["trace_id"] = entry.trace_id
            self.journal.append(
                "finished",
                entry.job_id,
                state="failed",
                error=f"not recoverable after restart: {reason}",
                code="unresumable",
                complete=False,
                **fields,
            )
        emit_event(
            "job.finished",
            level="error",
            job_id=entry.job_id,
            trace_id=entry.trace_id,
            state="failed",
            complete=False,
            code="unresumable",
            reason=reason,
        )

    # -- cluster membership --------------------------------------------------

    def _membership(self) -> "WorkerMembership[WorkerClient]":
        pool = self.worker_pool
        if pool is None:
            raise InvalidParameterError(
                f"this {self.role} server has no worker pool; "
                "start it with --role coordinator to accept workers"
            )
        return pool.membership

    def register_worker(self, url: str) -> dict[str, object]:
        """Admit (or revive/renew) a worker lease (``POST /workers``)."""
        return self._membership().register(url)

    def heartbeat_worker(self, url: str) -> dict[str, object]:
        """Renew a worker's lease (``POST /workers/heartbeat``).

        Raises :class:`UnknownWorkerError` (→ 404) when no live lease
        exists — the signal for the worker to re-register.
        """
        membership = self._membership()
        if not membership.heartbeat(url):
            raise UnknownWorkerError(
                f"no lease for worker {url!r}; register it first"
            )
        return {
            "worker": url,
            "renewed": True,
            "lease_seconds": membership.lease_seconds,
        }

    def deregister_worker(self, url: str) -> dict[str, object]:
        """Gracefully retire a worker (``DELETE /workers?url=...``)."""
        if not self._membership().deregister(url):
            raise UnknownWorkerError(f"no lease for worker {url!r}")
        return {"worker": url, "left": True}

    def workers_detail(self) -> dict[str, object]:
        """Membership table + state counts (``GET /workers``)."""
        membership = self._membership()
        return {
            "workers": membership.describe(),
            "counts": membership.counts(),
            "lease_seconds": membership.lease_seconds,
        }

    # -- introspection -------------------------------------------------------

    def retry_after_hint(self) -> int:
        """Seconds a 429-rejected client should wait before retrying.

        Estimated from the job-latency histogram (average completed-job
        seconds) scaled by how many jobs stand in line per worker, then
        clamped to [1, 60] — an honest hint, not a promise.
        """
        histogram = self.metrics.histogram(
            "service.job_seconds", bounds=LATENCY_BUCKETS
        )
        average = histogram.total / histogram.count if histogram.count else 1.0
        waiting = self.scheduler.queue_depth() + 1
        estimate = average * waiting / max(1, self._workers)
        return max(1, min(60, math.ceil(estimate)))

    def health(self) -> dict[str, object]:
        """Liveness summary for ``GET /healthz``.

        A coordinator additionally probes its worker pool and reports
        connected/live worker counts, mirrored as the
        ``cluster.workers_connected``/``cluster.workers_live`` gauges so
        the same facts appear on ``/metrics`` (including Prometheus).
        """
        doc: dict[str, object] = {
            "status": "shutting_down" if self.scheduler.closed else "ok",
            "role": self.role,
            "databases": len(self.registry),
            "cache_entries": len(self.cache),
            "queue_depth": self.scheduler.queue_depth(),
            "jobs": len(self.scheduler.jobs()),
        }
        pool = self.worker_pool
        if pool is not None:
            membership = pool.membership
            counts = membership.counts()
            # "connected" keeps its pre-membership meaning: workers the
            # coordinator would still consider (anything not retired)
            connected = counts["live"] + counts["suspect"]
            live = pool.live_count()
            with self._merge_lock:
                self.metrics.gauge("cluster.workers_connected").set(connected)
                self.metrics.gauge("cluster.workers_live").set(live)
            doc["workers_connected"] = connected
            doc["workers_live"] = live
            doc["worker_states"] = counts
            doc["workers"] = membership.describe()
            doc["dispatch_threads"] = _dispatch_thread_count()
        return doc

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        """The live registry as plain data for ``GET /metrics``."""
        with self._merge_lock:
            return self.metrics.snapshot()

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut down, draining in-flight jobs unless told otherwise."""
        self.scheduler.close(drain=drain, timeout=timeout)
        if self.worker_pool is not None:
            self.worker_pool.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- the worker-side runner ----------------------------------------------

    def _run_job(self, job: Job) -> MineOutcome:
        request = job.request
        assert isinstance(request, MineRequest)
        key = request.cache_key()
        cached = self.cache.get(key)
        if cached is not None:
            # An identical job completed while this one waited in line.
            with self._merge_lock:
                self._cache_hits.add(1)
            # answer under the trace id of the run that mined the result
            job.trace = _continued_trace(cached, job.trace)
            return MineOutcome(cached, cached=True)
        resumable = supports_resume(request.algorithm)
        # A retry resumes from the job's freshest checkpoint, falling
        # back to the one recovery attached (if any).
        resume_from = job.progress or request.resume_from
        sink = self._checkpoint_sink(job, resume_from) if resumable else None
        result = mine(
            request.db,
            request.delta,
            algorithm=request.algorithm,
            observe=True,
            resume_from=resume_from if resumable else None,
            checkpoint_to=sink,
            **dict(request.options),
        )
        if result.complete:
            self.cache.put(key, result)
        else:
            # Partial results are real progress but not the answer the
            # request asked for: never cache them.
            with self._merge_lock:
                self._partials.add(1)
        with self._merge_lock:
            self._cache_misses.add(1)
            if result.report is not None:
                self._absorb_report(result.report)
        return MineOutcome(result, cached=False)

    def _checkpoint_sink(
        self, job: Job, resume_from: MiningCheckpoint | None
    ) -> Callable[[MiningCheckpoint], None]:
        """A per-job sink journaling partition-boundary checkpoints.

        Every emitted checkpoint refreshes the in-memory ``job.progress``
        (what an in-process retry resumes from).  Only partition
        boundaries — where ``completed_k`` is 0 and new chunks of work
        were completed — are made durable, and each ``checkpoint`` record
        carries only the partitions and patterns completed since the
        previous one (:meth:`MiningCheckpoint.since`), so a run journals
        each pattern once; recovery folds the records back together.
        The run's *resume_from* work is already durable (or there is no
        journal), so the first record starts after it.  Without a
        journal nothing is serialised.  ``job.progress`` is updated
        *after* the journal append: if the append dies (crash, injected
        ``journal.fsync`` fault), the retry resumes from the last
        checkpoint that is actually durable and journals the lost delta
        again — folding a delta twice is harmless.
        """
        journaled = 0 if resume_from is None else resume_from.chunk_count
        partitions = (
            0 if resume_from is None else len(resume_from.completed_partitions)
        )
        patterns = 0 if resume_from is None else len(resume_from.patterns)

        def sink(checkpoint: MiningCheckpoint) -> None:
            nonlocal journaled, partitions, patterns
            if checkpoint.completed_k == 0 and checkpoint.chunk_count > journaled:
                new_work = checkpoint.since(journaled)
                partitions += len(new_work.completed_partitions)
                patterns += len(new_work.patterns)
                if self.journal is not None:
                    self._journal_event(
                        job,
                        "checkpoint",
                        completed_k=checkpoint.completed_k,
                        partitions=partitions,
                        checkpoint=new_work.to_dict(),
                    )
                journaled = checkpoint.chunk_count
                emit_event(
                    "job.checkpoint",
                    job_id=job.id,
                    trace_id=(
                        job.trace.trace_id if job.trace is not None else None
                    ),
                    partitions=partitions,
                    completed_k=checkpoint.completed_k,
                    patterns=patterns,
                )
            job.progress = checkpoint

        return sink

    def _journal_event(self, job: Job, event: str, **fields: object) -> None:
        """Journal one lifecycle record for a job this process accepted."""
        journal = self.journal
        if journal is None:
            return
        with self._journaled_lock:
            if job.id not in self._journaled:
                return
        if job.trace is not None:
            fields.setdefault("trace_id", job.trace.trace_id)
        journal.append(event, job.id, **fields)

    def _on_job_event(self, job: Job, event: str) -> None:
        """Scheduler lifecycle listener: journal + narrate transitions."""
        trace_id = job.trace.trace_id if job.trace is not None else None
        if event == "started":
            self._journal_event(job, "started", attempt=job.attempts)
            emit_event(
                "job.started",
                job_id=job.id,
                trace_id=trace_id,
                attempt=job.attempts,
            )
        elif event == "retry":
            partitions = (
                len(job.progress.completed_partitions)
                if job.progress is not None else 0
            )
            self._journal_event(
                job, "retry", attempt=job.attempts, partitions=partitions
            )
            emit_event(
                "job.retry",
                level="warn",
                job_id=job.id,
                trace_id=trace_id,
                attempt=job.attempts,
                partitions=partitions,
            )
        elif event in TERMINAL_STATES:
            complete = True
            outcome = job.result
            if isinstance(outcome, MineOutcome):
                complete = outcome.result.complete
            self._journal_event(
                job, "finished", state=event,
                error=job.error, code=job.error_code, complete=complete,
            )
            if self.journal is not None:
                with self._journaled_lock:
                    self._journaled.discard(job.id)
            born_finished = (
                isinstance(outcome, MineOutcome)
                and outcome.cached
                and job.attempts == 0
            )
            if event == CANCELLED:
                emit_event(
                    "job.cancelled",
                    level="warn",
                    job_id=job.id,
                    trace_id=trace_id,
                    reason=job.error,
                )
            elif born_finished:
                # a cache hit served without running: narrate it as a
                # hit, under the original mining run's trace id
                emit_event("job.cache_hit", job_id=job.id, trace_id=trace_id)
            else:
                emit_event(
                    "job.finished",
                    level="error" if event == FAILED else "info",
                    job_id=job.id,
                    trace_id=trace_id,
                    state=event,
                    complete=complete,
                    cached=(
                        outcome.cached
                        if isinstance(outcome, MineOutcome)
                        else False
                    ),
                )

    def _absorb_report(self, report: RunReport) -> None:
        """Merge one job's counters into the cumulative service registry.

        Jobs run under their own per-run observation (so reports stay
        per-job exact); the service accumulates only the counters, which
        merge by addition.  Called with ``_merge_lock`` held.
        """
        for entry in report.metrics.values():
            if entry.get("type") != "counter":
                continue
            name = entry.get("name")
            value = entry.get("value")
            if not isinstance(name, str) or not isinstance(value, int):
                continue
            labels = entry.get("labels")
            label_map = labels if isinstance(labels, dict) else {}
            self.metrics.counter(name, **label_map).add(value)


def _dispatch_thread_count() -> int:
    """Live shard-dispatch threads in this process.

    Exposed on ``/healthz`` so the soak harness can assert none are
    orphaned once every job has finished.
    """
    return sum(
        1 for thread in threading.enumerate()
        if thread.name.startswith("shard-dispatch-")
    )


def _continued_trace(
    result: MiningResult, fallback: TraceContext | None
) -> TraceContext | None:
    """The trace identity a cache hit answers under.

    A cached result carries the trace id of the run that actually mined
    it, stamped on the root span of its :class:`RunReport`; a hit must
    answer under *that* id — not a freshly minted one — so clients can
    join their response to the run that produced the bytes.  Falls back
    to the caller's context when the result was mined unobserved.
    """
    report = result.report
    if report is not None and report.spans:
        value = report.spans[0].attrs.get("trace_id")
        if isinstance(value, str):
            try:
                return TraceContext.continue_trace(value)
            except InvalidParameterError:
                return fallback
    return fallback


def _recovered_trace(trace_id: str | None) -> TraceContext:
    """The trace a recovered job resumes under: journaled id, new span."""
    if trace_id is not None:
        try:
            return TraceContext.continue_trace(trace_id)
        except InvalidParameterError:
            return TraceContext.mint()
    return TraceContext.mint()


def _highest_job_number(replay: JournalReplay) -> int:
    """The largest numeric suffix among journaled job ids (0 when none)."""
    highest = 0
    for entry in replay:
        job_id = entry.job_id
        if job_id.startswith("j") and job_id[1:].isdigit():
            highest = max(highest, int(job_id[1:]))
    return highest
