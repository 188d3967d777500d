"""Job scheduler: bounded queue, worker pool, deadlines (system S27).

Admission control is the point: the submission queue is bounded, and a
submission finding it full is rejected *immediately* with
:class:`ServiceOverloadedError` — explicit backpressure instead of
unbounded queueing.  Worker threads pop jobs in FIFO order and hand them
to the runner under a :mod:`repro.core.cancel` scope, so a per-job
deadline unwinds the miner cooperatively at its next round boundary.

The scheduler is generic: it knows nothing about mining.  The runner
callable receives the :class:`Job` and returns the job's result payload;
the service layer supplies a runner that consults the result cache and
calls :func:`repro.mine`.

With a :class:`~repro.service.supervise.RetryPolicy` attached, a worker
whose attempt dies with a *retryable* exception (see
:func:`~repro.service.supervise.classify`) re-runs the job after a
capped, jittered backoff instead of failing it; without one (the
default) the first failure is final, as before.  A *listener* callback
observes lifecycle transitions (``started`` / ``retry`` / terminal
state) outside the scheduler lock — the service layer uses it to write
the durable job journal.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.core.cancel import CancelToken, cancel_scope
from repro.exceptions import (
    InvalidParameterError,
    OperationCancelledError,
    ReproError,
)
from repro.faults import fault_point
from repro.obs.metrics import MetricsRegistry, NoopMetricsRegistry
from repro.obs.trace_context import TraceContext, trace_scope
from repro.service.errors import (
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownJobError,
)
from repro.service.supervise import RETRYABLE, RetryPolicy, backoff_delay, classify

if TYPE_CHECKING:
    from repro.core.checkpoint import MiningCheckpoint

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Bucket bounds (seconds) for the job-latency histogram.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

_SENTINEL = object()


class Job:
    """One scheduled unit of work and its lifecycle record."""

    __slots__ = (
        "id", "request", "state", "result", "error", "error_code",
        "token", "submitted_at", "started_at", "finished_at", "done_event",
        "attempts", "progress", "trace",
    )

    def __init__(
        self,
        job_id: str,
        request: object,
        token: CancelToken,
        trace: TraceContext | None = None,
    ) -> None:
        self.id = job_id
        self.request = request
        self.state = QUEUED
        self.result: object | None = None
        self.error: str | None = None
        self.error_code: str | None = None
        self.token = token
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.done_event = threading.Event()
        #: runner invocations so far (0 until the first start)
        self.attempts = 0
        #: freshest mining checkpoint; retries resume from here.  Dropped
        #: once the job finishes: the result (or the journal) holds the work
        self.progress: "MiningCheckpoint | None" = None
        #: the trace identity this job runs (and journals, retries) under
        self.trace = trace

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    def queued_seconds(self) -> float:
        """Time spent waiting in the queue."""
        reference = self.started_at or self.finished_at or time.monotonic()
        return max(0.0, reference - self.submitted_at)

    def run_seconds(self) -> float:
        """Time spent inside the runner (0.0 before it starts)."""
        if self.started_at is None:
            return 0.0
        reference = self.finished_at or time.monotonic()
        return max(0.0, reference - self.started_at)


class JobScheduler:
    """Bounded-queue worker pool with typed rejection and deadlines."""

    def __init__(
        self,
        runner: Callable[[Job], object],
        workers: int = 2,
        queue_size: int = 32,
        metrics: MetricsRegistry | None = None,
        job_history: int = 1024,
        retry_policy: RetryPolicy | None = None,
        listener: Callable[[Job, str], None] | None = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if queue_size < 1:
            raise InvalidParameterError(
                f"queue_size must be >= 1, got {queue_size}"
            )
        self._runner = runner
        self._retry_policy = retry_policy
        self._listener = listener
        self._metrics = metrics if metrics is not None else NoopMetricsRegistry()
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock
        self._finished_order: deque[str] = deque()  # guarded-by: _lock
        self._job_history = job_history
        self._ids = itertools.count(1)  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._depth = self._metrics.gauge("service.queue_depth")
        self._rejected = self._metrics.counter("service.rejected")
        self._retries = self._metrics.counter("service.retries")
        self._listener_errors = self._metrics.counter("service.listener_errors")
        self._latency = self._metrics.histogram(
            "service.job_seconds", bounds=LATENCY_BUCKETS
        )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{n}", daemon=True
            )
            for n in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        request: object,
        deadline_seconds: float | None = None,
        job_id: str | None = None,
        trace: TraceContext | None = None,
    ) -> Job:
        """Queue *request*; reject immediately when the queue is full.

        *job_id* lets crash recovery re-enqueue a journaled job under
        its original id, so clients polling across a restart keep
        working; omitted, a fresh id is generated.  *trace* is the trace
        identity the job's attempts run under.
        """
        token = (
            CancelToken.with_timeout(deadline_seconds)
            if deadline_seconds is not None
            else CancelToken()
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            if job_id is not None and job_id in self._jobs:
                raise InvalidParameterError(f"job id {job_id!r} already exists")
            job = Job(
                job_id or self._generate_id_locked(), request, token, trace=trace
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self._rejected.add(1)
                raise ServiceOverloadedError(
                    f"submission queue is full ({self._queue.maxsize} "
                    "pending); retry later"
                ) from None
            self._jobs[job.id] = job
        self._depth.set(self._queue.qsize())
        return job

    def submit_finished(
        self,
        request: object,
        result: object,
        trace: TraceContext | None = None,
    ) -> Job:
        """A job born finished (e.g. a cache hit): no queue, no worker.

        The caller gets a normal job id and payload, but the submission
        never occupies queue capacity, so cache hits are exempt from
        backpressure by construction.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            job = Job(self._generate_id_locked(), request, CancelToken(), trace=trace)
            self._jobs[job.id] = job
            job.result = result
            job.started_at = job.submitted_at
            self._finish_locked(job, DONE, None, None)
        self._notify(job, DONE)
        return job

    def _generate_id_locked(self) -> str:
        """A fresh job id, skipping any explicitly-submitted ones."""
        while True:
            job_id = f"j{next(self._ids):06d}"
            if job_id not in self._jobs:
                return job_id

    def ensure_ids_above(self, floor: int) -> None:
        """Never generate ids numbered <= *floor* (recovery support).

        Recovery replays a journal whose finished jobs are gone from the
        in-memory table; without advancing the counter a new submission
        could reuse one of their ids and corrupt the journal's per-job
        history.
        """
        with self._lock:
            current = next(self._ids) - 1
            self._ids = itertools.count(max(current, floor) + 1)

    def get(self, job_id: str) -> Job:
        """The job with *job_id*; raises :class:`UnknownJobError`."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes; raises ``TimeoutError`` if not."""
        job = self.get(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
        return job

    def cancel(self, job_id: str, reason: str = "cancelled by caller") -> Job:
        """Request cooperative cancellation of a job.

        A queued job is finished as cancelled immediately; a running job
        stops at its next checkpoint; a finished job is left untouched.
        """
        job = self.get(job_id)
        finished_here = False
        with self._lock:
            if job.state == QUEUED:
                finished_here = self._finish_locked(
                    job, CANCELLED, reason, "cancelled"
                )
        if finished_here:
            self._notify(job, CANCELLED)
            return job
        if not job.finished:
            job.token.cancel(reason)
        return job

    def jobs(self) -> list[Job]:
        """Snapshot of all retained jobs, submission order."""
        with self._lock:
            return [job for _, job in sorted(self._jobs.items(), key=lambda kv: kv[0])]

    def queue_depth(self) -> int:
        """Jobs currently waiting in the queue."""
        return self._queue.qsize()

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut the pool down.

        With ``drain=True`` (the default) queued jobs are completed
        before the workers exit; with ``drain=False`` queued jobs are
        finished as cancelled without running.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, Job):
                    changed = False
                    with self._lock:
                        if item.state == QUEUED:
                            changed = self._finish_locked(
                                item, CANCELLED, "service shutdown", "shutdown"
                            )
                    if changed:
                        self._notify(item, CANCELLED)
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join(timeout)
        self._depth.set(self._queue.qsize())

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        with self._lock:
            return self._closed

    # -- internals -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            self._depth.set(self._queue.qsize())
            if item is _SENTINEL:
                return
            assert isinstance(item, Job)
            self._run_job(item)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != QUEUED:
                return  # cancelled while waiting in the queue
            if job.token.cancelled():
                changed = self._finish_locked(
                    job, CANCELLED, "deadline exceeded before start", "deadline"
                )
            else:
                changed = False
                job.state = RUNNING
                job.started_at = time.monotonic()
        if job.finished:
            if changed:
                self._notify(job, CANCELLED)
            return
        # every attempt (including fault injection and retries) runs under
        # the job's trace identity, so mine() spans, checkpoint sinks and
        # journal records all correlate on one trace id
        with trace_scope(job.trace):
            while True:
                job.attempts += 1
                self._notify(job, "started")
                try:
                    with cancel_scope(job.token):
                        fault_point("worker.crash")
                        result = self._runner(job)
                except OperationCancelledError as exc:
                    code = (
                        "deadline" if "deadline" in job.token.reason else "cancelled"
                    )
                    self._finish(job, CANCELLED, str(exc), code)
                    return
                except Exception as exc:  # keep the worker alive on runner bugs
                    policy = self._retry_policy
                    if policy is not None and self._retry_allowed(job, exc):
                        self._retries.add(1)
                        self._notify(job, "retry")
                        if self._backoff_wait(
                            job, backoff_delay(job.attempts, policy)
                        ):
                            self._finish(
                                job, CANCELLED,
                                job.token.reason or "cancelled during retry backoff",
                                "cancelled",
                            )
                            return
                        continue
                    if isinstance(exc, ReproError):
                        self._finish(job, FAILED, str(exc), "error")
                    else:
                        self._finish(
                            job, FAILED, f"{type(exc).__name__}: {exc}", "internal"
                        )
                    return
                else:
                    job.result = result
                    self._finish(job, DONE, None, None)
                    return

    def _retry_allowed(self, job: Job, exc: BaseException) -> bool:
        policy = self._retry_policy
        if policy is None:
            return False
        with self._lock:
            closed = self._closed
        return (
            not closed
            and classify(exc) == RETRYABLE
            and job.attempts <= policy.max_retries
            and not job.token.cancelled()
        )

    def _backoff_wait(self, job: Job, delay: float) -> bool:
        """Sleep *delay* seconds in slices; True when interrupted."""
        end = time.monotonic() + delay
        while True:
            with self._lock:
                closed = self._closed
            if closed or job.token.cancelled():
                return True
            remaining = end - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(0.05, remaining))

    def _notify(self, job: Job, event: str) -> None:
        """Invoke the lifecycle listener outside the scheduler lock.

        Listener failures must never take a worker down or wedge a job,
        so they are swallowed here — but counted, because a failing
        journal is an operational problem someone needs to see.
        """
        if self._listener is None:
            return
        try:
            self._listener(job, event)
        except Exception:
            self._listener_errors.add(1)

    def _finish(
        self, job: Job, state: str, error: str | None, code: str | None
    ) -> None:
        with self._lock:
            changed = self._finish_locked(job, state, error, code)
        if changed:
            self._notify(job, state)

    def _finish_locked(
        self, job: Job, state: str, error: str | None, code: str | None
    ) -> bool:
        if job.finished:
            return False
        job.state = state
        job.error = error
        job.error_code = code
        job.progress = None
        job.finished_at = time.monotonic()
        self._metrics.counter("service.jobs", state=state).add(1)
        self._latency.record(job.finished_at - job.submitted_at)
        job.done_event.set()
        self._finished_order.append(job.id)
        while len(self._finished_order) > self._job_history:
            stale = self._finished_order.popleft()
            removed = self._jobs.get(stale)
            if removed is not None and removed.finished:
                del self._jobs[stale]
        return True
