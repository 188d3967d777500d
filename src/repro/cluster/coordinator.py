"""Cluster coordinator: shard fan-out, retry, degrade and merge (system S29).

``disc_all_cluster`` is DISC-all's first-level loop
(:func:`repro.core.discall.mine_first_level`) with
:func:`cluster_executor` as its transport: the loop counts the
1-sequences and walks the ``<(lam)>``-partitions with the paper's
reassignment; the executor turns each partition into a
:class:`~repro.cluster.payload.ShardPayload` and fans the payloads out
over a :class:`WorkerPool` — largest first (cost-balanced), one
in-flight shard per worker — and hands each result back to the loop,
which merges and checkpoints it on the coordinating thread.

Threading model: one dispatch thread per *dispatchable* worker pops
payloads, POSTs them and parks the outcome on a notice queue; *all*
bookkeeping — metrics, events, checkpoint recording, span grafting —
happens on the coordinating thread that consumes the queue, because
observations, recorders and the ambient trace are context-variable
scoped and the checkpoint recorder is single-threaded by design.  The
worker set is not frozen at start: the executor's wait loop calls
:meth:`ShardRun.sync_workers` every poll tick, spawning a dispatch
thread for any worker that joined the pool's
:class:`~repro.cluster.membership.WorkerMembership` mid-job (or whose
circuit breaker became ready again) — a freshly registered worker
starts draining the pending queue with no restart.

Failure policy: a transport-level failure (dead worker, timeout) is
retryable — the shard goes back to the front of the queue
(``cluster.shards_retried``) and counts only against the failing
worker's :class:`~repro.cluster.breaker.CircuitBreaker`; a retryable
*answer* (5xx) additionally charges the shard's ``max_shard_attempts``
budget.  A breaker that opens stops that worker's dispatch thread; the
half-open probe is re-admitted by ``sync_workers`` after the backoff.
When *nothing* can dispatch — every worker retired or open, no RPC in
flight — the run is **stalled**: after ``degrade_after`` seconds the
coordinator degrades gracefully, mining the remaining shards on the
coordinating thread with the inline executor's per-partition function
(``cluster.degraded``, ``cluster.shards_mined_locally``) so the job
still completes byte-identical, just slower.  The run aborts with
:class:`~repro.exceptions.ClusterError` only when a shard exhausts
``max_shard_attempts``, a worker answers terminally, or degradation is
disabled (``degrade=False``) while stalled.  ClusterError is *terminal*
to the service's job supervisor: the coordinator already retried at
shard granularity.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Generator, Iterable, Iterator, cast

from repro import contracts
from repro.cluster.breaker import BreakerConfig
from repro.cluster.membership import WorkerMembership, WorkerRecord
from repro.cluster.payload import (
    PAYLOAD_CONTENT_TYPE,
    ShardPayload,
    decode_shard_result,
    members_digest,
)
from repro.core.cancel import active_token
# re-exported: e2ebench/ledger.py patches this name
from repro.core.counting import count_frequent_items as count_frequent_items
from repro.core.discall import (
    DiscAllOutput,
    FirstLevelJob,
    Partition,
    mine_first_level,
)
from repro.core.partition import Member
from repro.core.sequence import RawSequence
from repro.exceptions import ClusterError, DataFormatError, InvalidParameterError
from repro.mining.registry import (
    CANDIDATE_PRUNING,
    CUSTOMER_REDUCING,
    DATABASE_PARTITIONING,
    DISC,
    register_algorithm,
)
from repro.obs import RunReport, active
from repro.obs.context import Observation
from repro.obs.events import emit as emit_event
from repro.obs.trace_context import current_trace
from repro.obs.tracing import NoopTracer


@dataclass(frozen=True, slots=True)
class ShardTimeout:
    """A shard RPC deadline that scales with payload size.

    One fixed timeout misclassifies: a huge skewed partition can take
    minutes on a healthy worker (a false "dead worker"), while a tiny
    shard on a truly dead one should fail fast.  The deadline for a
    payload is ``base + per_member * len(payload.members)``, so cost
    buys time and small shards keep a tight leash.
    """

    base: float = 300.0
    per_member: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise InvalidParameterError(f"timeout must be > 0, got {self.base}")
        if self.per_member < 0:
            raise InvalidParameterError(
                f"per-member timeout must be >= 0, got {self.per_member}"
            )

    @classmethod
    def fixed(cls, seconds: float) -> "ShardTimeout":
        """The pre-scaling behaviour: one deadline for every shard."""
        return cls(base=float(seconds), per_member=0.0)

    def for_payload(self, payload: ShardPayload) -> float:
        return self.base + self.per_member * len(payload.members)


class _ShardAttemptError(Exception):
    """One failed shard RPC, tagged with whether a retry can help.

    ``worker_fault`` marks connection-level failures (unreachable, reset,
    timed out): those count against the *worker's* circuit breaker only,
    not the shard's attempt budget — a dead worker re-trying its own
    requeued shard must not exhaust ``max_shard_attempts`` before its
    breaker opens and hands the shard to a surviving worker.
    """

    def __init__(
        self, message: str, retryable: bool, worker_fault: bool = False
    ) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.worker_fault = worker_fault


class WorkerClient:
    """HTTP client for one worker's ``POST /shards`` endpoint."""

    def __init__(
        self, base_url: str, timeout: float | ShardTimeout = 300.0
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise InvalidParameterError(
                f"worker URL must be http(s), got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = (
            timeout if isinstance(timeout, ShardTimeout)
            else ShardTimeout.fixed(timeout)
        )

    @property
    def name(self) -> str:
        return self.base_url

    def healthy(self, timeout: float = 2.0) -> bool:
        """One ``GET /healthz`` probe; False on any failure."""
        try:
            with urllib.request.urlopen(
                self.base_url + "/healthz", timeout=timeout
            ) as response:
                doc = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            return False
        return isinstance(doc, dict) and doc.get("status") == "ok"

    def mine_shard(
        self, payload: ShardPayload, traceparent: str | None = None
    ) -> tuple[dict[RawSequence, int], RunReport | None]:
        """POST one payload; returns (patterns, worker report).

        Raises :class:`_ShardAttemptError` with ``retryable`` set from
        the failure class: transport errors and 5xx answers flagged
        retryable by the worker can succeed elsewhere; 4xx answers and
        malformed or foreign results cannot.
        """
        headers = {"Content-Type": PAYLOAD_CONTENT_TYPE}
        if traceparent is not None:
            headers["traceparent"] = traceparent
        request = urllib.request.Request(
            self.base_url + "/shards",
            data=payload.to_bytes(),
            headers=headers,
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout.for_payload(payload)
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            raise self._http_error(exc) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise _ShardAttemptError(
                f"worker {self.name} unreachable: {exc}",
                retryable=True, worker_fault=True,
            ) from exc
        try:
            doc = json.loads(body.decode("utf-8"))
            if not isinstance(doc, dict):
                raise DataFormatError("shard result must be a JSON object")
            lam, digest, patterns, report = decode_shard_result(doc)
        except (ValueError, DataFormatError) as exc:
            raise _ShardAttemptError(
                f"worker {self.name} returned a malformed shard result: {exc}",
                retryable=False,
            ) from exc
        if lam != payload.lam or digest != payload.digest:
            raise _ShardAttemptError(
                f"worker {self.name} answered for shard {lam}/{digest[:12]} "
                f"instead of {payload.lam}/{payload.digest[:12]}",
                retryable=False,
            )
        for raw in patterns:
            if not raw or not raw[0] or raw[0][0] != payload.lam:
                raise _ShardAttemptError(
                    f"worker {self.name} returned a pattern outside "
                    f"partition {payload.lam}",
                    retryable=False,
                )
        return patterns, report

    def _http_error(self, exc: urllib.error.HTTPError) -> _ShardAttemptError:
        """Translate an HTTP error answer, honouring the worker's verdict."""
        retryable = contracts.retryable_for_status(exc.code)
        message = f"worker {self.name} answered {exc.code}"
        try:
            doc = json.loads(exc.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError, OSError):
            # a bare status without a readable body is still classified
            return _ShardAttemptError(message, retryable=retryable)
        error = doc.get("error", {}) if isinstance(doc, dict) else {}
        if isinstance(error, dict):
            if isinstance(error.get("retryable"), bool):
                retryable = bool(error["retryable"])
            if error.get("message"):
                message = f"{message}: {error['message']}"
        return _ShardAttemptError(message, retryable=retryable)


class WorkerPool:
    """The coordinator's worker set plus its dispatch/degradation policy.

    Workers live in a :class:`WorkerMembership` lease table: URLs given
    here are registered *statically* (no heartbeat lease, health ruled
    by their breakers alone), and more workers may join at runtime via
    ``POST /workers`` → :meth:`WorkerMembership.register`.  The pool may
    start empty (``allow_empty=True``, as ``repro serve`` does when all
    workers self-register) — a run that finds nobody to dispatch to
    degrades to local mining after ``degrade_after`` seconds unless
    ``degrade=False`` demands a hard :class:`ClusterError` instead.

    ``max_worker_failures`` is the breaker's failure threshold:
    that many consecutive transport/5xx failures stop dispatch to the
    worker until its half-open probe succeeds.
    """

    def __init__(
        self,
        urls: Iterable[str] = (),
        timeout: float | ShardTimeout = 300.0,
        max_shard_attempts: int = 3,
        max_worker_failures: int = 3,
        breaker_config: BreakerConfig | None = None,
        lease_seconds: float = 15.0,
        retire_grace: float | None = None,
        probe_timeout: float = 2.0,
        degrade: bool = True,
        degrade_after: float = 5.0,
        allow_empty: bool = False,
    ) -> None:
        if max_shard_attempts < 1:
            raise InvalidParameterError(
                f"max_shard_attempts must be >= 1, got {max_shard_attempts}"
            )
        if max_worker_failures < 1:
            raise InvalidParameterError(
                f"max_worker_failures must be >= 1, got {max_worker_failures}"
            )
        if degrade_after < 0:
            raise InvalidParameterError(
                f"degrade_after must be >= 0, got {degrade_after}"
            )
        self.shard_timeout = (
            timeout if isinstance(timeout, ShardTimeout)
            else ShardTimeout.fixed(timeout)
        )
        self.max_shard_attempts = max_shard_attempts
        self.max_worker_failures = max_worker_failures
        self.degrade = degrade
        self.degrade_after = degrade_after
        self.membership: WorkerMembership[WorkerClient] = WorkerMembership(
            client_factory=self._make_client,
            lease_seconds=lease_seconds,
            retire_grace=retire_grace,
            probe_timeout=probe_timeout,
            breaker_config=(
                breaker_config
                or BreakerConfig(failure_threshold=max_worker_failures)
            ),
        )
        urls = list(urls)
        if not urls and not allow_empty:
            raise InvalidParameterError(
                "a worker pool needs at least one worker URL"
            )
        for url in urls:
            self.membership.register(url, static=True)

    def _make_client(self, url: str) -> WorkerClient:
        return WorkerClient(url, timeout=self.shard_timeout)

    def __len__(self) -> int:
        return len(self.membership)

    @property
    def urls(self) -> list[str]:
        return list(self.membership)

    def live_count(self, timeout: float = 2.0) -> int:
        """Workers currently answering ``GET /healthz``."""
        return self.membership.live_count(timeout=timeout)

    def close(self) -> None:
        """Stop the membership reaper thread, if one was started."""
        self.membership.stop()

    def run(
        self, payloads: Iterable[ShardPayload], traceparent: str | None = None
    ) -> "ShardRun":
        """Start one fan-out over *payloads*; consume ``run.notices``."""
        return ShardRun(self, list(payloads), traceparent)


#: notice kinds a ShardRun posts (first element of each tuple)
DISPATCHED = "dispatched"
SHARD_DONE = "done"
SHARD_RETRY = "retry"
RUN_FAILED = "failed"


class ShardRun:
    """One fan-out execution: dispatch threads feeding a notice queue.

    The pending deque is sorted by payload cost, largest first, so the
    heaviest partitions start immediately and the small ones level the
    tail.  Dispatch threads are spawned per dispatchable worker by
    :meth:`sync_workers` — called again on every coordinating-loop tick,
    so workers that join mid-run (or whose breaker backoff elapses) pick
    up pending shards immediately.  Threads are daemons: ``close()``
    stops new dispatch but does not interrupt an in-flight RPC — its
    eventual outcome is simply never consumed; :meth:`join` bounds the
    wait for them at shutdown.
    """

    def __init__(
        self,
        pool: WorkerPool,
        payloads: list[ShardPayload],
        traceparent: str | None,
    ) -> None:
        self._pool = pool
        self._traceparent = traceparent
        self.notices: "queue.Queue[tuple[object, ...]]" = queue.Queue()
        self._wakeup = threading.Condition()
        self._pending = deque(  # guarded-by: _wakeup
            sorted(payloads, key=lambda payload: payload.cost(), reverse=True)
        )
        self._attempts: dict[int, int] = {}  # guarded-by: _wakeup
        self._remaining = len(payloads)  # guarded-by: _wakeup
        self._in_flight = 0  # guarded-by: _wakeup
        self._aborted = False  # guarded-by: _wakeup
        # coordinating-thread only: worker url -> its dispatch thread
        self._threads: dict[str, threading.Thread] = {}
        self.sync_workers()

    def close(self) -> None:
        """Stop dispatching new shards (idempotent)."""
        with self._wakeup:
            self._aborted = True
            self._wakeup.notify_all()

    # -- coordinating-thread control ----------------------------------------

    def sync_workers(self) -> int:
        """Spawn dispatch threads for newly dispatchable workers.

        Called from the coordinating thread on every poll tick.  A
        worker gets (at most) one live thread; a worker that joined the
        membership mid-run, or whose breaker left the open state, gets a
        thread here and starts pulling from the pending queue.  Returns
        the number of threads spawned.
        """
        with self._wakeup:
            if self._aborted or self._remaining == 0:
                return 0
        spawned = 0
        for record in self._pool.membership.dispatch_candidates():
            thread = self._threads.get(record.url)
            if thread is not None and thread.is_alive():
                continue
            thread = threading.Thread(
                target=self._dispatch,
                args=(record,),
                name=f"shard-dispatch-{record.url}",
                daemon=True,
            )
            self._threads[record.url] = thread
            thread.start()
            spawned += 1
        return spawned

    def stalled(self) -> bool:
        """Pending shards with nothing able to move them.

        True when work remains but no RPC is in flight and every
        dispatch thread has exited (breakers open, workers retired).
        The coordinating loop degrades to local mining when this holds
        for ``degrade_after`` seconds.
        """
        alive = any(thread.is_alive() for thread in self._threads.values())
        if alive:
            return False
        with self._wakeup:
            return (
                not self._aborted
                and self._remaining > 0
                and bool(self._pending)
                and self._in_flight == 0
            )

    def take_local(self) -> ShardPayload | None:
        """Pop one pending shard for the coordinator to mine itself.

        Takes from the *cheap* end of the cost-sorted deque: if a worker
        rejoins mid-degradation its thread keeps draining the expensive
        end, and the slower local miner levels the tail.
        """
        with self._wakeup:
            if self._aborted or not self._pending:
                return None
            return self._pending.pop()

    def local_done(self, shard: ShardPayload) -> None:
        """Account one locally mined shard (no notice: same thread)."""
        with self._wakeup:
            self._remaining -= 1
            if self._remaining == 0:
                self._wakeup.notify_all()

    def pending_count(self) -> int:
        with self._wakeup:
            return len(self._pending)

    def join(self, timeout: float = 5.0) -> bool:
        """Join all dispatch threads; True when every one has exited.

        ``close()`` first, then join: woken waiters observe the abort
        and exit; only a thread blocked in an in-flight RPC can keep the
        grace period busy, and it is a daemon — False just means the
        caller should not wait longer.
        """
        deadline = time.monotonic() + timeout
        for thread in list(self._threads.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        return not any(
            thread.is_alive() for thread in self._threads.values()
        )

    # -- dispatch threads ----------------------------------------------------

    def _dispatch(self, record: WorkerRecord[WorkerClient]) -> None:
        membership = self._pool.membership
        while True:
            if not self._await_work():
                return
            if not membership.dispatch_allowed(record):
                return  # retired, or replaced by a rejoined generation
            if not record.breaker.allow():
                return  # open: sync_workers re-probes after the backoff
            shard = self._take_shard()
            if shard is None:
                # lost the pop race (or the run just finished): hand a
                # half-open probe slot back so the breaker cannot wedge
                record.breaker.cancel_probe()
                continue
            self.notices.put((DISPATCHED, shard.lam, record.url))
            try:
                patterns, report = record.client.mine_shard(
                    shard, traceparent=self._traceparent
                )
            except _ShardAttemptError as exc:
                if not exc.retryable:
                    self._abandon(shard)
                    self._abort(
                        f"shard {shard.lam} failed terminally on "
                        f"{record.url}: {exc}"
                    )
                    return
                record.breaker.record_failure()
                self._requeue(
                    shard, record.url, str(exc),
                    count_attempt=not exc.worker_fault,
                )
                continue
            record.breaker.record_success()
            self._complete(shard, record.url, patterns, report)

    def _await_work(self) -> bool:
        """Park until a shard is (probably) available; False when done."""
        with self._wakeup:
            while True:
                if self._aborted or self._remaining == 0:
                    return False
                if self._pending:
                    return True
                self._wakeup.wait(0.1)

    def _take_shard(self) -> ShardPayload | None:
        with self._wakeup:
            if self._aborted or not self._pending:
                return None
            self._in_flight += 1
            return self._pending.popleft()

    def _abandon(self, shard: ShardPayload) -> None:
        """Drop an in-flight shard that will never be requeued."""
        with self._wakeup:
            self._in_flight -= 1

    def _requeue(
        self,
        shard: ShardPayload,
        worker: str,
        message: str,
        count_attempt: bool = True,
    ) -> None:
        with self._wakeup:
            self._in_flight -= 1
            attempts = self._attempts.get(shard.lam, 0)
            if count_attempt:
                attempts += 1
                self._attempts[shard.lam] = attempts
            exhausted = attempts >= self._pool.max_shard_attempts
            if not exhausted:
                self._pending.appendleft(shard)
                self._wakeup.notify_all()
        if exhausted:
            self._abort(
                f"shard {shard.lam} failed {attempts} times, "
                f"last on {worker}: {message}"
            )
        else:
            self.notices.put((SHARD_RETRY, shard.lam, worker, message))

    def _complete(
        self,
        shard: ShardPayload,
        worker: str,
        patterns: dict[RawSequence, int],
        report: RunReport | None,
    ) -> None:
        with self._wakeup:
            self._in_flight -= 1
            self._remaining -= 1
            if self._remaining == 0:
                self._wakeup.notify_all()
        self.notices.put((SHARD_DONE, shard.lam, worker, patterns, report))

    def _abort(self, message: str) -> None:
        with self._wakeup:
            already = self._aborted
            self._aborted = True
            self._wakeup.notify_all()
        if not already:
            self.notices.put((RUN_FAILED, message))


def _absorb_worker_report(obs: Observation, report: RunReport) -> None:
    """Fold one worker's report into the coordinating observation.

    Counters add into the run's registry, so the job-wide RunReport (and
    the service registry it is later absorbed into) covers every worker;
    the worker's span tree is grafted under a ``shard.report`` wrapper,
    but only when a real tracer is active — the no-op tracer's shared
    record must never be mutated.
    """
    for entry in report.metrics.values():
        if entry.get("type") != "counter":
            continue
        name = entry.get("name")
        value = entry.get("value")
        if not isinstance(name, str) or not isinstance(value, int):
            continue
        labels = entry.get("labels")
        label_map = dict(labels) if isinstance(labels, dict) else {}
        obs.metrics.counter(name, **label_map).add(value)
    if obs.enabled and report.spans and not isinstance(obs.tracer, NoopTracer):
        with obs.tracer.span("shard.report") as record:
            record.children.extend(report.spans)


def cluster_executor(
    partitions: Iterator[Partition],
    job: FirstLevelJob,
    pool: WorkerPool,
    digest: str,
) -> Generator[tuple[int, dict[RawSequence, int]], None, None]:
    """Mine every partition on *pool*'s workers; degrade to this thread.

    *digest* stamps the payloads with their database.  Yields each
    shard's patterns as they arrive, polling the cancel token while it
    waits on the network.  A run stalled longer than
    ``pool.degrade_after`` mines leftover shards here with
    :meth:`FirstLevelJob.mine`: the result is byte-identical.
    """
    obs = active()
    options = job.options()
    shard_costs = obs.metrics.histogram("cluster.shard_cost")
    payloads: list[ShardPayload] = []
    for lam, group in partitions:
        payload = ShardPayload.create(
            lam, job.delta, group, job.frequent_items,
            options=options, database_digest=digest,
        )
        shard_costs.record(payload.cost())
        payloads.append(payload)

    dispatched = obs.metrics.counter("cluster.shards_dispatched")
    retried = obs.metrics.counter("cluster.shards_retried")
    failed = obs.metrics.counter("cluster.shards_failed")
    merged = obs.metrics.counter("cluster.shards_merged")
    mined_locally = obs.metrics.counter("cluster.shards_mined_locally")

    # Shard RPCs propagate the job's trace as a child span context, so
    # every worker's spans and events share the submitting trace id.
    trace = current_trace()
    traceparent = trace.child().to_traceparent() if trace is not None else None

    token = active_token()
    run = pool.run(payloads, traceparent=traceparent)
    done = 0
    degraded = False
    stall_since: float | None = None
    try:
        with obs.tracer.span(
            "cluster.map", shards=len(payloads), workers=len(pool)
        ):
            while done < len(payloads):
                token.checkpoint()
                run.sync_workers()
                if run.stalled():
                    if stall_since is None:
                        stall_since = time.monotonic()
                else:
                    stall_since = None
                try:
                    # poll fast while stalled, and not at all while
                    # mining locally: degraded mining waits on mining,
                    # not on the idle tick between every shard
                    if degraded and stall_since is not None:
                        notice = run.notices.get_nowait()
                    else:
                        notice = run.notices.get(
                            timeout=0.02 if stall_since is not None else 0.25
                        )
                except queue.Empty:
                    notice = None
                if notice is not None:
                    kind = notice[0]
                    if kind == DISPATCHED:
                        _, lam, worker = notice
                        dispatched.add(1)
                        emit_event("shard.dispatched", lam=lam, worker=worker)
                    elif kind == SHARD_RETRY:
                        _, lam, worker, message = notice
                        retried.add(1)
                        emit_event(
                            "shard.retried", level="warn",
                            lam=lam, worker=worker, reason=message,
                        )
                    elif kind == SHARD_DONE:
                        _, lam, worker = notice[:3]
                        patterns = cast("dict[RawSequence, int]", notice[3])
                        report = cast("RunReport | None", notice[4])
                        yield cast(int, lam), patterns
                        done += 1
                        merged.add(1)
                        if report is not None:
                            _absorb_worker_report(obs, report)
                        emit_event(
                            "shard.completed",
                            lam=lam, worker=worker, patterns=len(patterns),
                        )
                    else:  # RUN_FAILED
                        _, message = notice
                        failed.add(1)
                        emit_event("shard.failed", level="error", reason=message)
                        raise ClusterError(str(message))
                    continue
                if stall_since is None:
                    continue
                now = time.monotonic()
                # degradation is sticky for the run: once local mining
                # has started, a failed re-probe does not re-arm the grace
                if not degraded and now - stall_since < pool.degrade_after:
                    continue
                if not pool.degrade:
                    message = (
                        "no live workers remain and degraded mining is "
                        f"disabled ({run.pending_count()} shards pending)"
                    )
                    failed.add(1)
                    emit_event("shard.failed", level="error", reason=message)
                    raise ClusterError(message)
                if not degraded:
                    degraded = True
                    emit_event(
                        "cluster.degraded", level="warn",
                        reason="no dispatchable workers",
                        pending=run.pending_count(),
                    )
                local = run.take_local()
                if local is None:
                    continue
                local_patterns = job.mine(local.lam, list(local.members))
                yield local.lam, local_patterns
                run.local_done(local)
                done += 1
                merged.add(1)
                mined_locally.add(1)
                emit_event(
                    "shard.completed",
                    lam=local.lam, worker="local",
                    patterns=len(local_patterns),
                )
    finally:
        run.close()


def disc_all_cluster(
    members: Iterable[Member],
    delta: int,
    pool: WorkerPool,
    bilevel: bool = True,
    reduce: bool = True,
    backend: str = "table",
) -> DiscAllOutput:
    """DISC-all with first-level partitions mined on cluster workers.

    Returns the same pattern map as :func:`repro.core.discall.disc_all`
    (asserted by the tests); the first-level loop is
    :func:`~repro.core.discall.mine_first_level`'s, so cancel, checkpoint
    and resume behave as on every other path.
    """
    members = list(members)
    executor = partial(cluster_executor, pool=pool, digest=members_digest(members))
    return mine_first_level(members, delta, executor, bilevel, reduce, backend)


def register_cluster_algorithm(
    pool: WorkerPool, name: str = "disc-all-cluster"
) -> None:
    """Register ``disc-all-cluster`` bound to *pool* (resumable).

    Re-registration replaces a previous pool binding: the coordinator
    process owns the name, and each ``repro serve --role coordinator``
    invocation binds it to that server's pool.
    """

    def _cluster(
        members: Iterable[Member], delta: int, **options: object
    ) -> dict[RawSequence, int]:
        return disc_all_cluster(members, delta, pool=pool, **options).patterns  # type: ignore[arg-type]

    register_algorithm(
        name,
        _cluster,
        replace=True,
        strategies={CANDIDATE_PRUNING, DATABASE_PARTITIONING, CUSTOMER_REDUCING, DISC},
        resumable=True,
    )
