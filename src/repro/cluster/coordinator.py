"""Cluster coordinator: shard fan-out, retry, degrade and merge (system S29).

``disc_all_cluster`` is DISC-all's first-level loop
(:func:`repro.core.discall.mine_first_level`) with
:func:`cluster_executor` as its transport: the loop counts the
1-sequences and walks the ``<(lam)>``-partitions with the paper's
reassignment; the executor cuts the pending partitions into coarse
shards (:func:`plan_shards`) — about :data:`SHARDS_PER_WORKER` per
live worker, each a contiguous range of keys of about equal cost — and
packs each range into one :class:`~repro.cluster.payload.ShardPayload`
holding the union of its partitions' members, so a customer is sent
once per shard rather than once per partition it appears in.  The
payloads fan out over a :class:`WorkerPool` — largest first, one
in-flight shard per worker — and each answer's per-key pattern maps go
back to the loop one ``lam`` at a time, which merges and checkpoints
each partition on the coordinating thread.  A resumed run plans only
the partitions its checkpoint has not finished.

Threading model: the coordinating thread — the one running the loop —
owns dispatch.  It keeps the pending deque, each shard's attempt count,
which worker is busy, every breaker call, the stall clock and degraded
mining; a worker's dispatch thread only runs the ``mine_shard`` RPCs it
is handed and puts each answer on :attr:`ShardRun.outcomes`.  Metrics,
events, checkpoint recording and span grafting stay on the coordinating
thread too, because observations, recorders and the ambient trace are
context-variable scoped and the recorder is single-threaded by design.
Each pass of the loop offers a shard to every idle live worker, so a
worker that joins the pool's
:class:`~repro.cluster.membership.WorkerMembership` mid-job, or whose
circuit breaker's backoff has elapsed, gets one on the next pass (at
most an idle tick of 0.25 s) with no restart; when a shard comes back,
the idle workers are refilled before the loop merges it.

Failure policy: a transport-level failure (dead worker, timeout) is
retryable — the shard goes back to the front of the queue
(``cluster.shards_retried``), whole, and counts only against the failing
worker's :class:`~repro.cluster.breaker.CircuitBreaker`; a retryable
*answer* (5xx) additionally charges the shard's ``max_shard_attempts``
budget.  A worker whose breaker is open gets no shard until its backoff
elapses and ``allow()`` admits one half-open probe; a run that ends
before its probe answers counts the probe as failed.  When *nothing*
can dispatch — every worker retired or open, no RPC in flight — the run
is **stalled**: after ``degrade_after`` seconds the coordinator degrades
gracefully, mining the remaining shards on the coordinating thread with
the workers' own :func:`~repro.cluster.payload.mine_shard`
(``cluster.degraded``, ``cluster.shards_mined_locally``) so the job
still completes byte-identical, just slower.  A shard's attempt budget
and its ``lam`` in ``shard.*`` events are those of its first key.  The
run aborts with :class:`~repro.exceptions.ClusterError` only when a
shard exhausts ``max_shard_attempts``, a worker answers terminally, or
degradation is disabled (``degrade=False``) while stalled.
ClusterError is *terminal* to the service's job supervisor: the
coordinator already retried at shard granularity.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Generator, Iterable, Iterator

from repro import contracts
from repro.cluster.breaker import HALF_OPEN, BreakerConfig
from repro.cluster.membership import WorkerMembership, WorkerRecord
from repro.cluster.payload import (
    PAYLOAD_CONTENT_TYPE,
    ShardPatterns,
    ShardPayload,
    decode_shard_result,
    members_digest,
    mine_shard,
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
from repro.exceptions import ClusterError, InvalidParameterError, ReproError
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

#: shards planned per live worker: enough that a retried or slow shard
#: is a small share of the mine, few enough that a customer is sent only
#: a handful of times
SHARDS_PER_WORKER = 4


@dataclass(frozen=True, slots=True)
class ShardTimeout:
    """A shard RPC deadline that scales with the work a shard carries.

    One fixed timeout misclassifies: a huge skewed partition can take
    minutes on a healthy worker (a false "dead worker"), while a tiny
    shard on a truly dead one should fail fast.  Each first-level
    partition of a shard buys ``base + per_member * len(partition)``,
    and a shard's deadline is the sum over its partitions, so a range of
    keys gets what its partitions would get one at a time.  A partition
    holds exactly the members that contain its key (Step 2.2), so the
    summed partition sizes are counted from the payload's union.
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
        """*seconds* per partition, whatever the partitions' sizes."""
        return cls(base=float(seconds), per_member=0.0)

    def for_payload(self, payload: ShardPayload) -> float:
        seconds = self.base * len(payload.keys)
        if self.per_member:
            keys = set(payload.keys)
            placements = sum(
                len(keys.intersection(item for txn in seq for item in txn))
                for _cid, seq in payload.members
            )
            seconds += self.per_member * placements
        return seconds


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
    ) -> tuple[ShardPatterns, RunReport | None]:
        """POST one payload; returns (per-key patterns, worker report).

        The pattern maps come back in ``payload.keys`` order.  Raises
        :class:`_ShardAttemptError` with ``retryable`` set from the
        failure class: transport errors and 5xx answers flagged
        retryable by the worker can succeed elsewhere; 4xx answers and
        malformed or foreign results — one that misses a key, adds one
        or returns a pattern outside its key's partition — cannot.
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
        except (urllib.error.URLError, OSError, http.client.HTTPException) as exc:
            raise _ShardAttemptError(
                f"worker {self.name} unreachable: {exc}",
                retryable=True, worker_fault=True,
            ) from exc
        try:
            digest, results, report = decode_shard_result(body)
        except ReproError as exc:
            raise _ShardAttemptError(
                f"worker {self.name} returned a malformed shard result: {exc}",
                retryable=False,
            ) from exc
        if digest != payload.digest:
            raise _ShardAttemptError(
                f"worker {self.name} answered for shard {digest[:12]} "
                f"instead of {payload.digest[:12]}",
                retryable=False,
            )
        if results.keys() != set(payload.keys):
            raise _ShardAttemptError(
                f"worker {self.name} answered keys {list(results)} "
                f"for shard keys {list(payload.keys)}",
                retryable=False,
            )
        for lam, patterns in results.items():
            for raw in patterns:
                if not raw or raw[0][0] != lam:
                    raise _ShardAttemptError(
                        f"worker {self.name} returned a pattern outside "
                        f"partition {lam}",
                        retryable=False,
                    )
        return {lam: results[lam] for lam in payload.keys}, report

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
            breaker_config=BreakerConfig(failure_threshold=max_worker_failures),
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
        """One fan-out over *payloads*, for :func:`cluster_executor` to drive."""
        return ShardRun(payloads, traceparent)


#: what a dispatch thread hands back: the worker it asked, the shard,
#: and the worker's ``(per-key patterns, report)`` or the attempt's error
ShardAnswer = tuple[ShardPatterns, RunReport | None]
Outcome = tuple[
    WorkerRecord[WorkerClient], ShardPayload, ShardAnswer | _ShardAttemptError
]


class ShardRun:
    """One fan-out: the pending shards and the queue their answers land on.

    ``pending`` is sorted by payload cost, largest first, so the heaviest
    shards start immediately and the small ones level the tail; only the
    coordinating thread touches it.  :meth:`send` hands a shard to
    its worker's dispatch thread — a daemon named
    ``shard-dispatch-<url>``, started with the worker's first shard —
    which runs the RPC and puts its :data:`Outcome` on ``outcomes``.
    The threads keep no state of their own: :meth:`close` lets each one
    exit once its in-flight RPC, if any, returns, and that answer is
    dropped with the run.
    """

    def __init__(
        self, payloads: Iterable[ShardPayload], traceparent: str | None
    ) -> None:
        self.pending = deque(
            sorted(payloads, key=lambda payload: payload.cost(), reverse=True)
        )
        self.outcomes: "queue.Queue[Outcome]" = queue.Queue()
        self._traceparent = traceparent
        self._inboxes: dict[
            WorkerRecord[WorkerClient], queue.SimpleQueue[ShardPayload | None]
        ] = {}

    def send(
        self, record: WorkerRecord[WorkerClient], shard: ShardPayload
    ) -> None:
        """Hand *shard* to *record*'s dispatch thread, starting it if new."""
        inbox = self._inboxes.get(record)
        if inbox is None:
            inbox = self._inboxes[record] = queue.SimpleQueue()
            threading.Thread(
                target=self._dispatch,
                args=(record, inbox),
                name=f"shard-dispatch-{record.url}",
                daemon=True,
            ).start()
        inbox.put(shard)

    def close(self) -> None:
        """Let every dispatch thread exit after its in-flight RPC."""
        for inbox in self._inboxes.values():
            inbox.put(None)

    def _dispatch(
        self,
        record: WorkerRecord[WorkerClient],
        inbox: queue.SimpleQueue[ShardPayload | None],
    ) -> None:
        while (shard := inbox.get()) is not None:
            answer: ShardAnswer | _ShardAttemptError
            try:
                answer = record.client.mine_shard(shard, self._traceparent)
            except _ShardAttemptError as exc:
                answer = exc
            self.outcomes.put((record, shard, answer))


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


def plan_shards(partitions: list[Partition], count: int) -> list[list[Partition]]:
    """Cut ascending *partitions* into at most *count* contiguous ranges.

    Ranges close as their running cost — item occurrences over each
    partition's members, the ``cost()`` of a one-key shard — reaches the
    next ``count``-th of the total, so they carry about equal work.
    """
    costs = [
        sum(len(txn) for _cid, seq in group for txn in seq)
        for _lam, group in partitions
    ]
    total = sum(costs)
    ranges: list[list[Partition]] = []
    start = running = 0
    for end, cost in enumerate(costs, start=1):
        running += cost
        if (
            end < len(costs)
            and len(ranges) + 1 < count
            and running * count >= total * (len(ranges) + 1)
        ):
            ranges.append(partitions[start:end])
            start = end
    if start < len(partitions):
        ranges.append(partitions[start:])
    return ranges


def cluster_executor(
    partitions: Iterator[Partition],
    job: FirstLevelJob,
    pool: WorkerPool,
    digest: str,
) -> Generator[tuple[int, dict[RawSequence, int]], None, None]:
    """Mine every partition on *pool*'s workers; degrade to this thread.

    *digest* stamps the payloads with their database.  The partitions
    are planned into about :data:`SHARDS_PER_WORKER` shards per live
    worker (:func:`plan_shards`); each shard's per-key patterns are
    yielded one partition at a time as its answer arrives, polling the
    cancel token while it waits on the network.  A run stalled longer
    than ``pool.degrade_after`` mines leftover shards here with
    :func:`~repro.cluster.payload.mine_shard`: the result is
    byte-identical.
    """
    obs = active()
    options = job.options()
    shard_costs = obs.metrics.histogram("cluster.shard_cost")
    live = len(pool.membership.dispatch_candidates())
    payloads: list[ShardPayload] = []
    for shard_range in plan_shards(list(partitions), max(1, live) * SHARDS_PER_WORKER):
        union = {cid: seq for _lam, group in shard_range for cid, seq in group}
        payload = ShardPayload.create(
            [lam for lam, _group in shard_range], job.delta, union.items(),
            job.frequent_items, options=options, database_digest=digest,
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
    pending = run.pending
    attempts: dict[int, int] = {}  # first key -> answered failures
    busy: dict[str, WorkerRecord[WorkerClient]] = {}  # url -> its one RPC

    def dispatch() -> None:
        """Hand the next pending shard to each idle worker that admits one."""
        for record in pool.membership.dispatch_candidates():
            if not pending:
                return
            if record.url in busy or not record.breaker.allow():
                continue
            shard = pending.popleft()
            busy[record.url] = record
            dispatched.add(1)
            emit_event("shard.dispatched", lam=shard.keys[0], worker=record.url)
            run.send(record, shard)

    def fail(message: str) -> ClusterError:
        failed.add(1)
        emit_event("shard.failed", level="error", reason=message)
        return ClusterError(message)

    done = 0
    degraded = False
    stall_since: float | None = None
    try:
        with obs.tracer.span(
            "cluster.map", shards=len(payloads), workers=len(pool)
        ):
            while done < len(payloads):
                token.checkpoint()
                dispatch()
                if busy:
                    stall_since = None
                    try:
                        record, shard, answer = run.outcomes.get(timeout=0.25)
                    except queue.Empty:
                        continue  # the idle tick: re-poll cancel and joins
                    del busy[record.url]
                    lam = shard.keys[0]
                    if isinstance(answer, _ShardAttemptError):
                        if not answer.retryable:
                            raise fail(
                                f"shard {lam} failed terminally on "
                                f"{record.url}: {answer}"
                            )
                        record.breaker.record_failure()
                        tries = attempts.get(lam, 0)
                        if not answer.worker_fault:
                            tries = attempts[lam] = tries + 1
                        if tries >= pool.max_shard_attempts:
                            raise fail(
                                f"shard {lam} failed {tries} times, "
                                f"last on {record.url}: {answer}"
                            )
                        pending.appendleft(shard)
                        retried.add(1)
                        emit_event(
                            "shard.retried", level="warn",
                            lam=lam, worker=record.url, reason=str(answer),
                        )
                        continue
                    record.breaker.record_success()
                    dispatch()  # keep the worker busy while the loop merges
                    results, report = answer
                    if report is not None:
                        _absorb_worker_report(obs, report)
                    worker = record.url
                else:
                    # stalled: shards pending and no worker admitted one
                    now = time.monotonic()
                    if stall_since is None:
                        stall_since = now
                    # degradation is sticky for the run: once local mining
                    # has started, a failed re-probe does not re-arm the grace
                    if not degraded and now - stall_since < pool.degrade_after:
                        time.sleep(0.02)
                        continue
                    if not pool.degrade:
                        raise fail(
                            "no live workers remain and degraded mining is "
                            f"disabled ({len(pending)} shards pending)"
                        )
                    if not degraded:
                        degraded = True
                        emit_event(
                            "cluster.degraded", level="warn",
                            reason="no dispatchable workers", pending=len(pending),
                        )
                    # the cheap end: a worker that rejoins takes the costly one
                    shard = pending.pop()
                    results = mine_shard(shard)
                    mined_locally.add(1)
                    worker = "local"
                yield from results.items()
                done += 1
                merged.add(1)
                emit_event(
                    "shard.completed", lam=shard.keys[0], worker=worker,
                    patterns=sum(len(found) for found in results.values()),
                )
    finally:
        run.close()
        # a probe whose answer this run will never read must not hold
        # its worker's half-open slot: count it as failed
        for record in busy.values():
            if record.breaker.state == HALF_OPEN:
                record.breaker.record_failure()


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
