"""Dynamic worker membership for the cluster coordinator (system S30).

PR 8's worker set was a list frozen at coordinator startup.  This module
makes it a *lease table*: workers announce themselves over HTTP
(``POST /workers``), renew a heartbeat lease on an interval, and are
marked ``live → suspect → retired`` as leases lapse.  A coordinator-side
reaper thread sweeps the table, probing suspects' ``/healthz`` before
giving up on them — a worker whose heartbeats are lost but whose data
path still answers is re-admitted, not retired.  Workers joining
mid-job get a shard from the pending queue on the run's next dispatch
pass (see :func:`repro.cluster.coordinator.cluster_executor`) — no
coordinator restart, no job restart.

Statically configured workers (``--worker URL`` on the CLI, or a
:class:`~repro.cluster.coordinator.WorkerPool` built from URLs) join
the same table with ``static=True``: they hold no lease and are never
retired by the reaper — their health is governed entirely by their
:class:`~repro.cluster.breaker.CircuitBreaker`.  A static worker that
later registers over HTTP converts to a leased one.

Every worker owns a circuit breaker (created fresh on rejoin — a new
process deserves a clean slate).  Breaker transitions are narrated as
``breaker.opened`` / ``breaker.half_open`` / ``breaker.closed`` events
and exported as the ``cluster.breaker_state{worker}`` gauge
(0=closed, 1=half_open, 2=open) when a metrics registry is attached.

Fault sites ``worker.register`` and ``worker.heartbeat`` let the chaos
harness fail membership traffic deterministically (see
:mod:`repro.faults`).

Thread model: the lease table is shared by HTTP handler threads
(register/heartbeat/describe), the reaper thread and the coordinating
thread of each cluster run (candidate listing) — all mutable record
state is guarded by one membership lock.  Health probes run *outside*
the lock (they block on sockets); their verdicts are applied under the
lock only if the record generation is unchanged, so a worker that
re-registered mid-probe is never clobbered by a stale verdict.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Generic, Iterator, Protocol, TypeVar

from repro import contracts
from repro.cluster.breaker import (
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.exceptions import InvalidParameterError
from repro.faults import fault_point
from repro.obs.events import emit as emit_event
from repro.obs.metrics import MetricsRegistry

#: membership states, as exported on ``/healthz`` and in events
LIVE = "live"
SUSPECT = "suspect"
RETIRED = "retired"


class WorkerTransport(Protocol):
    """What membership needs from a worker client: a health probe."""

    base_url: str

    def healthy(self, timeout: float = 2.0) -> bool:
        """One liveness probe; False on any failure."""
        ...


ClientT = TypeVar("ClientT", bound=WorkerTransport)


class WorkerRecord(Generic[ClientT]):
    """One worker's row in the lease table.

    ``client`` and ``breaker`` are fixed for the record's generation;
    the mutable lifecycle fields are guarded by the owning
    :class:`WorkerMembership`'s lock.
    """

    __slots__ = (
        "url", "client", "breaker", "state", "static",
        "lease_expires", "joined_at", "heartbeats", "generation",
    )

    def __init__(
        self,
        url: str,
        client: ClientT,
        breaker: CircuitBreaker,
        static: bool,
        lease_expires: float,
        joined_at: float,
        generation: int,
    ) -> None:
        self.url = url
        self.client = client
        self.breaker = breaker
        self.state = LIVE  # guarded-by: membership lock
        self.static = static  # guarded-by: membership lock
        self.lease_expires = lease_expires  # guarded-by: membership lock
        self.joined_at = joined_at  # guarded-by: membership lock
        self.heartbeats = 0  # guarded-by: membership lock
        self.generation = generation


class WorkerMembership(Generic[ClientT]):
    """The coordinator's dynamic lease table of workers."""

    def __init__(
        self,
        client_factory: Callable[[str], ClientT],
        lease_seconds: float = 15.0,
        retire_grace: float | None = None,
        probe_timeout: float = 2.0,
        breaker_config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_seconds <= 0:
            raise InvalidParameterError(
                f"lease_seconds must be > 0, got {lease_seconds}"
            )
        self._client_factory = client_factory
        self.lease_seconds = lease_seconds
        #: how long past its lease a suspect survives before retirement
        self.retire_grace = (
            retire_grace if retire_grace is not None else lease_seconds
        )
        self.probe_timeout = probe_timeout
        self.breaker_config = breaker_config or BreakerConfig()
        self._clock = clock
        #: attach a registry (the service does) to export membership and
        #: breaker gauges; None keeps the module registry-free in tests
        self.metrics: MetricsRegistry | None = None
        self._lock = threading.Lock()
        self._records: dict[str, WorkerRecord[ClientT]] = {}  # guarded-by: _lock
        self._generations = 0  # guarded-by: _lock
        self._reaper: threading.Thread | None = None  # guarded-by: _lock
        self._stop = threading.Event()

    # -- registration protocol ----------------------------------------------

    def register(self, url: str, static: bool = False) -> dict[str, object]:
        """Admit (or revive, or renew) the worker at *url*.

        Called by ``POST /workers`` and by static CLI configuration.
        Registering an unknown or retired URL (re)joins it with a fresh
        breaker and emits ``worker.joined``; registering a known live or
        suspect one just renews its lease (registration is the worker's
        first heartbeat, and re-registration is always safe).  Returns
        the lease document the HTTP layer answers with.
        """
        fault_point("worker.register")
        url = _normalise_url(url)
        now = self._clock()
        joined = False
        with self._lock:
            record = self._records.get(url)
            if record is None or record.state == RETIRED:
                self._generations += 1
                record = WorkerRecord(
                    url,
                    self._client_factory(url),
                    CircuitBreaker(
                        self.breaker_config,
                        clock=self._clock,
                        listener=self._breaker_listener(url),
                    ),
                    static,
                    now + self.lease_seconds,
                    now,
                    self._generations,
                )
                self._records[url] = record
                joined = True
            else:
                record.state = LIVE
                record.lease_expires = now + self.lease_seconds
                if record.static and not static:
                    record.static = False  # converted to a leased worker
        if joined:
            emit_event("worker.joined", worker=url, static=static)
            self._set_breaker_gauge(url, CLOSED_CODE)
        return {
            "worker": url,
            "state": LIVE,
            "lease_seconds": self.lease_seconds,
            "joined": joined,
        }

    def heartbeat(self, url: str) -> bool:
        """Renew the lease of *url*; False when it must re-register.

        A heartbeat from a suspect worker clears the suspicion (the
        worker reached us — that is better evidence than a missed
        lease).  Retired and unknown workers get False: the lease is
        gone, and the worker should answer with a full ``register``.
        """
        fault_point("worker.heartbeat")
        url = _normalise_url(url)
        now = self._clock()
        with self._lock:
            record = self._records.get(url)
            if record is None or record.state == RETIRED:
                return False
            record.state = LIVE
            record.lease_expires = now + self.lease_seconds
            record.heartbeats += 1
            return True

    def deregister(self, url: str) -> bool:
        """Gracefully retire *url* (worker shutting down); False if unknown."""
        url = _normalise_url(url)
        with self._lock:
            record = self._records.get(url)
            if record is None or record.state == RETIRED:
                return False
            record.state = RETIRED
        emit_event("worker.left", worker=url)
        return True

    # -- the reaper ----------------------------------------------------------

    def reap(self, now: float | None = None) -> None:
        """One sweep of the lease table: suspect, probe, retire.

        Leased workers past their lease become ``suspect`` and are
        health-probed; a passing probe re-admits them (lease renewed), a
        failing one past the retire grace retires them.  Static workers
        hold no lease and are skipped entirely.  Deterministic given a
        fake clock — the unit tests drive it directly; the background
        reaper thread (:meth:`start`) just calls it on an interval.
        """
        if now is None:
            now = self._clock()
        suspects: list[WorkerRecord[ClientT]] = []
        newly_suspect: list[tuple[str, float]] = []
        with self._lock:
            for record in self._records.values():
                if record.state == RETIRED or record.static:
                    continue
                if record.state == LIVE and now > record.lease_expires:
                    record.state = SUSPECT
                    newly_suspect.append(
                        (record.url, max(0.0, now - record.lease_expires))
                    )
                if record.state == SUSPECT:
                    suspects.append(record)
        for url, overdue in newly_suspect:
            emit_event(
                "worker.suspected", level="warn", worker=url,
                lease_overdue_seconds=round(overdue, 3),
            )
        for record in suspects:
            # the probe blocks on a socket: never under the lock
            alive = record.client.healthy(timeout=self.probe_timeout)
            retired = False
            with self._lock:
                if self._records.get(record.url) is not record:
                    continue  # re-registered mid-probe; verdict is stale
                if record.state != SUSPECT:
                    continue
                if alive:
                    record.state = LIVE
                    record.lease_expires = now + self.lease_seconds
                elif now > record.lease_expires + self.retire_grace:
                    record.state = RETIRED
                    retired = True
            if retired:
                emit_event(
                    "worker.retired", level="warn", worker=record.url,
                    reason="missed heartbeat lease and failed health probes",
                )

    def start(self, interval: float | None = None) -> None:
        """Start the background reaper thread (idempotent)."""
        if interval is None:
            interval = max(0.5, self.lease_seconds / 3.0)
        with self._lock:
            if self._reaper is not None:
                return
            self._stop.clear()
            self._reaper = threading.Thread(
                target=self._reaper_loop, args=(interval,),
                name="membership-reaper", daemon=True,
            )
            self._reaper.start()

    def stop(self) -> None:
        """Stop the reaper thread (idempotent; joins it briefly)."""
        with self._lock:
            reaper = self._reaper
            self._reaper = None
        if reaper is not None:
            self._stop.set()
            reaper.join(timeout=5.0)

    def _reaper_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.reap()

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            urls = list(self._records)
        return iter(urls)

    def record(self, url: str) -> WorkerRecord[ClientT] | None:
        """The current record for *url* (any state), or None."""
        with self._lock:
            return self._records.get(_normalise_url(url))

    def dispatch_candidates(self) -> list[WorkerRecord[ClientT]]:
        """The live records, each its URL's current generation: the
        workers a run's coordinating thread may hand a shard to."""
        with self._lock:
            return [
                record for record in self._records.values()
                if record.state == LIVE
            ]

    def counts(self) -> dict[str, int]:
        """Record counts by membership state (all states present)."""
        out = {LIVE: 0, SUSPECT: 0, RETIRED: 0}
        with self._lock:
            for record in self._records.values():
                out[record.state] += 1
        return out

    def live_count(self, timeout: float | None = None) -> int:
        """Non-retired workers currently answering their ``/healthz``.

        An active probe, not a lease read: ``/healthz`` callers want to
        know who answers *now*, including static workers that hold no
        lease.  Probes run outside the lock.
        """
        if timeout is None:
            timeout = self.probe_timeout
        with self._lock:
            clients = [
                record.client for record in self._records.values()
                if record.state != RETIRED
            ]
        return sum(1 for client in clients if client.healthy(timeout=timeout))

    def describe(self) -> list[dict[str, object]]:
        """Per-worker detail for ``/healthz`` / ``GET /workers``."""
        now = self._clock()
        rows: list[dict[str, object]] = []
        with self._lock:
            records = list(self._records.values())
        for record in records:
            breaker = record.breaker.snapshot()
            with self._lock:
                row: dict[str, object] = {
                    "url": record.url,
                    "state": record.state,
                    "static": record.static,
                    "heartbeats": record.heartbeats,
                    "breaker": breaker,
                }
                if not record.static and record.state != RETIRED:
                    row["lease_expires_in_seconds"] = round(
                        record.lease_expires - now, 3
                    )
            rows.append(row)
        rows.sort(key=lambda row: str(row["url"]))
        return rows

    # -- breaker wiring ------------------------------------------------------

    def _breaker_listener(self, url: str) -> Callable[[str, str], None]:
        """The transition hook wired into one worker's breaker."""

        def on_transition(old: str, new: str) -> None:
            emit_event(
                _BREAKER_EVENTS[new],
                level="warn" if new == "open" else "info",
                worker=url,
                previous=old,
            )
            self._set_breaker_gauge(url, BREAKER_STATE_CODES[new])

        return on_transition

    def _set_breaker_gauge(self, url: str, code: int) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.gauge("cluster.breaker_state", worker=url).set(code)


#: breaker state -> the event narrating a transition into it (declared
#: in the manifest so the soak grader keys on the same names)
_BREAKER_EVENTS = contracts.BREAKER_EVENT_BY_STATE

CLOSED_CODE = BREAKER_STATE_CODES["closed"]


def _normalise_url(url: str) -> str:
    if not isinstance(url, str) or not url.startswith(("http://", "https://")):
        raise InvalidParameterError(
            f"worker URL must be http(s), got {url!r}"
        )
    return url.rstrip("/")
