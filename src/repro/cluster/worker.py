"""Cluster worker: mines one shard payload per HTTP request (system S29).

A worker is deliberately stateless between requests — it holds no
databases and no job queue.  Every ``POST /shards`` carries a complete
:class:`~repro.cluster.payload.ShardPayload`: a range of first-level
keys plus the union of their members.  The worker rebuilds the range's
partitions with the first-level loop, mines them under its own
observation and answers with one pattern map per key plus the run's
:class:`~repro.obs.RunReport`, which the coordinator folds into the
job-wide report.  Losing a worker therefore loses nothing but in-flight
work: the coordinator re-dispatches the whole shard elsewhere.

Endpoints::

    GET  /            endpoint index
    GET  /healthz     {"status": "ok", "role": "worker", ...}
    GET  /metrics     worker counters; JSON or Prometheus text
    POST /shards      mine one binary payload

Tracing: an incoming ``traceparent`` header scopes the mining run, so
the worker's spans and the coordinator's job share one trace id; the
response echoes the header and carries ``trace_id`` in the body.

Errors: a malformed payload — bad framing or digest, a version other
than the current one, or keys that are empty, repeated, unordered or
not frequent — answers 400 ``bad_payload`` with ``retryable: false``
(the bytes will not improve on another worker); a body larger than the
worker's ``max_shard_bytes`` answers 413 with ``retryable: false``
*without reading it*; a mining failure answers 500 with ``retryable``
set from the service's retry classification, which the coordinator
honours when deciding between re-dispatch and abort.

Membership: a worker started with ``repro serve --role worker
--coordinator URL`` runs a :class:`CoordinatorLink` — it registers its
own base URL with the coordinator (``POST /workers``), renews the
heartbeat lease the coordinator granted on an interval, re-registers
whenever the coordinator answers 404 (lease lost — coordinator
restarted or reaped us), and deregisters on clean shutdown.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import parse_qs, quote, urlsplit

from repro.cluster.payload import ShardPayload, encode_shard_result, mine_shard
from repro import contracts
from repro.exceptions import DataFormatError, InvalidParameterError, ReproError
from repro.httpbase import NOT_FOUND, JsonHTTPServer, JsonRequestHandler
from repro.obs import observation
from repro.obs.context import activated
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_context import TraceContext, trace_scope

#: default request-body ceiling for ``POST /shards`` (64 MiB): large
#: enough for a shard of any realistic database, small enough that a
#: confused client cannot make the worker buffer arbitrary bytes
DEFAULT_MAX_SHARD_BYTES = 64 * 1024 * 1024


class ClusterWorker:
    """Shared state of one worker process: counters + uptime.

    Request handlers run on one thread per connection, so every counter
    update and snapshot goes through ``_lock``; the mining itself is
    lock-free (each request owns its payload and observation).
    """

    def __init__(self, max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES) -> None:
        if max_shard_bytes < 1:
            raise InvalidParameterError(
                f"max_shard_bytes must be >= 1, got {max_shard_bytes}"
            )
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()  # guarded-by: _lock
        self.started = time.monotonic()
        self.max_shard_bytes = max_shard_bytes

    def mine(self, payload: ShardPayload, trace: TraceContext | None) -> dict[str, object]:
        """Mine one payload under its own observation; returns the result doc."""
        cost = payload.cost()
        with trace_scope(trace), activated(observation()) as obs:
            attrs: dict[str, object] = {
                "lam": payload.keys[0],
                "keys": len(payload.keys),
                "cost": cost,
            }
            if trace is not None:
                attrs["trace_id"] = trace.trace_id
            with obs.tracer.span("shard", **attrs):
                results = mine_shard(payload)
            patterns = sum(len(found) for found in results.values())
            # counted inside the observation as well, so the report the
            # coordinator absorbs carries this worker's contribution
            obs.metrics.counter("worker.shards_mined").add(1)
            obs.metrics.counter("worker.patterns_returned").add(patterns)
            report = obs.report()
        with self._lock:
            self.metrics.counter("worker.shards_mined").add(1)
            self.metrics.counter("worker.patterns_returned").add(patterns)
            self.metrics.histogram("worker.shard_cost").record(cost)
        return encode_shard_result(
            payload,
            results,
            report=report,
            trace_id=trace.trace_id if trace is not None else None,
        )

    def record_failure(self) -> None:
        with self._lock:
            self.metrics.counter("worker.shards_failed").add(1)

    def health(self) -> dict[str, object]:
        with self._lock:
            mined = self.metrics.counter_total("worker.shards_mined")
            failed = self.metrics.counter_total("worker.shards_failed")
        return {
            "status": "ok",
            "role": "worker",
            "shards_mined": mined,
            "shards_failed": failed,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "max_shard_bytes": self.max_shard_bytes,
        }

    def metrics_snapshot(self) -> dict[str, dict[str, object]]:
        with self._lock:
            return self.metrics.snapshot()


class WorkerRequestHandler(JsonRequestHandler):
    """Routes HTTP requests onto the owning server's ClusterWorker."""

    server: "WorkerHTTPServer"

    @property
    def worker(self) -> ClusterWorker:
        return self.server.worker

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        if not parts:
            self._send_json(200, _INDEX)
        elif parts == ["healthz"]:
            self._send_json(200, self.worker.health())
        elif parts == ["metrics"]:
            try:
                self._send_metrics(
                    parse_qs(split.query), self.worker.metrics_snapshot()
                )
            except InvalidParameterError as exc:
                self._send_json(
                    400, _error_body("bad_parameter", exc, retryable=False)
                )
        else:
            self._send_json(404, NOT_FOUND)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parts = [part for part in urlsplit(self.path).path.split("/") if part]
        if parts == ["shards"]:
            self._post_shard()
        else:
            self._send_json(404, NOT_FOUND)

    def _post_shard(self) -> None:
        limit = self.worker.max_shard_bytes
        try:
            length = self._content_length()
            if length > limit:
                # refuse before buffering a single byte; the unread body
                # poisons the keep-alive stream, so drop the connection too
                self.close_connection = True
                self.worker.record_failure()
                self._send_json(413, _error_doc(
                    "payload_too_large",
                    f"shard payload of {length} bytes exceeds this worker's "
                    f"{limit}-byte limit",
                    retryable=False,
                ))
                return
            raw = self.rfile.read(length) if length else b""
            payload = ShardPayload.from_bytes(raw)
        except (DataFormatError, InvalidParameterError) as exc:
            self.worker.record_failure()
            self._send_json(400, _error_body("bad_payload", exc, retryable=False))
            return
        trace = TraceContext.from_traceparent(self.headers.get("traceparent"))
        try:
            result = self.worker.mine(payload, trace)
        except ReproError as exc:
            # Mining failed after a well-formed payload: report whether a
            # retry (on this or another worker) can help, using the same
            # taxonomy the service's job supervisor applies.
            self.worker.record_failure()
            self._send_json(
                500,
                _error_body(
                    contracts.wire_code_for(exc),
                    exc,
                    retryable=contracts.is_retryable(exc),
                ),
            )
            return
        headers = None
        if trace is not None:
            headers = {"traceparent": trace.to_traceparent()}
        self._send_json(200, result, headers=headers)


def _error_doc(code: str, message: str, retryable: bool) -> dict[str, object]:
    doc: dict[str, object] = {
        "error": {"code": code, "message": message, "retryable": retryable}
    }
    problems = contracts.validate_error_body(doc, require_retryable=True)
    assert not problems, problems  # the contract is ours to keep
    return doc


def _error_body(code: str, exc: Exception, retryable: bool) -> dict[str, object]:
    return _error_doc(code, str(exc), retryable)


_INDEX: dict[str, object] = {
    "service": "repro.cluster.worker",
    "endpoints": [
        "GET /healthz",
        "GET /metrics",
        "POST /shards",
    ],
}

class WorkerHTTPServer(JsonHTTPServer):
    """HTTP server that owns a :class:`ClusterWorker`."""

    def __init__(self, address: tuple[str, int], worker: ClusterWorker) -> None:
        self.worker = worker
        super().__init__(address, WorkerRequestHandler)


def make_worker_server(
    host: str = "127.0.0.1", port: int = 8766, worker: ClusterWorker | None = None
) -> WorkerHTTPServer:
    """Bind (but do not start) a worker server; port 0 picks a free one."""
    return WorkerHTTPServer((host, port), worker or ClusterWorker())


class CoordinatorLink:
    """Worker-side membership: register, heartbeat, re-register, leave.

    Runs a daemon thread that keeps this worker's lease with the
    coordinator alive.  The heartbeat interval follows the lease the
    coordinator granted (a third of ``lease_seconds``, so two beats can
    be lost before suspicion) unless ``heartbeat_seconds`` pins it.  A
    404 from the heartbeat endpoint means the coordinator no longer
    knows us (restart, or the reaper retired us while we were
    partitioned) — the link transparently re-registers, which revives
    the membership record and makes the worker dispatchable again.
    """

    def __init__(
        self,
        coordinator_url: str,
        advertise_url: str,
        heartbeat_seconds: float | None = None,
        timeout: float = 5.0,
    ) -> None:
        for url in (coordinator_url, advertise_url):
            if not url.startswith(("http://", "https://")):
                raise InvalidParameterError(
                    f"URL must be http(s), got {url!r}"
                )
        if heartbeat_seconds is not None and heartbeat_seconds <= 0:
            raise InvalidParameterError(
                f"heartbeat_seconds must be > 0, got {heartbeat_seconds}"
            )
        self.coordinator_url = coordinator_url.rstrip("/")
        self.advertise_url = advertise_url.rstrip("/")
        self.timeout = timeout
        self._heartbeat_override = heartbeat_seconds
        self._lock = threading.Lock()
        self._lease_seconds = 15.0  # guarded-by: _lock
        self._registered = False  # guarded-by: _lock
        self._heartbeats = 0  # guarded-by: _lock
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _post(self, path: str, doc: dict[str, object]) -> dict[str, object]:
        body = json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            self.coordinator_url + path,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            answer = json.loads(response.read().decode("utf-8"))
        return answer if isinstance(answer, dict) else {}

    def register(self) -> bool:
        """One registration attempt; adopts the granted lease on success."""
        try:
            answer = self._post("/workers", {"url": self.advertise_url})
        except (urllib.error.URLError, OSError, ValueError):
            with self._lock:
                self._registered = False
            return False
        lease = answer.get("lease_seconds")
        with self._lock:
            self._registered = True
            if isinstance(lease, (int, float)) and lease > 0:
                self._lease_seconds = float(lease)
        return True

    def heartbeat(self) -> bool:
        """One lease renewal; re-registers on 404 (lease lost)."""
        try:
            self._post("/workers/heartbeat", {"url": self.advertise_url})
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 404:
                return self.register()
            with self._lock:
                self._registered = False
            return False
        except (urllib.error.URLError, OSError, ValueError):
            with self._lock:
                self._registered = False
            return False
        with self._lock:
            self._registered = True
            self._heartbeats += 1
        return True

    def deregister(self) -> bool:
        """Best-effort graceful leave (``DELETE /workers?url=...``)."""
        request = urllib.request.Request(
            self.coordinator_url
            + "/workers?url="
            + quote(self.advertise_url, safe=""),
            method="DELETE",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
        except (urllib.error.URLError, OSError):
            return False
        with self._lock:
            self._registered = False
        return True

    def interval(self) -> float:
        """Seconds between heartbeats (a third of the granted lease)."""
        if self._heartbeat_override is not None:
            return self._heartbeat_override
        with self._lock:
            lease = self._lease_seconds
        return max(0.5, lease / 3.0)

    def status(self) -> dict[str, object]:
        """Link state for ``/healthz``."""
        with self._lock:
            return {
                "coordinator": self.coordinator_url,
                "registered": self._registered,
                "heartbeats": self._heartbeats,
                "lease_seconds": self._lease_seconds,
            }

    def start(self) -> None:
        """Register now (best effort) and start the heartbeat thread."""
        if self._thread is not None:
            return
        self.register()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="coordinator-link", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop heartbeating and leave the coordinator's lease table."""
        thread = self._thread
        self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        self.deregister()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.interval()):
            # heartbeat() already falls back to register() on 404, so
            # one call per tick covers renew, re-join and first contact
            self.heartbeat()
