"""HTTP front-end for the mining service (system S27).

A thin JSON layer over :class:`MiningService` on stdlib
``http.server.ThreadingHTTPServer`` (one thread per connection; the
mining work itself stays on the scheduler's bounded worker pool, so
request threads only validate, enqueue and poll).

Endpoints::

    GET  /                      endpoint index
    GET  /healthz               liveness + queue/cache summary
    GET  /metrics               metrics registry; JSON by default, the
                                Prometheus text format via
                                ``?format=prometheus`` or
                                ``Accept: text/plain``
    POST /databases             register {name, format, content}
    DELETE /databases/<name>    evict a registered database
    POST /mine                  submit {database, min_support, ...} -> job id
    GET  /jobs                  job summaries
    GET  /jobs/<id>[?top=N]     job status; patterns once done
    POST /workers               register a worker {url} -> lease (coordinator)
    POST /workers/heartbeat     renew a worker lease {url}
    GET  /workers               membership table + state counts
    DELETE /workers?url=<url>   graceful worker leave

``POST /mine`` participates in distributed tracing: an incoming
``traceparent`` header (W3C format) is parsed and its trace id adopted
for the job; the response echoes a ``traceparent`` for the job's trace
and carries ``trace_id`` in the body.  Cache hits answer under the
trace id of the run that originally mined the result.

Error responses are ``{"error": {"code": ..., "message": ...}}`` with
the HTTP status carrying the class: 429 ``overloaded`` (backpressure),
503 ``shutting_down``, 404 ``unknown_database`` / ``unknown_job`` /
``unknown_worker`` (heartbeat without a lease → worker must
re-register), 400 for bad parameters or malformed databases.
"""

from __future__ import annotations

import io
import json
from urllib.parse import parse_qs, urlsplit

from repro import contracts
from repro.core.sequence import format_seq
from repro.db import io as dbio
from repro.exceptions import InvalidParameterError, ReproError
from repro.httpbase import NOT_FOUND, JsonHTTPServer, JsonRequestHandler
from repro.obs.trace_context import TraceContext
from repro.service.errors import ServiceOverloadedError
from repro.service.scheduler import DONE, Job
from repro.service.service import MineOutcome, MineRequest, MiningService


def _error_payload(exc: ReproError) -> tuple[int, dict[str, object]]:
    """Map a service/library error to (status, JSON body) by the taxonomy."""
    message = str(exc.args[0]) if exc.args else str(exc)
    rule = contracts.error_rule_for(exc)
    return rule.status, {"error": {"code": rule.code, "message": message}}


def job_payload(job: Job, top: int | None = None) -> dict[str, object]:
    """The JSON document for one job (``GET /jobs/<id>``)."""
    payload: dict[str, object] = {
        "id": job.id,
        "status": job.state,
        "attempts": job.attempts,
        "queued_seconds": round(job.queued_seconds(), 6),
        # same value under the documented name; ``queued_seconds`` stays
        # for compatibility with existing clients
        "queue_wait_seconds": round(job.queued_seconds(), 6),
        "run_seconds": round(job.run_seconds(), 6),
    }
    if job.trace is not None:
        payload["trace_id"] = job.trace.trace_id
    request = job.request
    if isinstance(request, MineRequest):
        payload["request"] = {
            "database": request.database,
            "digest": request.digest,
            "delta": request.delta,
            "algorithm": request.algorithm,
            "options": dict(request.options),
        }
    if job.error is not None:
        payload["error"] = {"code": job.error_code, "message": job.error}
    outcome = job.result
    if job.state == DONE and isinstance(outcome, MineOutcome):
        result = outcome.result
        ranked = result.sorted_patterns()
        shown = ranked if top is None else ranked[:top]
        payload["cached"] = outcome.cached
        payload["result"] = {
            "algorithm": result.algorithm,
            "delta": result.delta,
            "database_size": result.database_size,
            "elapsed_seconds": result.elapsed_seconds,
            "complete": result.complete,
            "completed_k": result.completed_k,
            "pattern_count": len(result),
            "patterns": [
                {"pattern": format_seq(raw), "support": result.patterns[raw]}
                for raw in shown
            ],
        }
    return payload


class ServiceRequestHandler(JsonRequestHandler):
    """Routes HTTP requests onto the owning server's MiningService."""

    server: "ServiceHTTPServer"

    # -- plumbing ------------------------------------------------------------

    def _send_error(self, exc: ReproError) -> None:
        status, payload = _error_payload(exc)
        headers: dict[str, str] | None = None
        if isinstance(exc, ServiceOverloadedError):
            # An actionable 429: estimate the wait from the latency
            # histogram and current queue depth, RFC-9110 Retry-After.
            hint = self.service.retry_after_hint()
            headers = {"Retry-After": str(hint)}
            error = payload.get("error")
            if isinstance(error, dict):
                error["retry_after_seconds"] = hint
        problems = contracts.validate_error_body(payload)
        assert not problems, problems  # the contract is ours to keep
        self._send_json(status, payload, headers=headers)

    def _read_json(self) -> dict[str, object]:
        raw = self._read_body()
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise InvalidParameterError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidParameterError("request body must be a JSON object")
        return payload

    @property
    def service(self) -> MiningService:
        return self.server.service

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        try:
            if not parts:
                self._send_json(200, _INDEX)
            elif parts == ["healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["metrics"]:
                self._send_metrics(
                    parse_qs(split.query), self.service.metrics_snapshot()
                )
            elif parts == ["jobs"]:
                self._send_json(200, {
                    "jobs": [
                        {"id": job.id, "status": job.state}
                        for job in self.service.scheduler.jobs()
                    ]
                })
            elif parts == ["workers"]:
                self._send_json(200, self.service.workers_detail())
            elif len(parts) == 2 and parts[0] == "jobs":
                top = _query_int(parse_qs(split.query), "top")
                job = self.service.job(parts[1])
                headers = None
                if job.trace is not None:
                    headers = {"traceparent": job.trace.to_traceparent()}
                self._send_json(200, job_payload(job, top=top), headers=headers)
            else:
                self._send_json(404, NOT_FOUND)
        except ReproError as exc:
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parts = [part for part in urlsplit(self.path).path.split("/") if part]
        try:
            if parts == ["mine"]:
                self._post_mine()
            elif parts == ["databases"]:
                self._post_database()
            elif parts == ["workers"]:
                self._send_json(
                    200, self.service.register_worker(self._worker_url())
                )
            elif parts == ["workers", "heartbeat"]:
                self._send_json(
                    200, self.service.heartbeat_worker(self._worker_url())
                )
            else:
                self._send_json(404, NOT_FOUND)
        except ReproError as exc:
            self._send_error(exc)

    def do_DELETE(self) -> None:  # noqa: N802 (http.server naming)
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        try:
            if parts == ["workers"]:
                values = parse_qs(split.query).get("url")
                if not values or not values[-1]:
                    raise InvalidParameterError(
                        "query parameter 'url' must name the worker to remove"
                    )
                self._send_json(
                    200, self.service.deregister_worker(values[-1])
                )
            elif len(parts) == 2 and parts[0] == "databases":
                entry = self.service.registry.evict(parts[1])
                dropped = self.service.cache.invalidate_digest(entry.digest)
                self._send_json(200, {
                    "evicted": entry.name,
                    "digest": entry.digest,
                    "cache_entries_dropped": dropped,
                })
            else:
                self._send_json(404, NOT_FOUND)
        except ReproError as exc:
            self._send_error(exc)

    # -- handlers ------------------------------------------------------------

    def _post_mine(self) -> None:
        payload = self._read_json()
        database = payload.get("database")
        if not isinstance(database, str) or not database:
            raise InvalidParameterError("'database' must be a registered name")
        min_support = payload.get("min_support")
        if not isinstance(min_support, (int, float)) or isinstance(
            min_support, bool
        ):
            raise InvalidParameterError(
                "'min_support' must be a number (int = absolute count, "
                "float in (0, 1] = fraction)"
            )
        # a coordinator defaults submissions to its cluster algorithm;
        # a standalone server keeps the single-box default
        algorithm = payload.get("algorithm", self.service.default_algorithm)
        if not isinstance(algorithm, str):
            raise InvalidParameterError("'algorithm' must be a string")
        options = payload.get("options")
        if options is not None and not isinstance(options, dict):
            raise InvalidParameterError("'options' must be a JSON object")
        deadline = payload.get("deadline_seconds")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or isinstance(deadline, bool)
            or deadline <= 0
        ):
            raise InvalidParameterError("'deadline_seconds' must be > 0")
        # adopt the caller's trace when a well-formed traceparent header
        # arrives; malformed or absent headers mint a fresh trace —
        # every job gets an identity either way
        trace = TraceContext.from_traceparent(self.headers.get("traceparent"))
        if trace is None:
            trace = TraceContext.mint()
        job = self.service.submit_mine(
            database,
            min_support,
            algorithm=algorithm,
            options=options,
            deadline_seconds=float(deadline) if deadline is not None else None,
            trace=trace,
        )
        status = 200 if job.state == DONE else 202
        body: dict[str, object] = {"job_id": job.id, "status": job.state}
        if job.state == DONE and isinstance(job.result, MineOutcome):
            body["cached"] = job.result.cached
        headers: dict[str, str] | None = None
        if job.trace is not None:
            # the job's trace, not the request's: a cache hit answers
            # under the trace id of the run that mined the result
            body["trace_id"] = job.trace.trace_id
            headers = {"traceparent": job.trace.to_traceparent()}
        self._send_json(status, body, headers=headers)

    def _worker_url(self) -> str:
        """The worker base URL carried by a membership POST body."""
        payload = self._read_json()
        url = payload.get("url")
        if not isinstance(url, str) or not url:
            raise InvalidParameterError(
                "'url' must be the worker's base URL (http(s)://host:port)"
            )
        return url

    def _post_database(self) -> None:
        payload = self._read_json()
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError("'name' must be a non-empty string")
        fmt = payload.get("format", "spmf")
        if fmt not in ("spmf", "paper"):
            raise InvalidParameterError("'format' must be 'spmf' or 'paper'")
        content = payload.get("content")
        if not isinstance(content, str) or not content.strip():
            raise InvalidParameterError("'content' must be the database text")
        reader = dbio.read_spmf if fmt == "spmf" else dbio.read_paper
        db = reader(io.StringIO(content))
        entry, replaced = self.service.register_database(name, db)
        self._send_json(200, {
            "name": entry.name,
            "digest": entry.digest,
            "sequences": len(entry.db),
            "replaced": replaced,
        })


_INDEX: dict[str, object] = {
    "service": "repro.service",
    "endpoints": [
        "GET /healthz",
        "GET /metrics",
        "POST /databases",
        "DELETE /databases/<name>",
        "POST /mine",
        "GET /jobs",
        "GET /jobs/<id>",
        "POST /workers",
        "POST /workers/heartbeat",
        "GET /workers",
        "DELETE /workers?url=<url>",
    ],
}

def _query_int(query: dict[str, list[str]], name: str) -> int | None:
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[-1])
    except ValueError:
        raise InvalidParameterError(
            f"query parameter {name!r} must be an integer"
        ) from None


class ServiceHTTPServer(JsonHTTPServer):
    """HTTP server that owns a :class:`MiningService`."""

    def __init__(self, address: tuple[str, int], service: MiningService) -> None:
        self.service = service
        super().__init__(address, ServiceRequestHandler)


def make_server(
    service: MiningService, host: str = "127.0.0.1", port: int = 8765
) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP front-end; port 0 picks a free one."""
    return ServiceHTTPServer((host, port), service)
