"""Declared wire/observability contracts (system S33).

The distributed pieces of this repo — coordinator, workers, journal,
event log, soak grader — talk through informal JSON contracts and three
hand-rolled state machines.  This module is the single written-down
source of truth for all of them, as plain data:

- the **event vocabulary** (``repro.event`` v1): every legal event name
  with its required and optional fields (:data:`EVENTS`);
- the **wire schemas**: the legal key sets of every JSON document that
  crosses a process boundary (:data:`WIRE_SCHEMAS`);
- the **error taxonomy**: ``ReproError`` subclass → HTTP status →
  machine-readable code → retryability (:data:`ERROR_TAXONOMY`);
- the **metrics registry**: every metric name produced in ``src/``,
  its kind, and who depends on it (:data:`METRICS`);
- the **state machines**: legal transition tables for the circuit
  breaker, worker membership and job lifecycle
  (:data:`STATE_MACHINES`).

Both sides of each contract consume these tables: the runtime
(``repro.obs.events.validate_event``, the HTTP error paths, the
supervisor's retry classification) and the static checker's WIRE/STATE
rule families in :mod:`repro.analysis`.  Editing a table here moves the
contract for everyone at once; editing only one side turns the
``repro check`` gate red.

Deliberately stdlib-only with no imports from the rest of the package:
everything under ``repro`` may import this module without cycles.  The
taxonomy therefore names exception *classes as strings*; the runtime
helpers resolve them against ``type(exc).__mro__`` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

# ---------------------------------------------------------------------------
# event vocabulary (schema ``repro.event`` version 1)
# ---------------------------------------------------------------------------

#: envelope keys stamped by ``EventLog.emit`` itself — always legal
ENVELOPE_FIELDS = ("schema", "version", "ts", "level", "event", "trace_id", "job_id")

#: emit() parameters that are part of the envelope, not event fields
ENVELOPE_PARAMS = ("level", "trace_id", "job_id")

#: fields emit() can fill from ambient context when a site omits them
AUTO_FIELDS = ("trace_id",)


@dataclass(frozen=True)
class EventSpec:
    """One declared event: its name and field contract."""

    name: str
    #: fields every record of this event must carry
    required: tuple[str, ...]
    #: fields a record may carry; anything else is a contract violation
    optional: tuple[str, ...] = ()


_EVENT_SPECS = (
    EventSpec("job.accepted", ("job_id", "trace_id"),
              ("database", "algorithm", "delta", "resumed")),
    EventSpec("job.cache_hit", ("job_id", "trace_id")),
    EventSpec("job.started", ("job_id", "attempt")),
    EventSpec("job.checkpoint", ("job_id", "partitions"),
              ("completed_k", "patterns")),
    EventSpec("job.retry", ("job_id", "attempt"), ("partitions",)),
    EventSpec("job.recovered", ("job_id", "resumed"), ("attempts",)),
    EventSpec("job.cancelled", ("job_id",), ("reason",)),
    EventSpec("job.finished", ("job_id", "state"),
              ("complete", "cached", "code", "reason")),
    EventSpec("journal.replayed", ("total_lines", "corrupt_lines"),
              ("jobs", "resumed", "restarted", "unresumable")),
    EventSpec("mine.phase", ("phase", "seconds"), ("algorithm",)),
    EventSpec("fault.injected", ("site", "hit")),
    EventSpec("shard.dispatched", ("lam", "worker")),
    EventSpec("shard.completed", ("lam", "worker", "patterns")),
    EventSpec("shard.retried", ("lam", "worker"), ("reason",)),
    EventSpec("shard.failed", ("reason",)),
    EventSpec("worker.joined", ("worker",), ("static",)),
    EventSpec("worker.suspected", ("worker",), ("lease_overdue_seconds",)),
    EventSpec("worker.retired", ("worker",), ("reason",)),
    EventSpec("worker.left", ("worker",)),
    EventSpec("breaker.opened", ("worker",), ("previous",)),
    EventSpec("breaker.half_open", ("worker",), ("previous",)),
    EventSpec("breaker.closed", ("worker",), ("previous",)),
    EventSpec("cluster.degraded", ("reason",), ("pending",)),
)

#: event name -> full spec
EVENTS: Mapping[str, EventSpec] = {spec.name: spec for spec in _EVENT_SPECS}

#: back-compat view: event name -> required fields beyond the envelope
#: (the shape ``repro.obs.events.EVENT_VOCABULARY`` always had)
EVENT_VOCABULARY: Mapping[str, tuple[str, ...]] = {
    spec.name: spec.required for spec in _EVENT_SPECS
}

#: breaker state -> event narrating the transition into that state
BREAKER_EVENT_BY_STATE: Mapping[str, str] = {
    "open": "breaker.opened",
    "half_open": "breaker.half_open",
    "closed": "breaker.closed",
}

#: breaker transition events, in severity order (soak transition log)
BREAKER_EVENTS = ("breaker.opened", "breaker.half_open", "breaker.closed")

#: membership lifecycle events (soak transition log)
MEMBERSHIP_EVENTS = (
    "worker.joined", "worker.suspected", "worker.retired", "worker.left",
)


def event_spec(name: str) -> EventSpec | None:
    """The declared spec for *name*, or None for an unknown event."""
    return EVENTS.get(name)


def validate_event_fields(name: str, fields: Mapping[str, object]) -> list[str]:
    """Field-level problems with one event's payload (beyond the envelope)."""
    spec = EVENTS.get(name)
    if spec is None:
        return [f"unknown event {name!r}"]
    problems = []
    missing = [key for key in spec.required if key not in fields]
    if missing:
        problems.append(f"{name} record missing fields: {missing}")
    legal = set(spec.required) | set(spec.optional) | set(ENVELOPE_FIELDS)
    extras = sorted(key for key in fields if key not in legal)
    if extras:
        problems.append(f"{name} record carries undeclared fields: {extras}")
    return problems


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorRule:
    """One row of the error taxonomy, keyed by exception class *name*."""

    exception: str
    status: int
    code: str
    retryable: bool


#: HTTP error mapping, most specific class first (first mro match wins).
#: Must stay in lockstep with ``repro.service.http._ERROR_STATUS`` —
#: WIRE003 and :func:`verify_error_status` both enforce the bijection.
ERROR_TAXONOMY: tuple[ErrorRule, ...] = (
    ErrorRule("ServiceOverloadedError", 429, "overloaded", False),
    ErrorRule("ServiceClosedError", 503, "shutting_down", False),
    ErrorRule("UnknownDatabaseError", 404, "unknown_database", False),
    ErrorRule("UnknownJobError", 404, "unknown_job", False),
    ErrorRule("UnknownWorkerError", 404, "unknown_worker", False),
    ErrorRule("UnknownAlgorithmError", 400, "unknown_algorithm", False),
    ErrorRule("DataFormatError", 400, "bad_database", False),
    ErrorRule("InvalidParameterError", 400, "bad_parameter", False),
    ErrorRule("ReproError", 400, "error", False),
)

#: fallback row for anything outside the ``ReproError`` hierarchy
INTERNAL_ERROR = ErrorRule("Exception", 500, "internal", True)

#: retry classification special cases (``supervise.classify`` semantics):
#: first ``type(exc).__mro__`` name found here wins, else the default.
RETRYABLE_BY_CLASS: Mapping[str, bool] = {
    "OperationCancelledError": False,  # the caller asked for cancellation
    "InjectedFaultError": True,        # stands in for transient infra faults
    "ReproError": False,               # deterministic input failures repeat
}

#: unexpected exceptions (bugs, MemoryError) are what supervision is for
DEFAULT_RETRYABLE = True

#: worker-specific wire codes outside the taxonomy: code -> (status, retryable)
WORKER_ERROR_CODES: Mapping[str, tuple[int, bool]] = {
    "payload_too_large": (413, False),
    "bad_payload": (400, False),
    "not_found": (404, False),
    "internal": (500, True),
}


def _mro_names(exc: BaseException) -> tuple[str, ...]:
    return tuple(klass.__name__ for klass in type(exc).__mro__)


def error_rule_for(exc: BaseException) -> ErrorRule:
    """The taxonomy row governing *exc* (mro walk; internal fallback)."""
    by_name = {rule.exception: rule for rule in ERROR_TAXONOMY}
    for name in _mro_names(exc):
        rule = by_name.get(name)
        if rule is not None:
            return rule
    return INTERNAL_ERROR


def wire_code_for(exc: BaseException) -> str:
    """The declared machine-readable error code for *exc*."""
    return error_rule_for(exc).code


def status_for(exc: BaseException) -> int:
    """The declared HTTP status for *exc*."""
    return error_rule_for(exc).status


def is_retryable(exc: BaseException) -> bool:
    """Whether the supervisor may retry after *exc* (classify semantics)."""
    for name in _mro_names(exc):
        verdict = RETRYABLE_BY_CLASS.get(name)
        if verdict is not None:
            return verdict
    return DEFAULT_RETRYABLE


def retryable_for_status(status: int) -> bool:
    """Default shard-retry decision when an error body carries no verdict."""
    return status >= 500


def verify_error_status(rows: object) -> None:
    """Assert an ``_ERROR_STATUS``-shaped table matches the taxonomy.

    Called at import time by ``repro.service.http`` so a drifted table
    fails fast instead of answering with undeclared statuses.  Order is
    significant: the tables are first-``isinstance``-match lists, so a
    superclass row above a subclass row changes behaviour.
    """
    declared = [(rule.exception, rule.status, rule.code) for rule in ERROR_TAXONOMY]
    actual = [
        (klass.__name__, int(status), str(code))
        for klass, status, code in rows  # type: ignore[union-attr]
    ]
    if actual != declared:
        raise RuntimeError(
            f"_ERROR_STATUS drifted from repro.contracts.ERROR_TAXONOMY: "
            f"{actual} != {declared}"
        )


def validate_error_body(doc: object, *, require_retryable: bool = False) -> list[str]:
    """Problems with one wire error body (empty list when conformant)."""
    if not isinstance(doc, dict):
        return ["error body is not a JSON object"]
    error = doc.get("error")
    if not isinstance(error, dict):
        return ["error body has no 'error' object"]
    problems = []
    if not isinstance(error.get("code"), str):
        problems.append(f"error code is not a string: {error.get('code')!r}")
    if not isinstance(error.get("message"), str):
        problems.append("error body has no message")
    if require_retryable and not isinstance(error.get("retryable"), bool):
        problems.append("worker error body has no boolean 'retryable'")
    legal = {"code", "message", "retryable", "retry_after_seconds"}
    extras = sorted(key for key in error if key not in legal)
    if extras:
        problems.append(f"error body carries undeclared keys: {extras}")
    return problems


# ---------------------------------------------------------------------------
# wire schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WireSchema:
    """The legal key set of one JSON document family.

    ``keys`` is every key an in-repo producer writes (at any nesting
    level of the document) — each must still be written somewhere;
    ``accepted`` names keys that are legal on the wire but produced only
    by external clients (request options, forward-compat hooks);
    ``read`` is the subset some in-repo consumer must still be reading.
    A key in ``read`` no consumer touches, a consumed or produced key
    outside ``keys`` + ``accepted``, or a ``keys`` entry nothing writes
    any more, is WIRE002 drift.
    """

    name: str
    keys: tuple[str, ...]
    read: tuple[str, ...] = ()
    accepted: tuple[str, ...] = ()
    doc: str = ""


_WIRE_SCHEMAS = (
    WireSchema(
        "error",
        keys=("error", "code", "message", "retryable", "retry_after_seconds"),
        read=("error", "message", "retryable"),
        doc="HTTP error body: {'error': {'code', 'message', ...}}",
    ),
    WireSchema(
        "index",
        keys=("service", "endpoints"),
        doc="GET / endpoint index",
    ),
    WireSchema(
        "health",
        keys=(
            "status", "role", "databases", "cache_entries", "queue_depth",
            "jobs", "workers_connected", "workers_live", "worker_states",
            "workers", "dispatch_threads", "shards_mined", "shards_failed",
            "uptime_seconds", "max_shard_bytes", "coordinator", "registered",
            "heartbeats", "lease_seconds",
        ),
        read=("status", "dispatch_threads"),
        doc="GET /healthz on the service and on a worker",
    ),
    WireSchema(
        "mine_submit",
        keys=("database", "min_support", "job_id", "status", "cached", "trace_id"),
        accepted=("algorithm", "options", "deadline_seconds"),
        read=("job_id", "cached"),
        doc="POST /mine request and response",
    ),
    WireSchema(
        "job",
        keys=(
            "jobs", "id", "status", "attempts", "queued_seconds",
            "queue_wait_seconds", "run_seconds", "trace_id", "request",
            "database", "digest", "delta", "algorithm", "options", "error",
            "code", "message", "cached", "result", "database_size",
            "elapsed_seconds", "complete", "completed_k", "pattern_count",
            "patterns", "pattern", "support",
        ),
        read=("status", "error", "result", "patterns", "pattern", "support"),
        doc="GET /jobs and GET /jobs/<id> documents",
    ),
    WireSchema(
        "database_admin",
        keys=(
            "name", "digest", "sequences", "replaced",
            "evicted", "cache_entries_dropped",
        ),
        accepted=("format", "content"),
        doc="POST /databases and DELETE /databases/<name>",
    ),
    WireSchema(
        "membership",
        keys=(
            "url", "worker", "state", "static", "heartbeats", "breaker",
            "lease_expires_in_seconds", "lease_seconds", "joined", "renewed",
            "left", "workers", "counts", "live", "suspect", "retired",
        ),
        read=("url", "lease_seconds", "counts", "live"),
        doc="POST/DELETE /workers, heartbeats and the membership table",
    ),
    WireSchema(
        "metrics",
        keys=(
            "format", "version", "metrics", "type", "name", "labels",
            "value", "max", "min", "count", "sum", "buckets",
        ),
        read=("type", "name", "labels", "value", "max", "count", "sum", "buckets"),
        doc="GET /metrics snapshot and its per-series entries",
    ),
    WireSchema(
        "shard_payload",
        keys=(
            "format", "version", "lam", "delta", "database_digest",
            "options", "frequent_items", "members", "digest",
        ),
        read=(
            "format", "version", "lam", "delta", "database_digest",
            "options", "frequent_items", "members", "digest",
        ),
        doc="repro.shard-payload v1 (POST /shards request)",
    ),
    WireSchema(
        "shard_result",
        keys=(
            "format", "version", "lam", "payload_digest", "patterns",
            "report", "trace_id",
        ),
        read=("format", "version", "lam", "payload_digest", "patterns", "report"),
        doc="repro.shard-result v1 (POST /shards response)",
    ),
    WireSchema(
        "journal",
        keys=(
            "event", "job", "ts", "trace_id", "database", "digest", "delta",
            "algorithm", "options", "deadline_seconds", "attempt",
            "partitions", "completed_k", "checkpoint", "state", "error",
            "code", "complete",
        ),
        read=(
            "event", "job", "trace_id", "attempt", "checkpoint", "state",
            "error", "code",
        ),
        doc="write-ahead journal JSONL records",
    ),
    WireSchema(
        "soak_report",
        keys=(
            "format", "version", "verdict", "counts", "lines", "invariants",
            "broken_invariants", "recovery", "transitions", "meta", "grade",
            "kind", "reason", "job_id", "status", "seconds", "error",
            "matched", "cached", "ts", "event", "worker",
            "previous", "killed_ts", "rejoin_seconds",
            "first_shard_after_rejoin_seconds",
            "every_accepted_job_finished", "results_byte_identical",
            "event_log_validates", "no_orphaned_dispatch_threads",
            "duration_seconds", "workers", "kills", "statuses",
        ),
        accepted=("degraded",),
        read=(
            "verdict", "counts", "lines", "broken_invariants", "recovery",
            "transitions", "grade", "kind", "reason", "job_id", "status",
            "matched", "cached", "degraded", "error", "ts", "event",
            "worker", "previous", "rejoin_seconds",
            "first_shard_after_rejoin_seconds",
        ),
        doc="repro.soak-report v1 (graded chaos-soak verdict)",
    ),
    WireSchema(
        "bench_verdict",
        keys=(
            "format", "version", "scale", "tolerance", "calibrated",
            "calibration_ratio", "verdict", "regressions",
            "structure_findings", "runs", "algorithm", "minsup", "status",
            "elapsed_baseline", "elapsed_candidate", "ratio", "findings",
            "elapsed_seconds", "delta", "patterns", "counters",
            "phase_seconds", "database_size",
        ),
        read=(
            "format", "verdict", "runs", "algorithm", "minsup", "status",
            "ratio", "findings", "elapsed_seconds", "counters",
            "phase_seconds", "scale", "structure_findings",
        ),
        doc="repro bench --compare verdict document",
    ),
)

#: schema name -> spec
WIRE_SCHEMAS: Mapping[str, WireSchema] = {
    schema.name: schema for schema in _WIRE_SCHEMAS
}

#: HTTP header names key collectors must ignore (not JSON body keys)
WIRE_HEADER_KEYS = (
    "Accept", "Content-Length", "Content-Type", "Retry-After", "traceparent",
)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """One declared metric series family."""

    name: str
    kind: str  # counter | gauge | histogram
    #: repo-relative modules that produce the series
    produced_by: tuple[str, ...]
    #: load-bearing readers ("bench/compare.py", "ci:service-smoke", ...)
    consumers: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()


_METRIC_SPECS = (
    # core mining counters (the paper's own evidence)
    MetricSpec("disc.comparisons", "counter", ("core/disc.py",),
               ("bench/compare.py", "ci:obs-smoke")),
    MetricSpec("disc.lemma1_frequent", "counter", ("core/disc.py",),
               ("bench/compare.py", "ci:obs-smoke")),
    MetricSpec("disc.lemma2_prunes", "counter", ("core/disc.py",),
               ("bench/compare.py", "ci:obs-smoke")),
    MetricSpec("disc.pruned_width", "histogram", ("core/disc.py",)),
    MetricSpec("disc.ckms_calls", "counter", ("core/disc.py",)),
    MetricSpec("disc.rounds", "counter",
               ("core/discall.py", "core/dynamic.py")),
    MetricSpec("counting.frequent", "counter",
               ("core/disc.py", "core/discall.py", "core/dynamic.py"),
               labels=("k",)),
    MetricSpec("discall.first_level_mined", "counter",
               ("core/discall.py", "core/dynamic.py")),
    MetricSpec("discall.second_level_mined", "counter",
               ("core/discall.py", "core/dynamic.py")),
    MetricSpec("discall.reduced_members", "counter",
               ("core/discall.py", "core/dynamic.py")),
    MetricSpec("sorted_db.kms_calls", "counter", ("core/sorted_db.py",)),
    MetricSpec("sorted_db.kms_dropped", "counter", ("core/sorted_db.py",)),
    MetricSpec("sorted_db.initial_size", "histogram", ("core/sorted_db.py",)),
    MetricSpec("partition.first_level", "counter", ("core/partition.py",)),
    MetricSpec("partition.first_level_size", "histogram", ("core/partition.py",)),
    MetricSpec("partition.extension", "counter", ("core/partition.py",)),
    MetricSpec("partition.extension_size", "histogram", ("core/partition.py",)),
    MetricSpec("parallel.payload_bytes", "histogram", ("core/parallel.py",)),
    # mining service
    MetricSpec("service.cache_hits", "counter", ("service/service.py",),
               ("ci:service-smoke",)),
    MetricSpec("service.cache_misses", "counter", ("service/service.py",),
               ("ci:service-smoke",)),
    MetricSpec("service.recovered_jobs", "counter", ("service/service.py",)),
    MetricSpec("service.partial_results", "counter", ("service/service.py",)),
    MetricSpec("service.cache_invalidated", "counter", ("service/service.py",)),
    MetricSpec("service.journal_replayed_lines", "counter", ("service/service.py",)),
    MetricSpec("service.journal_corrupt_lines", "counter", ("service/service.py",)),
    MetricSpec("service.journal_resumed", "counter", ("service/service.py",)),
    MetricSpec("service.journal_restarted", "counter", ("service/service.py",)),
    MetricSpec("service.journal_unresumable", "counter", ("service/service.py",)),
    MetricSpec("service.queue_depth", "gauge", ("service/scheduler.py",)),
    MetricSpec("service.rejected", "counter", ("service/scheduler.py",)),
    MetricSpec("service.retries", "counter", ("service/scheduler.py",)),
    MetricSpec("service.listener_errors", "counter", ("service/scheduler.py",)),
    MetricSpec("service.job_seconds", "histogram",
               ("service/scheduler.py", "service/service.py"),
               ("ci:service-smoke",)),
    MetricSpec("service.jobs", "counter", ("service/scheduler.py",),
               ("ci:service-smoke",), labels=("state",)),
    # cluster
    MetricSpec("cluster.workers_connected", "gauge", ("service/service.py",)),
    MetricSpec("cluster.workers_live", "gauge", ("service/service.py",)),
    MetricSpec("cluster.shard_cost", "histogram", ("cluster/coordinator.py",)),
    MetricSpec("cluster.shards_dispatched", "counter", ("cluster/coordinator.py",)),
    MetricSpec("cluster.shards_retried", "counter", ("cluster/coordinator.py",)),
    MetricSpec("cluster.shards_failed", "counter", ("cluster/coordinator.py",)),
    MetricSpec("cluster.shards_merged", "counter", ("cluster/coordinator.py",)),
    MetricSpec("cluster.shards_mined_locally", "counter",
               ("cluster/coordinator.py",)),
    MetricSpec("cluster.breaker_state", "gauge", ("cluster/membership.py",),
               labels=("worker",)),
    # worker
    MetricSpec("worker.shards_mined", "counter", ("cluster/worker.py",)),
    MetricSpec("worker.patterns_returned", "counter", ("cluster/worker.py",)),
    MetricSpec("worker.shard_cost", "histogram", ("cluster/worker.py",)),
    MetricSpec("worker.shards_failed", "counter", ("cluster/worker.py",)),
)

#: metric name -> spec
METRICS: Mapping[str, MetricSpec] = {spec.name: spec for spec in _METRIC_SPECS}

#: valid metric kinds (the three series types the registry implements)
METRIC_KINDS = ("counter", "gauge", "histogram")


# ---------------------------------------------------------------------------
# state machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateMachine:
    """Declared legal transitions of one hand-rolled state machine.

    ``module``/``attribute`` anchor the static STATE001 rule: every
    assignment to that attribute inside that module must form an edge of
    ``transitions`` (self-loops are implicitly legal; ``__init__``
    assignments must set ``initial``).
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str], ...]
    module: str
    attribute: str

    def allows(self, source: str, target: str) -> bool:
        """Whether *source* → *target* is a declared (or self-loop) edge."""
        return source == target or (source, target) in self.transitions


_STATE_MACHINES = (
    StateMachine(
        "breaker",
        states=("closed", "open", "half_open"),
        initial="closed",
        transitions=(
            ("closed", "open"),       # failure threshold crossed
            ("open", "half_open"),    # backoff elapsed, probe allowed
            ("half_open", "open"),    # probe failed
            ("half_open", "closed"),  # probe succeeded
            ("open", "closed"),       # late success from a pre-open probe
        ),
        module="cluster/breaker.py",
        attribute="_state",
    ),
    StateMachine(
        "membership",
        states=("live", "suspect", "retired"),
        initial="live",
        transitions=(
            ("live", "suspect"),      # lease expired
            ("live", "retired"),      # graceful leave
            ("suspect", "live"),      # heartbeat / probe cleared suspicion
            ("suspect", "retired"),   # suspicion outlived the grace period
            ("retired", "live"),      # re-registration (fresh record)
        ),
        module="cluster/membership.py",
        attribute="state",
    ),
    StateMachine(
        "job",
        states=("queued", "running", "done", "failed", "cancelled"),
        initial="queued",
        transitions=(
            ("queued", "running"),
            ("queued", "done"),        # cache hit served without running
            ("queued", "failed"),      # unresumable journal replay
            ("queued", "cancelled"),   # cancelled while waiting
            ("running", "done"),
            ("running", "failed"),
            ("running", "cancelled"),
        ),
        module="service/scheduler.py",
        attribute="state",
    ),
)

#: machine name -> spec
STATE_MACHINES: Mapping[str, StateMachine] = {
    machine.name: machine for machine in _STATE_MACHINES
}

#: breaker state -> numeric gauge code (kept with the machine it encodes)
BREAKER_STATE_CODES: Mapping[str, int] = {"closed": 0, "half_open": 1, "open": 2}


def check_transition(machine: str, source: str, target: str) -> bool:
    """Whether *source* → *target* is declared legal for *machine*."""
    spec = STATE_MACHINES[machine]
    if source not in spec.states or target not in spec.states:
        return False
    return spec.allows(source, target)


def verify_states(machine: str, states: tuple[str, ...], initial: str) -> None:
    """Assert a module's local state constants match the declared machine.

    Called at import time by the modules that own each machine so a
    renamed or added state fails fast, before the static gate runs.
    """
    spec = STATE_MACHINES[machine]
    if set(states) != set(spec.states) or initial != spec.initial:
        raise RuntimeError(
            f"{machine} states drifted from repro.contracts: "
            f"{sorted(states)} (initial {initial!r}) != "
            f"{sorted(spec.states)} (initial {spec.initial!r})"
        )
