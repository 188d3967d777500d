"""Declared wire/observability contracts (system S33).

The distributed pieces of this repo — coordinator, workers, journal,
event log, soak grader — talk through informal JSON contracts.  This
module is the single written-down copy of the ones both sides key on,
as plain data:

- the **event vocabulary** (``repro.event`` v1): every legal event name
  with its required and optional fields (:data:`EVENTS`);
- the **error taxonomy**: ``ReproError`` subclass → HTTP status →
  machine-readable code → retryability (:data:`ERROR_TAXONOMY`);
- the **metrics registry**: every metric name produced in ``src/``,
  its kind and its labels (:data:`METRICS`).

The runtime answers from these tables directly — the service's HTTP
error path (:func:`error_rule_for`), the worker's wire codes, the
supervisor's retry classification (:func:`is_retryable`) and
``repro.obs.events.validate_event`` — and the static checker's WIRE
rules in :mod:`repro.analysis` flag code that re-derives them locally
or names an undeclared event or metric.  The JSON document shapes are
guarded by round-trip tests, not by a table here.

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
    # a shard is a range of first-level keys: ``lam`` is its first key,
    # and shard.completed's ``patterns`` counts over all of its keys
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


#: HTTP error mapping, most specific class first (first mro match wins);
#: the service's error answers come straight from it.
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
# metrics registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """One declared metric series family."""

    name: str
    kind: str  # counter | gauge | histogram
    labels: tuple[str, ...] = ()


_METRIC_SPECS = (
    # core mining counters (the paper's own evidence)
    MetricSpec("disc.comparisons", "counter"),
    MetricSpec("disc.lemma1_frequent", "counter"),
    MetricSpec("disc.lemma2_prunes", "counter"),
    MetricSpec("disc.pruned_width", "histogram"),
    MetricSpec("disc.ckms_calls", "counter"),
    MetricSpec("disc.rounds", "counter"),
    MetricSpec("counting.frequent", "counter", labels=("k",)),
    MetricSpec("discall.first_level_mined", "counter"),
    MetricSpec("discall.second_level_mined", "counter"),
    MetricSpec("discall.reduced_members", "counter"),
    MetricSpec("sorted_db.kms_calls", "counter"),
    MetricSpec("sorted_db.kms_dropped", "counter"),
    MetricSpec("sorted_db.initial_size", "histogram"),
    MetricSpec("partition.first_level", "counter"),
    MetricSpec("partition.first_level_size", "histogram"),
    MetricSpec("partition.extension", "counter"),
    MetricSpec("partition.extension_size", "histogram"),
    # mining service
    MetricSpec("service.cache_hits", "counter"),
    MetricSpec("service.cache_misses", "counter"),
    MetricSpec("service.recovered_jobs", "counter"),
    MetricSpec("service.partial_results", "counter"),
    MetricSpec("service.cache_invalidated", "counter"),
    MetricSpec("service.journal_replayed_lines", "counter"),
    MetricSpec("service.journal_corrupt_lines", "counter"),
    MetricSpec("service.journal_resumed", "counter"),
    MetricSpec("service.journal_restarted", "counter"),
    MetricSpec("service.journal_unresumable", "counter"),
    MetricSpec("service.queue_depth", "gauge"),
    MetricSpec("service.rejected", "counter"),
    MetricSpec("service.retries", "counter"),
    MetricSpec("service.listener_errors", "counter"),
    MetricSpec("service.job_seconds", "histogram"),
    MetricSpec("service.jobs", "counter", labels=("state",)),
    # cluster
    MetricSpec("cluster.workers_connected", "gauge"),
    MetricSpec("cluster.workers_live", "gauge"),
    MetricSpec("cluster.shard_cost", "histogram"),
    MetricSpec("cluster.shards_dispatched", "counter"),
    MetricSpec("cluster.shards_retried", "counter"),
    MetricSpec("cluster.shards_failed", "counter"),
    MetricSpec("cluster.shards_merged", "counter"),
    MetricSpec("cluster.shards_mined_locally", "counter"),
    MetricSpec("cluster.breaker_state", "gauge", labels=("worker",)),
    # worker
    MetricSpec("worker.shards_mined", "counter"),
    MetricSpec("worker.patterns_returned", "counter"),
    MetricSpec("worker.shard_cost", "histogram"),
    MetricSpec("worker.shards_failed", "counter"),
)

#: metric name -> spec
METRICS: Mapping[str, MetricSpec] = {spec.name: spec for spec in _METRIC_SPECS}


# ---------------------------------------------------------------------------
# circuit-breaker gauge
# ---------------------------------------------------------------------------

#: breaker state -> numeric gauge code (``cluster.breaker_state{worker}``)
BREAKER_STATE_CODES: Mapping[str, int] = {"closed": 0, "half_open": 1, "open": 2}
