"""Tests for the contract manifest (:mod:`repro.contracts`).

The manifest is the single copy of the event vocabulary, error taxonomy
and metrics registry.  These tests pin the round-trips: every runtime
module that re-exports or answers from a table must agree with the
manifest, and every helper must behave as the WIRE rules assume.
"""

from __future__ import annotations

import pytest

from repro import contracts, exceptions
from repro.bench import compare
from repro.cluster import breaker
from repro.obs import events
from repro.service import errors, http, supervise


def _all_repro_errors() -> list[type]:
    """Every ReproError subclass importable from the two error modules."""
    assert errors.ServiceError is not None  # force the import
    seen: set[type] = set()
    stack: list[type] = [exceptions.ReproError]
    while stack:
        klass = stack.pop()
        if klass in seen:
            continue
        seen.add(klass)
        stack.extend(klass.__subclasses__())
    return sorted(seen, key=lambda k: k.__name__)


class TestEventVocabulary:
    def test_events_module_reexports_the_manifest(self):
        assert events.EVENT_VOCABULARY is contracts.EVENT_VOCABULARY

    def test_every_declared_event_round_trips(self):
        for spec in contracts.EVENTS.values():
            record = {field: "x" for field in spec.required + spec.optional}
            assert contracts.validate_event_fields(spec.name, record) == []

    def test_unknown_missing_and_undeclared_fields_are_problems(self):
        assert contracts.validate_event_fields("no.such.event", {}) == [
            "unknown event 'no.such.event'"
        ]
        problems = contracts.validate_event_fields("job.accepted", {"flavour": 1})
        assert any("missing" in p for p in problems)
        assert any("undeclared" in p for p in problems)

    def test_validate_event_rejects_undeclared_extras(self):
        record = {
            "schema": events.EVENT_SCHEMA,
            "version": events.EVENT_VERSION,
            "ts": 0.0,
            "level": "info",
            "event": "job.accepted",
            "trace_id": "t",
            "job_id": "j",
        }
        assert events.validate_event(record) == []
        assert any(
            "undeclared" in p
            for p in events.validate_event({**record, "bogus": 1})
        )

    def test_breaker_and_membership_events_are_declared(self):
        table = contracts.BREAKER_EVENT_BY_STATE
        assert set(table.values()) == set(contracts.BREAKER_EVENTS)
        assert set(table) == {breaker.CLOSED, breaker.OPEN, breaker.HALF_OPEN}
        for name in contracts.BREAKER_EVENTS + contracts.MEMBERSHIP_EVENTS:
            assert name in contracts.EVENTS


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "rule", contracts.ERROR_TAXONOMY, ids=lambda rule: rule.exception
    )
    def test_http_answers_follow_the_taxonomy(self, rule):
        klass = getattr(errors, rule.exception, None) or getattr(
            exceptions, rule.exception
        )
        status, body = http._error_payload(klass("boom"))
        assert (status, body["error"]["code"]) == (rule.status, rule.code)
        assert body["error"]["message"] == "boom"

    def test_unlisted_subclass_answers_as_its_base(self):
        exc = exceptions.CheckpointMismatchError("other run")
        status, body = http._error_payload(exc)
        assert (status, body["error"]["code"]) == (400, "error")

    def test_foreign_exception_answers_internal(self):
        status, body = http._error_payload(Exception("bug"))
        assert (status, body["error"]["code"]) == (500, "internal")

    def test_every_repro_error_has_a_declared_row(self):
        # no subclass may fall through to the generic internal row
        for klass in _all_repro_errors():
            exc = klass.__new__(klass)
            rule = contracts.error_rule_for(exc)
            assert rule in contracts.ERROR_TAXONOMY, klass.__name__
            assert contracts.wire_code_for(exc) == rule.code
            assert contracts.status_for(exc) == rule.status

    def test_foreign_exceptions_fall_back_to_internal(self):
        exc = RuntimeError("boom")
        assert contracts.error_rule_for(exc) is contracts.INTERNAL_ERROR
        assert contracts.wire_code_for(exc) == "internal"
        assert contracts.status_for(exc) == 500
        assert contracts.is_retryable(exc)

    def test_classify_agrees_with_the_manifest(self):
        cancelled = exceptions.OperationCancelledError("stop")
        injected = exceptions.InjectedFaultError("fault")
        bad = exceptions.InvalidParameterError("delta")
        assert supervise.classify(cancelled) == supervise.TERMINAL
        assert supervise.classify(injected) == supervise.RETRYABLE
        assert supervise.classify(bad) == supervise.TERMINAL
        assert supervise.classify(RuntimeError("io")) == supervise.RETRYABLE
        assert not contracts.is_retryable(cancelled)
        assert contracts.is_retryable(injected)

    def test_worker_codes_agree_with_status_defaults(self):
        # a coordinator that only sees the status must reach the same
        # retry verdict the worker's error body would have carried
        for code, (status, retryable) in contracts.WORKER_ERROR_CODES.items():
            assert retryable == contracts.retryable_for_status(status), code

    def test_validate_error_body(self):
        good = {"error": {"code": "bad_payload", "message": "no", "retryable": False}}
        assert contracts.validate_error_body(good, require_retryable=True) == []
        assert contracts.validate_error_body([]) == [
            "error body is not a JSON object"
        ]
        assert contracts.validate_error_body({"oops": 1}) == [
            "error body has no 'error' object"
        ]
        undeclared = {"error": {"code": "x", "message": "m", "surprise": 1}}
        assert any(
            "undeclared" in p for p in contracts.validate_error_body(undeclared)
        )
        bare = {"error": {"code": "x", "message": "m"}}
        assert contracts.validate_error_body(bare) == []
        assert contracts.validate_error_body(bare, require_retryable=True) != []


class TestStateMachines:
    def test_breaker_gauge_codes_cover_every_state(self):
        states = {breaker.CLOSED, breaker.OPEN, breaker.HALF_OPEN}
        assert set(contracts.BREAKER_STATE_CODES) == states
        assert breaker.BREAKER_STATE_CODES == dict(contracts.BREAKER_STATE_CODES)


class TestWireSchemasAndMetrics:
    def test_metric_kinds_are_legal(self):
        for spec in contracts.METRICS.values():
            assert spec.kind in ("counter", "gauge", "histogram"), spec.name

    def test_compare_invariants_are_declared_counters(self):
        assert compare._INVARIANT, "compare.py gates on no metrics?"
        for name in compare._INVARIANT:
            assert contracts.METRICS[name].kind == "counter", name
