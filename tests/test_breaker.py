"""Unit tests for the per-worker circuit breaker state machine.

Driven entirely by a fake clock, so open→half-open backoffs are tested
exactly — no sleeps, no wall-clock flake.
"""

from __future__ import annotations

import pytest

from repro.cluster.breaker import (
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.exceptions import InvalidParameterError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make(threshold: int = 3, reset: float = 5.0, **kwargs):
    clock = FakeClock()
    config = BreakerConfig(
        failure_threshold=threshold, reset_seconds=reset, **kwargs
    )
    return CircuitBreaker(config, clock=clock), clock


class TestConfigValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)

    def test_reset_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match="reset_seconds"):
            BreakerConfig(reset_seconds=0.0)

    def test_backoff_factor_at_least_one(self):
        with pytest.raises(InvalidParameterError, match="backoff_factor"):
            BreakerConfig(backoff_factor=0.5)

    def test_max_reset_covers_reset(self):
        with pytest.raises(InvalidParameterError, match="max_reset_seconds"):
            BreakerConfig(reset_seconds=10.0, max_reset_seconds=5.0)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _clock = make()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _clock = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _clock = make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_open_admits_one_probe_after_backoff(self):
        breaker, clock = make(threshold=1, reset=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # takes the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # second caller refused

    def test_probe_success_closes(self):
        breaker, clock = make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_with_doubled_backoff(self):
        breaker, clock = make(threshold=1, reset=5.0, backoff_factor=2.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: backoff now 10s
        assert breaker.state == "open"
        clock.advance(5.0)
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_backoff_is_capped(self):
        breaker, clock = make(
            threshold=1, reset=5.0, backoff_factor=10.0, max_reset_seconds=20.0
        )
        for _ in range(4):  # each failed probe multiplies, capped at 20s
            breaker.record_failure()
            clock.advance(60.0)
            assert breaker.allow()
        breaker.record_failure()
        clock.advance(20.0)
        assert breaker.allow()

    def test_straggling_failure_while_open_changes_nothing(self):
        breaker, clock = make(threshold=1, reset=5.0)
        breaker.record_failure()
        breaker.record_failure()  # late failure from an in-flight request
        clock.advance(5.0)
        assert breaker.allow()  # backoff was not extended


class TestObservability:
    def test_snapshot_shows_state_and_retry_window(self):
        breaker, clock = make(threshold=1, reset=5.0)
        assert breaker.snapshot() == {
            "state": "closed", "consecutive_failures": 0,
        }
        breaker.record_failure()
        clock.advance(2.0)
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["retry_in_seconds"] == pytest.approx(3.0)

    def test_listener_sees_each_transition_in_order(self):
        transitions = []
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, reset_seconds=5.0),
            clock=clock, listener=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_success()
        assert transitions == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
        ]

    def test_state_codes_rise_with_severity(self):
        assert BREAKER_STATE_CODES == {"closed": 0, "half_open": 1, "open": 2}
