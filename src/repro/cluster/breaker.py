"""Per-worker circuit breakers for shard dispatch (system S30).

A breaker sits between the coordinator and one worker and answers a
single question before every dispatch: *is it worth sending this worker
a shard right now?*  Consecutive transport/5xx failures trip the
breaker ``closed → open``; an open breaker refuses dispatch outright,
so a dead or sick worker stops eating shard attempts (and the retry
latency they cost).  After a backoff the breaker admits exactly one
half-open *probe* request — success closes it again, failure re-opens
it with a doubled backoff (capped), so a flapping worker is probed at a
gentle, widening cadence instead of hammered.

State machine::

    closed ──(failures >= threshold)──> open
    open   ──(backoff elapsed, one probe admitted)──> half_open
    half_open ──(probe succeeds)──> closed
    half_open ──(probe fails)────> open   (backoff doubled, capped)

Thread model: :meth:`allow` / :meth:`record_success` /
:meth:`record_failure` are called by the coordinating thread of each
cluster run, while :meth:`state` / :meth:`snapshot` are also read by
HTTP handler threads (``/healthz``) and the membership reaper, and
concurrent runs share a worker's breaker — everything mutable lives
under one lock.  The transition listener is invoked *outside* the lock
so it may emit events or touch metric registries without any
lock-ordering concern.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro import contracts
from repro.exceptions import InvalidParameterError

#: breaker states, as exported on ``/healthz`` and in events
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: numeric encoding for the ``cluster.breaker_state{worker}`` gauge:
#: the gauge rises with severity, so alerts can threshold on ``>= 2``;
#: declared in :mod:`repro.contracts` so dashboards and code agree
BREAKER_STATE_CODES: dict[str, int] = dict(contracts.BREAKER_STATE_CODES)

#: transition listener: ``(old_state, new_state)``; called outside the lock
TransitionListener = Callable[[str, str], None]


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Tunables for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive recorded failures open the
    breaker; ``reset_seconds`` is the first open→half-open backoff,
    multiplied by ``backoff_factor`` on every failed probe up to
    ``max_reset_seconds``.
    """

    failure_threshold: int = 3
    reset_seconds: float = 5.0
    backoff_factor: float = 2.0
    max_reset_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise InvalidParameterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_seconds <= 0:
            raise InvalidParameterError(
                f"reset_seconds must be > 0, got {self.reset_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise InvalidParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_reset_seconds < self.reset_seconds:
            raise InvalidParameterError(
                "max_reset_seconds must be >= reset_seconds, got "
                f"{self.max_reset_seconds} < {self.reset_seconds}"
            )


class CircuitBreaker:
    """Failure-gated admission for one worker's shard dispatch."""

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        listener: TransitionListener | None = None,
    ) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._listener = listener
        self._lock = threading.Lock()
        self._state = CLOSED  # guarded-by: _lock
        self._failures = 0  # guarded-by: _lock
        self._opened_at = 0.0  # guarded-by: _lock
        self._backoff = self.config.reset_seconds  # guarded-by: _lock
        self._probe_inflight = False  # guarded-by: _lock

    # -- reads ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state (one of closed / open / half_open).

        Pure read: an open breaker whose backoff has elapsed still reads
        ``open`` until :meth:`allow` admits the half-open probe.
        """
        with self._lock:
            return self._state

    def snapshot(self) -> dict[str, object]:
        """State + tunings for ``/healthz`` and the soak report."""
        with self._lock:
            doc: dict[str, object] = {
                "state": self._state,
                "consecutive_failures": self._failures,
            }
            if self._state == OPEN:
                remaining = self._backoff - (self._clock() - self._opened_at)
                doc["retry_in_seconds"] = round(max(0.0, remaining), 3)
            return doc

    # -- transitions ---------------------------------------------------------

    def allow(self) -> bool:
        """Admit or refuse one dispatch; may take the half-open probe slot.

        Returns True when the caller may send the worker a request.  In
        half-open, exactly one caller wins the probe slot until its
        outcome is recorded, so call it only with a request to send.
        """
        transition: tuple[str, str] | None = None
        with self._lock:
            if self._state == CLOSED:
                allowed = True
            elif self._state == OPEN:
                if self._clock() - self._opened_at >= self._backoff:
                    transition = (self._state, HALF_OPEN)
                    self._state = HALF_OPEN
                    self._probe_inflight = True
                    allowed = True
                else:
                    allowed = False
            else:  # half_open
                allowed = not self._probe_inflight
                if allowed:
                    self._probe_inflight = True
        self._notify(transition)
        return allowed

    def record_success(self) -> None:
        """One request succeeded: close (and fully reset) the breaker."""
        transition: tuple[str, str] | None = None
        with self._lock:
            if self._state != CLOSED:
                transition = (self._state, CLOSED)
            self._state = CLOSED
            self._failures = 0
            self._backoff = self.config.reset_seconds
            self._probe_inflight = False
        self._notify(transition)

    def record_failure(self) -> None:
        """One request failed: count toward opening, or fail the probe."""
        transition: tuple[str, str] | None = None
        with self._lock:
            if self._state == HALF_OPEN:
                # the probe failed: back off harder before the next one
                transition = (self._state, OPEN)
                self._state = OPEN
                self._opened_at = self._clock()
                self._backoff = min(
                    self._backoff * self.config.backoff_factor,
                    self.config.max_reset_seconds,
                )
                self._probe_inflight = False
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.config.failure_threshold:
                    transition = (self._state, OPEN)
                    self._state = OPEN
                    self._opened_at = self._clock()
                    self._backoff = self.config.reset_seconds
            # already OPEN: a straggling failure changes nothing
        self._notify(transition)

    def _notify(self, transition: tuple[str, str] | None) -> None:
        if transition is not None and self._listener is not None:
            self._listener(*transition)
