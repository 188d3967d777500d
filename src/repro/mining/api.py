"""Public mining entry point (system S20).

:func:`mine` is the one function a downstream user needs: give it a
database, a support threshold (absolute count or fraction) and an
algorithm name, get a :class:`~repro.mining.result.MiningResult` back.

Runs of resumable algorithms (see
:data:`~repro.mining.registry.RESUMABLE_ALGORITHMS`) are fault
tolerant: a deadline or cancellation returns a *partial* result
(``complete=False``) carrying a resume checkpoint instead of raising,
and ``mine(..., resume_from=checkpoint)`` continues a run from its last
completed boundary after validating that the database, threshold,
algorithm and options all still match.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.core.checkpoint import (
    CheckpointIdentity,
    CheckpointRecorder,
    CheckpointSink,
    MiningCheckpoint,
    options_fingerprint,
    recording_scope,
)
from repro.core.sequence import seq_length
from repro.db.database import SequenceDatabase
from repro.exceptions import InvalidParameterError, OperationCancelledError
from repro.mining.registry import get_algorithm, supports_resume
from repro.mining.result import MiningResult
from repro.obs import NOOP_OBSERVATION, RunReport, activated, observation
from repro.obs import events as obs_events
from repro.obs.trace_context import current_trace


def run_identity(
    db: SequenceDatabase,
    min_support: float | int,
    algorithm: str,
    options: Mapping[str, Any],
) -> CheckpointIdentity:
    """The checkpoint identity of a prospective :func:`mine` call.

    Services use this to validate a stored checkpoint against a run
    *before* enqueueing it (:meth:`MiningCheckpoint.validate_for`).
    """
    return CheckpointIdentity(
        database_digest=db.content_digest(),
        delta=db.delta_for(min_support),
        algorithm=algorithm,
        options_fingerprint=options_fingerprint(options),
    )


def mine(
    db: SequenceDatabase,
    min_support: float | int,
    algorithm: str = "disc-all",
    closed: bool = False,
    maximal: bool = False,
    min_length: int | None = None,
    max_length: int | None = None,
    observe: bool = False,
    resume_from: MiningCheckpoint | None = None,
    checkpoint_to: CheckpointSink | None = None,
    **options,
) -> MiningResult:
    """Mine every frequent sequence of *db*.

    *min_support* is an absolute support count when given as an ``int``,
    or a fraction of the database size when given as a ``float`` in
    (0, 1] — the paper's "minimum support threshold".  *algorithm* names
    a registered miner (``disc-all`` by default, the paper's bi-level
    configuration); extra keyword *options* are forwarded to it (e.g.
    ``gamma=`` for ``dynamic-disc-all``).

    ``closed=True`` / ``maximal=True`` post-filter to the closed or
    maximal subset; *min_length* / *max_length* bound pattern lengths.
    The filters compose: closed/maximal are computed over the full
    result first, then the length bounds apply.

    ``observe=True`` runs the miner under a live :mod:`repro.obs`
    observation and attaches its :class:`~repro.obs.RunReport` (span tree
    plus metric snapshot) to the result.  The default keeps the no-op
    instrumentation, so the hot path pays nothing.

    For resumable algorithms, cancellation and deadlines yield a partial
    result (``complete=False`` with a resume checkpoint) rather than an
    exception — post-filters are *not* applied to partial results, since
    closed/maximal sets over incomplete patterns would mislead.
    ``resume_from`` continues such a run; its fingerprint must match
    this call exactly (:class:`~repro.exceptions.CheckpointMismatchError`
    otherwise).  ``checkpoint_to`` receives a fresh
    :class:`~repro.core.checkpoint.MiningCheckpoint` at every completed
    boundary, which is how the mining service journals progress.

    ``elapsed_seconds`` covers the full run — mining *and* the
    closed/maximal/length post-filters (the filters dominate on dense
    results, so excluding them would misstate the cost).

    A sequence is frequent when its support count is >= the resolved
    threshold (see DESIGN.md on the >= convention).
    """
    if closed and maximal:
        raise InvalidParameterError("choose at most one of closed/maximal")
    if min_length is not None or max_length is not None:
        lo_check = min_length if min_length is not None else 1
        hi_check = max_length if max_length is not None else float("inf")
        if lo_check < 1 or hi_check < lo_check:
            raise InvalidParameterError(
                f"invalid length bounds [{min_length}, {max_length}]"
            )
    delta = db.delta_for(min_support)
    miner = get_algorithm(algorithm)
    resumable = supports_resume(algorithm)
    if not resumable and (resume_from is not None or checkpoint_to is not None):
        raise InvalidParameterError(
            f"algorithm {algorithm!r} does not support checkpoint/resume"
        )
    recorder: CheckpointRecorder | None = None
    if resumable:
        # The recorder itself is chunk bookkeeping — O(1) per round
        # boundary, one reference per merged partition.  The database
        # digest (one full scan) is only paid when a checkpoint is
        # actually consumed or produced.
        if resume_from is not None:
            resume_from.validate_for(run_identity(db, delta, algorithm, options))
        recorder = CheckpointRecorder(resume_from=resume_from, sink=checkpoint_to)
        if checkpoint_to is not None:
            recorder.bind_identity(run_identity(db, delta, algorithm, options))

    obs = observation() if observe else NOOP_OBSERVATION
    started = time.perf_counter()
    checkpoint: MiningCheckpoint | None = None
    # A run under an ambient trace (a service job, a traced CLI run)
    # stamps the trace id on its root span, so the RunReport — and any
    # cache entry built from it — stays joinable with journal records
    # and event-log lines long after the job object is gone.
    span_attrs: dict[str, Any] = {"algorithm": algorithm, "delta": delta}
    trace = current_trace()
    if trace is not None:
        span_attrs["trace_id"] = trace.trace_id
    with activated(obs), obs.tracer.span("mine", **span_attrs):
        with obs.tracer.span("algorithm"):
            if recorder is None:
                patterns = miner(db.members(), delta, **options)
            else:
                with recording_scope(recorder):
                    try:
                        patterns = miner(db.members(), delta, **options)
                    except OperationCancelledError:
                        if not recorder.attached:
                            raise  # the run never reached its first boundary
                        checkpoint = recorder.capture(
                            run_identity(db, delta, algorithm, options)
                        )
                        patterns = dict(checkpoint.patterns)
        result = MiningResult(
            patterns=patterns,
            delta=delta,
            algorithm=algorithm,
            database_size=len(db),
            complete=checkpoint is None,
            completed_k=0 if checkpoint is None else checkpoint.completed_k,
            checkpoint=checkpoint,
            _vocabulary=db.vocabulary,
        )
        if checkpoint is None:
            with obs.tracer.span("post_filter", closed=closed, maximal=maximal):
                if closed:
                    result = _replace_patterns(result, result.closed_patterns())
                elif maximal:
                    result = _replace_patterns(result, result.maximal_patterns())
                if min_length is not None or max_length is not None:
                    lo = min_length if min_length is not None else 1
                    hi = max_length if max_length is not None else float("inf")
                    result = _replace_patterns(
                        result,
                        {
                            raw: count
                            for raw, count in result.patterns.items()
                            if lo <= seq_length(raw) <= hi
                        },
                    )
    elapsed = time.perf_counter() - started
    report = obs.report() if observe else None
    if report is not None and obs_events.enabled():
        # narrate per-phase attribution into the event log — outside the
        # mining loop, once per run, only when both sides are enabled
        for phase, seconds in report.phase_totals().items():
            obs_events.emit(
                "mine.phase",
                phase=phase,
                seconds=round(seconds, 6),
                algorithm=algorithm,
            )
    return _replace_patterns(
        result,
        result.patterns,
        elapsed_seconds=elapsed,
        report=report,
    )


def _replace_patterns(
    result: MiningResult,
    patterns: dict,
    elapsed_seconds: float | None = None,
    report: "RunReport | None" = None,
) -> MiningResult:
    """A copy of *result* with a different pattern map."""
    return MiningResult(
        patterns=patterns,
        delta=result.delta,
        algorithm=result.algorithm,
        database_size=result.database_size,
        elapsed_seconds=(
            result.elapsed_seconds if elapsed_seconds is None else elapsed_seconds
        ),
        complete=result.complete,
        completed_k=result.completed_k,
        checkpoint=result.checkpoint,
        report=result.report if report is None else report,
        _vocabulary=result._vocabulary,
    )
