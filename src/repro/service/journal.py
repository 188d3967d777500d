"""Durable write-ahead journal for mining jobs (system S27).

The scheduler's job table lives in memory; a crash or SIGKILL forgets
every queued and running job.  :class:`JobJournal` fixes that with the
oldest trick in the book: an append-only JSONL file recording each job's
lifecycle — ``accepted`` → ``started`` → ``checkpoint`` (one per
completed first-level partition, carrying only the work completed since
the previous one) → ``finished`` — fsynced on every state transition.
On startup, :func:`replay_journal` folds the file back into per-job
last-known states, and a job's ``checkpoint`` records back into one
resume checkpoint (:meth:`JournalEntry.checkpoint`); the service
re-enqueues interrupted jobs from that checkpoint and marks unresumable
ones failed with a reason (see :meth:`MiningService.recover`).

Record shape: one JSON object per line, always with ``event``, ``job``
and ``ts`` (wall-clock seconds) keys, plus event-specific fields::

    {"event": "accepted", "job": "j000001", "ts": ..., "database": ...,
     "digest": ..., "delta": 3, "algorithm": "disc-all", "options": {},
     "deadline_seconds": null, "trace_id": "4bf9..."}

Records written by a traced service additionally carry the job's
``trace_id``, so journal lines join against the structured event log
and the resumed run keeps the original trace identity across a crash.
    {"event": "started", "job": "j000001", "ts": ..., "attempt": 1}
    {"event": "checkpoint", "job": "j000001", "ts": ..., "completed_k": 0,
     "partitions": 4, "checkpoint": {...MiningCheckpoint.to_dict()...}}
    {"event": "finished", "job": "j000001", "ts": ..., "state": "done",
     "error": null, "code": null, "complete": true}

A ``checkpoint`` record's ``partitions`` counts every partition the job
has completed so far, but its ``checkpoint`` payload (format version 2)
holds only the partitions completed since the job's previous record and
their patterns — the first record also holds the 1-sequences — so a
job journals each pattern once.  Partitions are disjoint, so folding the
records is a union: a record journaled twice (a retry after a failed
``journal.fsync``) folds to the same checkpoint.  A record of an older
format version makes the fold fail, and recovery restarts that job from
scratch.

Replay is deliberately forgiving: a torn final line (the process died
mid-write) and garbage from interleaved writers are counted and skipped,
never fatal — the journal exists precisely for ungraceful exits, so its
reader must not demand a graceful one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.checkpoint import MiningCheckpoint
from repro.exceptions import InvalidParameterError
from repro.faults import fault_point

#: Journal events a job can no longer progress past.
FINISHED_EVENT = "finished"


class JobJournal:
    """Append-only, fsynced JSONL journal of job lifecycle events.

    Thread-safe: the scheduler's workers, the checkpoint sink, and the
    submission path all append concurrently; a lock serialises writes so
    records never interleave *within* one process.  (Two processes
    appending to one file can still tear lines — replay tolerates it.)
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        if self._path.is_dir():
            raise InvalidParameterError(
                f"journal path {self._path} is a directory; pass a file path"
            )
        self._lock = threading.Lock()
        self._handle = open(self._path, "a", encoding="utf-8")  # guarded-by: _lock

    @property
    def path(self) -> Path:
        """The journal file location."""
        return self._path

    def append(self, event: str, job_id: str, **fields: Any) -> None:
        """Durably append one lifecycle record.

        Flushes and fsyncs before returning: once this method returns,
        the record survives a crash.  The ``journal.fsync`` fault site
        fires *before* the fsync, modelling a write that reached the OS
        but was never made durable.
        """
        record: dict[str, Any] = {"event": event, "job": job_id, "ts": time.time()}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._handle.closed:
                raise InvalidParameterError(
                    f"journal {self._path} is closed"
                )
            self._handle.write(line + "\n")
            self._handle.flush()
            fault_point("journal.fsync")
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file handle."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JournalEntry:
    """The folded last-known state of one journaled job."""

    __slots__ = (
        "job_id", "accepted", "last_event", "state", "attempts",
        "checkpoints", "error", "code", "trace_id",
    )

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.accepted: dict[str, Any] | None = None
        self.last_event = ""
        self.state: str | None = None
        self.attempts = 0
        #: the payloads of the job's ``checkpoint`` records, in order
        self.checkpoints: list[Mapping[str, Any]] = []
        self.error: str | None = None
        self.code: str | None = None
        self.trace_id: str | None = None

    @property
    def finished(self) -> bool:
        """True once a ``finished`` record was journaled for this job."""
        return self.last_event == FINISHED_EVENT

    def checkpoint(self) -> MiningCheckpoint:
        """The job's ``checkpoint`` records folded into one checkpoint.

        Raises :class:`~repro.exceptions.DataFormatError` when the job
        has none, or one is malformed or of another format version.
        """
        return MiningCheckpoint.fold(
            MiningCheckpoint.from_dict(payload) for payload in self.checkpoints
        )

    def absorb(self, record: Mapping[str, Any]) -> None:
        """Fold one journal record into this entry (last state wins)."""
        event = str(record.get("event", ""))
        self.last_event = event
        trace_id = record.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            self.trace_id = trace_id
        if event == "accepted":
            self.accepted = dict(record)
        elif event == "started":
            attempt = record.get("attempt")
            if isinstance(attempt, int):
                self.attempts = max(self.attempts, attempt)
        elif event == "checkpoint":
            payload = record.get("checkpoint")
            if isinstance(payload, dict):
                self.checkpoints.append(payload)
        elif event == FINISHED_EVENT:
            self.checkpoints.clear()  # a finished job is never resumed
            state = record.get("state")
            self.state = str(state) if state is not None else None
            error = record.get("error")
            self.error = str(error) if error is not None else None
            code = record.get("code")
            self.code = str(code) if code is not None else None


class JournalReplay:
    """Everything :func:`replay_journal` learned from one journal file."""

    __slots__ = ("entries", "corrupt_lines", "total_lines")

    def __init__(self) -> None:
        #: per-job folded state, in order of first appearance
        self.entries: dict[str, JournalEntry] = {}
        #: lines that were not valid one-object JSON records
        self.corrupt_lines = 0
        self.total_lines = 0

    def interrupted(self) -> list[JournalEntry]:
        """Jobs the journal never saw finish, in journal order."""
        return [entry for entry in self.entries.values() if not entry.finished]

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries.values())


def replay_journal(path: str | Path) -> JournalReplay:
    """Fold a journal file into per-job last-known states.

    Corrupt lines — a torn final write, or bytes interleaved by a second
    writer — are counted in ``corrupt_lines`` and skipped.  Records
    without a usable ``job`` id are treated the same way.  A missing
    file replays as empty: a fresh journal has no history to recover.
    """
    replay = JournalReplay()
    journal_path = Path(path)
    if not journal_path.exists():
        return replay
    with open(journal_path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            replay.total_lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                replay.corrupt_lines += 1
                continue
            if not isinstance(record, dict):
                replay.corrupt_lines += 1
                continue
            job_id = record.get("job")
            if not isinstance(job_id, str) or not job_id:
                replay.corrupt_lines += 1
                continue
            entry = replay.entries.get(job_id)
            if entry is None:
                entry = JournalEntry(job_id)
                replay.entries[job_id] = entry
            entry.absorb(record)
    return replay
