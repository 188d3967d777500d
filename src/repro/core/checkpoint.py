"""Mining checkpoints: resumable snapshots of a levelwise DISC run.

DISC is levelwise — first-level partitions, then one discovery round per
pattern length ``k`` — and the miners already pause at every boundary to
poll the cancel token (:mod:`repro.core.cancel`).  This module turns
those same boundaries into snapshot points: a
:class:`CheckpointRecorder` rides along with a run and keeps its
completed work as an append-only list of :class:`CheckpointChunk`
records; a :class:`MiningCheckpoint` captured at a boundary is a prefix
of that list plus a fingerprint of the run that produced it.

Chunks are what keep recording cheap and resume exact.  First-level
partitions are disjoint by minimum item (Figure 2, step 2), so once the
first-level loop merges a partition its patterns are final.  The first
chunk holds the run's 1-sequences (and whatever a resumed run inherited);
every merged partition appends one chunk holding that partition's
patterns (kept by reference, not copied).  Recording a boundary is
therefore O(1): capturing a checkpoint shares the chunk list, a
discovery-round boundary adds no chunk, and the full ``patterns``
mapping is built only when someone reads it — on resume, for a
cancelled run's partial result, or in :meth:`MiningCheckpoint.to_dict`.
:meth:`MiningCheckpoint.since` cuts out the chunks added after an
earlier boundary, so serialising a boundary costs only the patterns it
added; that is how the mining service journals each pattern once, and
:meth:`MiningCheckpoint.fold` puts such deltas back together.  Resuming seeds the output with the
checkpoint's patterns, skips completed partitions outright, and re-runs
the interrupted partition from scratch; the rerun rewrites identical
values, so a resumed run's final pattern set is byte-identical to an
uninterrupted one.

A checkpoint only fits the run it came from.  Its
:class:`CheckpointIdentity` — database digest, delta, algorithm, options
fingerprint — is validated on resume and any mismatch raises
:class:`~repro.exceptions.CheckpointMismatchError`: resuming across a
changed database or threshold would silently produce wrong patterns.

Like the cancel token, the active recorder is ambient state scoped with
a context manager (:func:`recording_scope`); the default
:data:`NOOP_RECORDER` makes uninstrumented runs free.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.sequence import RawSequence, canonical
from repro.exceptions import CheckpointMismatchError, DataFormatError

#: Serialization format marker and version for checkpoint payloads.
#: Version 2 payloads may hold only the work one boundary added; a
#: job's payloads are folded back together (:meth:`MiningCheckpoint.fold`).
CHECKPOINT_FORMAT = "repro.mining-checkpoint"
CHECKPOINT_VERSION = 2


def options_fingerprint(options: Mapping[str, Any]) -> str:
    """A stable digest of miner options, for checkpoint identity.

    Options are JSON-serialized with sorted keys so dict ordering and
    insertion history cannot change the fingerprint.
    """
    payload = json.dumps(
        # repro: allow[DISC002] — option names are strings, not sequences
        {str(key): options[key] for key in sorted(options)},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class CheckpointIdentity:
    """The fingerprint tying a checkpoint to one exact run configuration."""

    database_digest: str
    delta: int
    algorithm: str
    options_fingerprint: str

    def mismatch(self, other: "CheckpointIdentity") -> str | None:
        """Human-readable description of the first differing field, if any."""
        if self.database_digest != other.database_digest:
            return (
                f"database digest {other.database_digest[:12]}… does not "
                f"match checkpoint digest {self.database_digest[:12]}…"
            )
        if self.delta != other.delta:
            return f"delta {other.delta} does not match checkpoint delta {self.delta}"
        if self.algorithm != other.algorithm:
            return (
                f"algorithm {other.algorithm!r} does not match checkpoint "
                f"algorithm {self.algorithm!r}"
            )
        if self.options_fingerprint != other.options_fingerprint:
            return "miner options do not match the checkpoint's options"
        return None


@dataclass(frozen=True, slots=True)
class CheckpointChunk:
    """The completed work one boundary added: partitions and patterns.

    Never mutated once recorded: a chunk's *patterns* are the final
    supports of the first-level *partitions* it completes (or of the
    1-sequences, in a run's first chunk).
    """

    partitions: tuple[int, ...]
    patterns: Mapping[RawSequence, int]


def _pattern_sort_key(entry: tuple[RawSequence, int]) -> RawSequence:
    return entry[0]


class MiningCheckpoint:
    """A resumable snapshot of a partially-completed mining run.

    ``patterns`` holds every frequent sequence discovered by *completed*
    boundaries only — each with its final support count.
    ``completed_partitions`` lists the first-level minimum items whose
    partitions finished entirely; ``completed_k`` is the highest pattern
    length whose round completed inside the partition that was running
    when the snapshot was taken (0 when between partitions).

    The snapshot is a view of chunks ``[start, stop)`` of a recorder's
    append-only chunk list, so taking one is O(1); ``patterns`` and
    ``completed_partitions`` are built from the chunks when first read.
    """

    __slots__ = (
        "identity", "completed_k", "_chunks", "_start", "_stop", "_patterns",
    )

    def __init__(
        self,
        identity: CheckpointIdentity,
        completed_partitions: Iterable[int] = (),
        completed_k: int = 0,
        patterns: Mapping[RawSequence, int] | None = None,
    ) -> None:
        self.identity = identity
        self.completed_k = completed_k
        chunk = CheckpointChunk(
            tuple(completed_partitions), patterns if patterns is not None else {}
        )
        self._chunks: Sequence[CheckpointChunk] = (chunk,)
        self._start = 0
        self._stop = 1
        self._patterns: Mapping[RawSequence, int] | None = None

    @classmethod
    def of_chunks(
        cls,
        identity: CheckpointIdentity,
        chunks: Sequence[CheckpointChunk],
        stop: int,
        completed_k: int = 0,
        start: int = 0,
    ) -> "MiningCheckpoint":
        """The checkpoint of ``chunks[start:stop]``, sharing *chunks*.

        *chunks* may keep growing after the call (a recorder appends to
        it); the checkpoint only ever reads its own slice.
        """
        checkpoint = cls.__new__(cls)
        checkpoint.identity = identity
        checkpoint.completed_k = completed_k
        checkpoint._chunks = chunks
        checkpoint._start = start
        checkpoint._stop = stop
        checkpoint._patterns = None
        return checkpoint

    @property
    def chunks(self) -> tuple[CheckpointChunk, ...]:
        """The chunks of completed work this checkpoint holds, in order."""
        return tuple(self._chunks[self._start:self._stop])

    @property
    def chunk_count(self) -> int:
        """How many chunks this checkpoint holds (see :meth:`since`)."""
        return self._stop - self._start

    @property
    def completed_partitions(self) -> tuple[int, ...]:
        """First-level minimum items whose partitions completed."""
        return tuple(lam for chunk in self.chunks for lam in chunk.partitions)

    @property
    def patterns(self) -> Mapping[RawSequence, int]:
        """Every pattern of completed work with its final support."""
        if self._patterns is None:
            chunks = self.chunks
            if len(chunks) == 1:
                self._patterns = chunks[0].patterns
            else:
                merged: dict[RawSequence, int] = {}
                for chunk in chunks:
                    merged.update(chunk.patterns)
                self._patterns = merged
        return self._patterns

    def since(self, chunk_count: int) -> "MiningCheckpoint":
        """The work added after this run's first *chunk_count* chunks.

        ``later.since(earlier.chunk_count)`` is the delta between two
        checkpoints of one run: only the partitions and patterns the
        boundaries in between completed.
        """
        return MiningCheckpoint.of_chunks(
            self.identity, self._chunks, self._stop, self.completed_k,
            start=self._start + chunk_count,
        )

    @classmethod
    def fold(cls, checkpoints: Iterable["MiningCheckpoint"]) -> "MiningCheckpoint":
        """One checkpoint holding the work of all *checkpoints* of a run.

        Partitions are disjoint, so the fold is a union: any subset of a
        run's deltas, in any order and with repeats, folds to a valid
        checkpoint, and folding a delta twice changes nothing.  Raises
        :class:`DataFormatError` when the checkpoints name different
        runs, disagree on a support, or there are none.
        """
        identity: CheckpointIdentity | None = None
        completed_k = 0
        partitions: dict[int, None] = {}
        patterns: dict[RawSequence, int] = {}
        for checkpoint in checkpoints:
            if identity is None:
                identity = checkpoint.identity
            elif checkpoint.identity != identity:
                raise DataFormatError("checkpoints to fold come from different runs")
            for chunk in checkpoint.chunks:
                partitions.update(dict.fromkeys(chunk.partitions))
                for raw, count in chunk.patterns.items():
                    if patterns.setdefault(raw, count) != count:
                        raise DataFormatError(
                            f"checkpoints to fold disagree on the support of {raw!r}"
                        )
            completed_k = checkpoint.completed_k
        if identity is None:
            raise DataFormatError("no checkpoint to fold")
        return cls(identity, tuple(partitions), completed_k, patterns)

    def matches(self, identity: CheckpointIdentity) -> bool:
        """Whether this checkpoint fits a run with *identity*."""
        return self.identity.mismatch(identity) is None

    def validate_for(self, identity: CheckpointIdentity) -> None:
        """Raise :class:`CheckpointMismatchError` unless identities match."""
        reason = self.identity.mismatch(identity)
        if reason is not None:
            raise CheckpointMismatchError(f"cannot resume: {reason}")

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable payload (see :data:`CHECKPOINT_FORMAT`)."""
        patterns = sorted(self.patterns.items(), key=_pattern_sort_key)
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "database_digest": self.identity.database_digest,
            "delta": self.identity.delta,
            "algorithm": self.identity.algorithm,
            "options_fingerprint": self.identity.options_fingerprint,
            "completed_partitions": list(self.completed_partitions),
            "completed_k": self.completed_k,
            "patterns": [
                [[list(itemset) for itemset in seq], count]
                for seq, count in patterns
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MiningCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise DataFormatError("checkpoint payload must be an object")
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise DataFormatError(
                f"not a mining checkpoint: format={payload.get('format')!r}"
            )
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        try:
            identity = CheckpointIdentity(
                database_digest=str(payload["database_digest"]),
                delta=int(payload["delta"]),
                algorithm=str(payload["algorithm"]),
                options_fingerprint=str(payload["options_fingerprint"]),
            )
            completed_partitions = tuple(
                int(item) for item in payload["completed_partitions"]
            )
            completed_k = int(payload["completed_k"])
            patterns: dict[RawSequence, int] = {}
            for entry in payload["patterns"]:
                raw_seq, count = entry
                patterns[canonical(raw_seq)] = int(count)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed checkpoint payload: {exc}") from exc
        return cls(
            identity=identity,
            completed_partitions=completed_partitions,
            completed_k=completed_k,
            patterns=patterns,
        )

    def to_json(self) -> str:
        """Serialize to a compact JSON string."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "MiningCheckpoint":
        """Parse a checkpoint from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MiningCheckpoint):
            return NotImplemented
        return (
            self.identity == other.identity
            and self.completed_k == other.completed_k
            and self.completed_partitions == other.completed_partitions
            and dict(self.patterns) == dict(other.patterns)
        )

    def __repr__(self) -> str:
        return (
            f"MiningCheckpoint(identity={self.identity!r}, "
            f"completed_partitions={self.completed_partitions!r}, "
            f"completed_k={self.completed_k!r}, "
            f"patterns=<{len(self.patterns)} patterns>)"
        )


#: Callback fed freshly captured checkpoints at every completed boundary.
CheckpointSink = Callable[[MiningCheckpoint], None]


class CheckpointRecorder:
    """Rides along with one mining run, snapshotting at round boundaries.

    The miner calls :meth:`attach` once its output dict holds the
    1-sequences (seeding any resumed patterns), :meth:`should_skip`
    before each first-level partition, :meth:`partition_done` with each
    merged partition's patterns and :meth:`round_done` after each DISC
    round.  :meth:`capture` builds a :class:`MiningCheckpoint` over the
    chunks recorded so far.

    Not thread-safe by design: one recorder belongs to one run, and the
    parallel coordinator only records on the coordinating thread.
    """

    def __init__(
        self,
        resume_from: MiningCheckpoint | None = None,
        sink: CheckpointSink | None = None,
    ) -> None:
        self._resume = resume_from
        self._sink = sink
        self._attached = False
        self._chunks: list[CheckpointChunk] = []
        self._done: set[int] = set()
        self._completed_k = 0
        self._sink_identity: CheckpointIdentity | None = None
        if resume_from is not None:
            self._chunks.extend(resume_from.chunks)
            self._done.update(resume_from.completed_partitions)

    @property
    def attached(self) -> bool:
        """Whether a run has attached its output dict yet."""
        return self._attached

    @property
    def completed_k(self) -> int:
        """Highest completed round length in the current partition."""
        return self._completed_k

    @property
    def completed_partitions(self) -> tuple[int, ...]:
        """First-level minimum items whose partitions completed."""
        return tuple(lam for chunk in self._chunks for lam in chunk.partitions)

    def attach(self, patterns: dict[RawSequence, int]) -> None:
        """Bind the run's output dict; seeds resumed patterns into it.

        Must be called once the miner has written its 1-sequences and
        before any boundary notification.  Resumed patterns are inserted
        first; the run's own 1-sequences become the first chunk of new
        work (only those the resumed checkpoint lacks, on a resume).
        """
        own = dict(patterns)
        if self._resume is not None:
            resumed = self._resume.patterns
            if resumed:
                patterns.clear()
                patterns.update(resumed)
                patterns.update(own)
                own = {raw: count for raw, count in own.items() if raw not in resumed}
        if own:
            self._chunks.append(CheckpointChunk((), own))
        self._attached = True

    def should_skip(self, minimum_item: int) -> bool:
        """Whether the first-level partition of *minimum_item* is done."""
        return minimum_item in self._done

    def round_done(self, k: int) -> None:
        """Mark the per-``k`` discovery round complete."""
        if not self._attached:
            return
        self._completed_k = k
        self._emit()

    def partition_done(
        self, minimum_item: int, patterns: Mapping[RawSequence, int]
    ) -> None:
        """Mark a first-level partition complete with its merged *patterns*.

        *patterns* is kept by reference as the partition's chunk: the
        caller must not change it afterwards.
        """
        if not self._attached:
            return
        self._chunks.append(CheckpointChunk((minimum_item,), patterns))
        self._done.add(minimum_item)
        self._completed_k = 0
        self._emit()

    def capture(self, identity: CheckpointIdentity) -> MiningCheckpoint:
        """Snapshot completed work as a :class:`MiningCheckpoint`."""
        return MiningCheckpoint.of_chunks(
            identity, self._chunks, len(self._chunks), self._completed_k
        )

    def _emit(self) -> None:
        if self._sink is None:
            return
        identity = self._sink_identity
        if identity is not None:
            self._sink(self.capture(identity))

    def bind_identity(self, identity: CheckpointIdentity) -> None:
        """Set the identity stamped onto sink-emitted checkpoints."""
        self._sink_identity = identity


class _NoopRecorder(CheckpointRecorder):
    """Shared default recorder: every notification is a cheap no-op."""

    def __init__(self) -> None:
        super().__init__()

    def attach(self, patterns: dict[RawSequence, int]) -> None:
        pass

    def should_skip(self, minimum_item: int) -> bool:
        return False

    def round_done(self, k: int) -> None:
        pass

    def partition_done(
        self, minimum_item: int, patterns: Mapping[RawSequence, int]
    ) -> None:
        pass


#: Shared inert recorder used when no recording scope is active.
NOOP_RECORDER = _NoopRecorder()

_ACTIVE_RECORDER: ContextVar[CheckpointRecorder] = ContextVar(
    "repro_checkpoint_recorder", default=NOOP_RECORDER
)


def active_recorder() -> CheckpointRecorder:
    """The recorder for the current context (the no-op one by default)."""
    return _ACTIVE_RECORDER.get()


@contextmanager
def recording_scope(recorder: CheckpointRecorder) -> Iterator[CheckpointRecorder]:
    """Make *recorder* the ambient recorder within a ``with`` block."""
    handle = _ACTIVE_RECORDER.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE_RECORDER.reset(handle)
