"""Portable shard payloads: one first-level partition as a unit of work.

A :class:`ShardPayload` carries everything a worker needs to mine one
``<(lam)>``-partition — the member sequences that contain ``lam``, the
frequent-item universe, delta, the miner options and the identity of the
database it was cut from — with no other shared state.

It has one serialisation, ``to_bytes``/``from_bytes``: an interned,
delta-encoded item vocabulary plus varint-packed member sequences,
framed by a magic prefix and a SHA-256 trailer.  The coordinator ships
it on ``POST /shards``, and the local process pool pickles it instead of
raw ``(lam, group, ...)`` tuples (size delta in EXPERIMENTS.md).  The
payload digest is the SHA-256 of the canonical binary body, so decoding
verifies integrity.

A worker answers with a JSON shard-result document
(:func:`encode_shard_result` / :func:`decode_shard_result`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, cast

from repro.core.discall import FirstLevelJob
from repro.core.order import sort_key
from repro.core.partition import Member
from repro.core.sequence import RawSequence, canonical
from repro.exceptions import DataFormatError, InvalidParameterError
from repro.obs import RunReport

PAYLOAD_VERSION = 1
#: magic prefix of the binary encoding
PAYLOAD_MAGIC = b"RSP0"
#: HTTP Content-Type announcing the binary encoding on ``POST /shards``
PAYLOAD_CONTENT_TYPE = "application/x-repro-shard"

RESULT_FORMAT = "repro.shard-result"
RESULT_VERSION = 1

#: miner options a payload may carry, with their defaults
_OPTION_DEFAULTS: dict[str, object] = {
    "backend": "table",
    "bilevel": True,
    "reduce": True,
}

_SHA256_BYTES = 32


def _write_uvarint(out: bytearray, value: int) -> None:
    """Append *value* as an unsigned LEB128 varint."""
    if value < 0:
        raise DataFormatError(f"cannot varint-encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    """Bounds-checked cursor over a binary payload body."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise DataFormatError(
                    "truncated shard payload: varint runs past the end"
                )
            byte = self._data[self._pos]
            self._pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise DataFormatError("malformed shard payload: varint too long")

    def take(self, count: int) -> bytes:
        end = self._pos + count
        if end > len(self._data):
            raise DataFormatError(
                "truncated shard payload: field runs past the end"
            )
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def exhausted(self) -> bool:
        return self._pos == len(self._data)


def _normalised_options(options: Mapping[str, object] | None) -> dict[str, object]:
    """Defaults overlaid with *options*; unknown keys are an error."""
    merged = dict(_OPTION_DEFAULTS)
    if options:
        unknown = set(options) - set(_OPTION_DEFAULTS)
        if unknown:
            known = ", ".join(sorted(_OPTION_DEFAULTS))  # repro: allow[DISC002] — option names, not sequences
            raise InvalidParameterError(
                f"unknown shard options {sorted(unknown)!r}; known: {known}"  # repro: allow[DISC002] — option names
            )
        merged.update(options)
    return merged


def _encode_body(
    lam: int,
    delta: int,
    members: tuple[Member, ...],
    frequent_items: frozenset[int],
    options: Mapping[str, object],
    database_digest: str,
) -> bytes:
    """Canonical binary body (the digest input) of a shard payload."""
    vocabulary = {lam}
    vocabulary.update(frequent_items)
    for _cid, seq in members:
        for txn in seq:
            vocabulary.update(txn)
    items = sorted(vocabulary)  # repro: allow[DISC002] — scalar int items, not sequences
    index = {item: local for local, item in enumerate(items)}

    out = bytearray()
    _write_uvarint(out, PAYLOAD_VERSION)
    _write_uvarint(out, delta)
    digest_bytes = database_digest.encode("ascii")
    _write_uvarint(out, len(digest_bytes))
    out.extend(digest_bytes)
    options_blob = json.dumps(
        dict(options), sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")
    _write_uvarint(out, len(options_blob))
    out.extend(options_blob)

    # Interned vocabulary: sorted global item ids, delta-encoded.
    _write_uvarint(out, len(items))
    previous = 0
    for item in items:
        _write_uvarint(out, item - previous)
        previous = item
    _write_uvarint(out, index[lam])

    frequent_local = sorted(index[item] for item in frequent_items)  # repro: allow[DISC002] — scalar indexes
    _write_uvarint(out, len(frequent_local))
    previous = 0
    for local in frequent_local:
        _write_uvarint(out, local - previous)
        previous = local

    _write_uvarint(out, len(members))
    for cid, seq in members:
        _write_uvarint(out, cid)
        _write_uvarint(out, len(seq))
        for txn in seq:
            _write_uvarint(out, len(txn))
            previous = 0
            for item in txn:  # canonical itemsets are sorted ascending
                local = index[item]
                _write_uvarint(out, local - previous)
                previous = local
    return bytes(out)


def _decode_body(body: bytes) -> ShardPayload:
    """Parse a canonical binary body back into a payload."""
    reader = _Reader(body)
    version = reader.uvarint()
    if version != PAYLOAD_VERSION:
        raise DataFormatError(
            f"unsupported shard payload version {version} "
            f"(supported: {PAYLOAD_VERSION})"
        )
    delta = reader.uvarint()
    try:
        database_digest = reader.take(reader.uvarint()).decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            "malformed shard payload: database digest is not ascii"
        ) from exc
    options_blob = reader.take(reader.uvarint())
    try:
        raw_options = json.loads(options_blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise DataFormatError(
            "malformed shard payload: options blob is not JSON"
        ) from exc
    if not isinstance(raw_options, dict):
        raise DataFormatError("malformed shard payload: options must be an object")
    options = _normalised_options(raw_options)

    items: list[int] = []
    value = 0
    for _ in range(reader.uvarint()):
        value += reader.uvarint()
        items.append(value)
    lam_index = reader.uvarint()
    if lam_index >= len(items):
        raise DataFormatError("malformed shard payload: lam outside the vocabulary")
    lam = items[lam_index]

    frequent: list[int] = []
    local = 0
    for _ in range(reader.uvarint()):
        local += reader.uvarint()
        if local >= len(items):
            raise DataFormatError(
                "malformed shard payload: frequent item outside the vocabulary"
            )
        frequent.append(items[local])

    members: list[Member] = []
    for _ in range(reader.uvarint()):
        cid = reader.uvarint()
        itemsets: list[tuple[int, ...]] = []
        for _ in range(reader.uvarint()):
            txn: list[int] = []
            local = 0
            for _ in range(reader.uvarint()):
                local += reader.uvarint()
                if local >= len(items):
                    raise DataFormatError(
                        "malformed shard payload: member item outside the vocabulary"
                    )
                txn.append(items[local])
            itemsets.append(tuple(txn))
        members.append((cid, tuple(itemsets)))
    if not reader.exhausted():
        raise DataFormatError("malformed shard payload: trailing bytes after members")

    return ShardPayload(
        lam=lam,
        delta=delta,
        members=tuple(members),
        frequent_items=frozenset(frequent),
        options=options,
        database_digest=database_digest,
        digest=hashlib.sha256(body).hexdigest(),
    )


@dataclass(frozen=True, slots=True)
class ShardPayload:
    """One ``<(lam)>``-partition, packaged for the wire.

    Build instances through :meth:`create` (which computes the digest)
    or :meth:`from_bytes`; the constructor trusts its arguments.
    """

    lam: int
    delta: int
    members: tuple[Member, ...]
    frequent_items: frozenset[int]
    options: Mapping[str, object]
    database_digest: str
    digest: str

    @classmethod
    def create(
        cls,
        lam: int,
        delta: int,
        members: Iterable[Member],
        frequent_items: Iterable[int],
        options: Mapping[str, object] | None = None,
        database_digest: str = "",
    ) -> ShardPayload:
        """Build a payload and stamp its canonical digest."""
        if delta < 1:
            raise InvalidParameterError(f"delta must be >= 1, got {delta}")
        frozen_members = tuple(
            (int(cid), tuple(tuple(txn) for txn in seq)) for cid, seq in members
        )
        frozen_items = frozenset(frequent_items)
        merged = _normalised_options(options)
        body = _encode_body(
            lam, delta, frozen_members, frozen_items, merged, database_digest
        )
        return cls(
            lam=lam,
            delta=delta,
            members=frozen_members,
            frequent_items=frozen_items,
            options=merged,
            database_digest=database_digest,
            digest=hashlib.sha256(body).hexdigest(),
        )

    def cost(self) -> int:
        """Total item occurrences — the largest-first scheduling weight."""
        return sum(len(txn) for _cid, seq in self.members for txn in seq)

    def body(self) -> bytes:
        """The canonical binary body (the digest input)."""
        return _encode_body(
            self.lam, self.delta, self.members, self.frequent_items,
            self.options, self.database_digest,
        )

    def to_bytes(self) -> bytes:
        """Binary form: magic + body + raw SHA-256 trailer."""
        body = self.body()
        return PAYLOAD_MAGIC + body + hashlib.sha256(body).digest()

    @classmethod
    def from_bytes(cls, data: bytes) -> ShardPayload:
        """Decode and verify the binary form."""
        if not data.startswith(PAYLOAD_MAGIC):
            raise DataFormatError("not a shard payload: bad magic prefix")
        if len(data) < len(PAYLOAD_MAGIC) + _SHA256_BYTES:
            raise DataFormatError("truncated shard payload: missing digest trailer")
        body = data[len(PAYLOAD_MAGIC):-_SHA256_BYTES]
        trailer = data[-_SHA256_BYTES:]
        if hashlib.sha256(body).digest() != trailer:
            raise DataFormatError(
                "corrupt shard payload: body does not match its digest trailer"
            )
        return _decode_body(body)


def members_digest(members: Iterable[Member]) -> str:
    """SHA-256 over member sequences.

    Byte-compatible with
    :meth:`repro.db.database.SequenceDatabase.content_digest`, so a
    payload cut from ``db.members()`` carries the true database digest
    and checkpoint identities line up across coordinator and single-box
    runs.
    """
    hasher = hashlib.sha256()
    for _cid, seq in members:
        for txn in seq:
            hasher.update(b"(")
            for item in txn:
                hasher.update(b"%d," % item)
            hasher.update(b")")
        hasher.update(b";")
    return hasher.hexdigest()


def mine_shard(payload: ShardPayload) -> dict[RawSequence, int]:
    """Mine one payload's partition; returns its k>=2 pattern map.

    The ``((lam,),)`` 1-sequence entry is *not* included — exactly like
    the local pool workers, the coordinator counts 1-sequences itself —
    and every returned pattern starts with ``lam`` by construction.
    """
    options = payload.options
    job = FirstLevelJob(
        payload.delta,
        payload.frequent_items,
        bool(options["bilevel"]),
        bool(options["reduce"]),
        str(options["backend"]),
    )
    return job.mine(payload.lam, list(payload.members))


def encode_shard_result(
    payload: ShardPayload,
    patterns: Mapping[RawSequence, int],
    report: RunReport | None = None,
    trace_id: str | None = None,
) -> dict[str, object]:
    """Wire document a worker answers ``POST /shards`` with."""
    doc: dict[str, object] = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "lam": payload.lam,
        "payload_digest": payload.digest,
        "patterns": [
            [[list(txn) for txn in raw], patterns[raw]]
            for raw in sorted(patterns, key=sort_key)
        ],
    }
    if report is not None:
        doc["report"] = report.to_dict()
    if trace_id is not None:
        doc["trace_id"] = trace_id
    return doc


def decode_shard_result(
    doc: Mapping[str, object],
) -> tuple[int, str, dict[RawSequence, int], RunReport | None]:
    """Parse a shard-result document → (lam, payload digest, patterns, report)."""
    if doc.get("format") != RESULT_FORMAT:
        raise DataFormatError(
            f"not a shard result document: format={doc.get('format')!r}"
        )
    if doc.get("version") != RESULT_VERSION:
        raise DataFormatError(
            f"unsupported shard result version {doc.get('version')!r} "
            f"(supported: {RESULT_VERSION})"
        )
    try:
        data = cast("Mapping[str, Any]", doc)
        lam = int(data["lam"])
        payload_digest = str(data["payload_digest"])
        patterns = {
            canonical(raw): int(count) for raw, count in data["patterns"]
        }
    except DataFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed shard result document: {exc}") from exc
    raw_report = doc.get("report")
    report = None
    if raw_report is not None:
        if not isinstance(raw_report, Mapping):
            raise DataFormatError("shard result report must be an object")
        report = RunReport.from_dict(dict(raw_report))
    return lam, payload_digest, patterns, report
