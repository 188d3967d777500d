"""Portable shard payloads: a range of first-level partitions as a unit of work.

A :class:`ShardPayload` carries everything a worker needs to mine a
contiguous range of ``<(lam)>``-partitions — the range's keys, the
union of their members (each customer once, ascending by cid), the
frequent-item universe, delta, the miner options and the identity of
the database it was cut from — with no other shared state.  The
paper's Step 2.2 makes the union enough: when a partition's turn comes
it holds exactly the members that contain its key, so a worker that
runs the first-level loop over the union rebuilds every partition of
the range itself (:func:`mine_shard`).

It has one serialisation, ``to_bytes``/``from_bytes``: an interned,
delta-encoded item vocabulary plus varint-packed member sequences,
framed by a magic prefix and a SHA-256 trailer.  The coordinator ships
it on ``POST /shards``.  The payload digest is the SHA-256 of the
canonical binary body, so decoding verifies integrity; a payload is
encoded and hashed once, when it is built or received.

A worker answers with a JSON shard-result document holding one pattern
map per key (:func:`encode_shard_result` / :func:`decode_shard_result`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.discall import FirstLevelJob
from repro.core.order import sort_key
from repro.core.partition import Member, iterate_first_level
from repro.core.sequence import RawSequence, canonical
from repro.core.sorted_db import BACKENDS
from repro.exceptions import DataFormatError, InvalidParameterError
from repro.obs import RunReport

PAYLOAD_VERSION = 2
#: magic prefix of the binary encoding
PAYLOAD_MAGIC = b"RSP0"
#: HTTP Content-Type announcing the binary encoding on ``POST /shards``
PAYLOAD_CONTENT_TYPE = "application/x-repro-shard"

RESULT_FORMAT = "repro.shard-result"
RESULT_VERSION = 2

#: miner options a payload may carry, with their defaults
_OPTION_DEFAULTS: dict[str, object] = {
    "backend": "table",
    "bilevel": True,
    "reduce": True,
}

_SHA256_BYTES = 32

#: per-key pattern maps of one shard, in ascending key order
ShardPatterns = dict[int, dict[RawSequence, int]]


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
    if merged["backend"] not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {merged['backend']!r}; known: {', '.join(BACKENDS)}"
        )
    for name in ("bilevel", "reduce"):
        if not isinstance(merged[name], bool):
            raise InvalidParameterError(f"option {name} must be a boolean")
    return merged


def _keys_problem(keys: tuple[int, ...], frequent_items: frozenset[int]) -> str | None:
    """Why *keys* cannot head a shard, or None when they can."""
    if not keys:
        return "a shard needs at least one key"
    for previous, key in zip(keys, keys[1:]):
        if key <= previous:
            return f"keys must be ascending and distinct, got {previous} then {key}"
    for key in keys:
        if key not in frequent_items:
            return f"key {key} is not a frequent item"
    return None


def _encode_body(
    keys: tuple[int, ...],
    delta: int,
    members: tuple[Member, ...],
    frequent_items: frozenset[int],
    options: Mapping[str, object],
    database_digest: str,
) -> bytes:
    """Canonical binary body (the digest input) of a shard payload.

    *keys* are ascending frequent items and *members* ascend by cid, one
    member per cid (:meth:`ShardPayload.create` checks both).
    """
    vocabulary = set(frequent_items)
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

    # Keys as plain vocabulary indexes, so the decoder can see (and
    # refuse) an unordered or repeated key.
    _write_uvarint(out, len(keys))
    for key in keys:
        _write_uvarint(out, index[key])

    frequent_local = sorted(index[item] for item in frequent_items)  # repro: allow[DISC002] — scalar indexes
    _write_uvarint(out, len(frequent_local))
    previous = 0
    for local in frequent_local:
        _write_uvarint(out, local - previous)
        previous = local

    # Members ascend by cid: each cid is written as its gap past the
    # previous one, so a repeated cid cannot be expressed.
    _write_uvarint(out, len(members))
    previous_cid = -1
    for cid, seq in members:
        _write_uvarint(out, cid - previous_cid - 1)
        previous_cid = cid
        _write_uvarint(out, len(seq))
        for txn in seq:
            _write_uvarint(out, len(txn))
            previous = 0
            for item in txn:  # canonical itemsets are sorted ascending
                local = index[item]
                _write_uvarint(out, local - previous)
                previous = local
    return bytes(out)


def _decode_body(body: bytes, digest: str) -> ShardPayload:
    """Parse a canonical binary body, whose SHA-256 is *digest*."""
    reader = _Reader(body)
    version = reader.uvarint()
    if version != PAYLOAD_VERSION:
        raise DataFormatError(
            f"unsupported shard payload version {version} "
            f"(supported: {PAYLOAD_VERSION})"
        )
    delta = reader.uvarint()
    if delta < 1:
        raise DataFormatError(f"malformed shard payload: delta {delta} < 1")
    try:
        database_digest = reader.take(reader.uvarint()).decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            "malformed shard payload: database digest is not ascii"
        ) from exc
    options_blob = reader.take(reader.uvarint())
    try:
        raw_options = json.loads(options_blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise DataFormatError(
            "malformed shard payload: options blob is not JSON"
        ) from exc
    if not isinstance(raw_options, dict):
        raise DataFormatError("malformed shard payload: options must be an object")
    try:
        options = _normalised_options(raw_options)
    except InvalidParameterError as exc:
        raise DataFormatError(f"malformed shard payload: {exc}") from exc

    items: list[int] = []
    value = 0
    for _ in range(reader.uvarint()):
        value += reader.uvarint()
        items.append(value)

    keys: list[int] = []
    for _ in range(reader.uvarint()):
        local = reader.uvarint()
        if local >= len(items):
            raise DataFormatError("malformed shard payload: key outside the vocabulary")
        keys.append(items[local])

    frequent: set[int] = set()
    local = 0
    for _ in range(reader.uvarint()):
        local += reader.uvarint()
        if local >= len(items):
            raise DataFormatError(
                "malformed shard payload: frequent item outside the vocabulary"
            )
        frequent.add(items[local])
    frequent_items = frozenset(frequent)
    problem = _keys_problem(tuple(keys), frequent_items)
    if problem is not None:
        raise DataFormatError(f"malformed shard payload: {problem}")

    members: list[Member] = []
    cid = -1
    cost = 0
    for _ in range(reader.uvarint()):
        cid += reader.uvarint() + 1
        itemsets: list[tuple[int, ...]] = []
        for _ in range(reader.uvarint()):
            txn: list[int] = []
            local = 0
            for position in range(reader.uvarint()):
                step = reader.uvarint()
                if position and not step:
                    raise DataFormatError(
                        "malformed shard payload: repeated item in an itemset"
                    )
                local += step
                if local >= len(items):
                    raise DataFormatError(
                        "malformed shard payload: member item outside the vocabulary"
                    )
                txn.append(items[local])
            if not txn:
                raise DataFormatError("malformed shard payload: empty itemset")
            cost += len(txn)
            itemsets.append(tuple(txn))
        members.append((cid, tuple(itemsets)))
    if not reader.exhausted():
        raise DataFormatError("malformed shard payload: trailing bytes after members")

    return ShardPayload(
        keys=tuple(keys),
        delta=delta,
        members=tuple(members),
        frequent_items=frequent_items,
        options=options,
        database_digest=database_digest,
        digest=digest,
        _body=body,
        _cost=cost,
    )


@dataclass(frozen=True, slots=True)
class ShardPayload:
    """A contiguous range of ``<(lam)>``-partitions, packaged for the wire.

    ``keys`` are the range's partition keys, ascending; ``members`` is
    the union of their members, one per cid, ascending by cid.  Build
    instances through :meth:`create` or :meth:`from_bytes`, which
    encode and hash the body once and keep it; the constructor trusts
    its arguments.
    """

    keys: tuple[int, ...]
    delta: int
    members: tuple[Member, ...]
    frequent_items: frozenset[int]
    options: Mapping[str, object]
    database_digest: str
    digest: str
    #: the canonical binary body ``digest`` hashes
    _body: bytes = field(repr=False, compare=False)
    #: total item occurrences in ``members``
    _cost: int = field(repr=False, compare=False)

    @classmethod
    def create(
        cls,
        keys: Iterable[int],
        delta: int,
        members: Iterable[Member],
        frequent_items: Iterable[int],
        options: Mapping[str, object] | None = None,
        database_digest: str = "",
    ) -> ShardPayload:
        """Build a payload, encoding and hashing its canonical body once.

        Members are sorted by cid; a cid given twice is an error, as is
        a key list that is empty, unordered, repeated or not frequent.
        """
        if delta < 1:
            raise InvalidParameterError(f"delta must be >= 1, got {delta}")
        frozen_keys = tuple(int(key) for key in keys)
        frozen_items = frozenset(frequent_items)
        problem = _keys_problem(frozen_keys, frozen_items)
        if problem is not None:
            raise InvalidParameterError(problem)
        frozen_members = tuple(sorted(
            ((int(cid), tuple(tuple(txn) for txn in seq)) for cid, seq in members),
            key=lambda member: member[0],
        ))
        for (cid, _), (next_cid, _) in zip(frozen_members, frozen_members[1:]):
            if cid == next_cid:
                raise InvalidParameterError(f"customer {cid} appears twice in a shard")
        merged = _normalised_options(options)
        body = _encode_body(
            frozen_keys, delta, frozen_members, frozen_items, merged, database_digest
        )
        return cls(
            keys=frozen_keys,
            delta=delta,
            members=frozen_members,
            frequent_items=frozen_items,
            options=merged,
            database_digest=database_digest,
            digest=hashlib.sha256(body).hexdigest(),
            _body=body,
            _cost=sum(len(txn) for _cid, seq in frozen_members for txn in seq),
        )

    def cost(self) -> int:
        """Total item occurrences of the members — the scheduling weight."""
        return self._cost

    def to_bytes(self) -> bytes:
        """Binary form: magic + body + raw SHA-256 trailer."""
        return PAYLOAD_MAGIC + self._body + bytes.fromhex(self.digest)

    @classmethod
    def from_bytes(cls, data: bytes) -> ShardPayload:
        """Decode and verify the binary form."""
        if not data.startswith(PAYLOAD_MAGIC):
            raise DataFormatError("not a shard payload: bad magic prefix")
        if len(data) < len(PAYLOAD_MAGIC) + _SHA256_BYTES:
            raise DataFormatError("truncated shard payload: missing digest trailer")
        body = data[len(PAYLOAD_MAGIC):-_SHA256_BYTES]
        digest = hashlib.sha256(body).digest()
        if digest != data[-_SHA256_BYTES:]:
            raise DataFormatError(
                "corrupt shard payload: body does not match its digest trailer"
            )
        return _decode_body(body, digest.hex())


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


def mine_shard(payload: ShardPayload) -> ShardPatterns:
    """Mine every partition of a payload; returns one k>=2 map per key.

    Runs the first-level loop (Figure 2, steps 1(b)-2.2) over the
    payload's members, mines the partitions whose key is one of the
    payload's and stops after the last; the walk is not counted in
    ``partition.first_level``, since the coordinator counted these
    partitions when it cut the shard.  Each map omits the ``((lam,),)``
    1-sequence — the first-level loop counts 1-sequences itself — and
    every pattern in it starts with its key.  A key whose partition is
    empty maps to ``{}``.
    """
    options = payload.options
    job = FirstLevelJob(
        payload.delta,
        payload.frequent_items,
        bool(options["bilevel"]),
        bool(options["reduce"]),
        str(options["backend"]),
    )
    results: ShardPatterns = {key: {} for key in payload.keys}
    last = payload.keys[-1]
    for lam, group in iterate_first_level(payload.members, counted=False):
        if lam > last:
            break
        if lam in results:
            results[lam] = job.mine(lam, group)
    return results


def encode_shard_result(
    payload: ShardPayload,
    results: Mapping[int, Mapping[RawSequence, int]],
    report: RunReport | None = None,
    trace_id: str | None = None,
) -> dict[str, object]:
    """Wire document a worker answers ``POST /shards`` with.

    *results* maps every key of *payload* to its partition's patterns.
    """
    doc: dict[str, object] = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "payload_digest": payload.digest,
        "partitions": [
            [lam, [
                [[list(txn) for txn in raw], results[lam][raw]]
                for raw in sorted(results[lam], key=sort_key)
            ]]
            for lam in payload.keys
        ],
    }
    if report is not None:
        doc["report"] = report.to_dict()
    if trace_id is not None:
        doc["trace_id"] = trace_id
    return doc


def _exact_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DataFormatError(f"malformed shard result document: {what} {value!r}")
    return value


def decode_shard_result(
    body: bytes,
) -> tuple[str, ShardPatterns, RunReport | None]:
    """Parse the JSON bytes of a shard-result document.

    Returns ``(payload digest, per-key patterns, report)``.  Anything
    malformed raises :class:`~repro.exceptions.DataFormatError`.
    """
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise DataFormatError(f"shard result is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("shard result must be a JSON object")
    if doc.get("format") != RESULT_FORMAT:
        raise DataFormatError(
            f"not a shard result document: format={doc.get('format')!r}"
        )
    if doc.get("version") != RESULT_VERSION:
        raise DataFormatError(
            f"unsupported shard result version {doc.get('version')!r} "
            f"(supported: {RESULT_VERSION})"
        )
    results: ShardPatterns = {}
    try:
        payload_digest = doc["payload_digest"]
        if not isinstance(payload_digest, str):
            raise DataFormatError("malformed shard result document: payload_digest")
        for raw_lam, raw_patterns in doc["partitions"]:
            lam = _exact_int(raw_lam, "key")
            if lam in results:
                raise DataFormatError(
                    f"malformed shard result document: key {lam} answered twice"
                )
            results[lam] = {
                canonical(raw): _exact_int(count, "support")
                for raw, count in raw_patterns
            }
    except DataFormatError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataFormatError(f"malformed shard result document: {exc}") from exc
    raw_report = doc.get("report")
    report = None
    if raw_report is not None:
        if not isinstance(raw_report, dict):
            raise DataFormatError("shard result report must be an object")
        try:
            report = RunReport.from_dict(raw_report)
        except (AttributeError, RecursionError) as exc:
            raise DataFormatError(f"malformed shard result report: {exc}") from exc
    return payload_digest, results, report
