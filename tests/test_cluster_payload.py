"""Tests for the portable shard payload format (repro.cluster.payload)."""

from __future__ import annotations

import hashlib
import json
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.payload import (
    PAYLOAD_MAGIC,
    ShardPayload,
    _write_uvarint,
    decode_shard_result,
    encode_shard_result,
    members_digest,
    mine_shard,
)
from repro.core.counting import count_frequent_items
from repro.core.discall import disc_all
from repro.db.database import SequenceDatabase
from repro.exceptions import DataFormatError, InvalidParameterError
from repro.obs import observation
from repro.obs.context import activated
from tests.conftest import random_database


def payload_for(members, delta: int, *keys: int) -> ShardPayload:
    """The payload a coordinator would cut from *members* for *keys*:
    the union of the members that contain any of the keys."""
    frequent = count_frequent_items(members, delta)
    union = [
        (cid, seq) for cid, seq in members
        if any(key in txn for key in keys for txn in seq)
    ]
    return ShardPayload.create(
        keys, delta, union, frozenset(frequent),
        database_digest=members_digest(members),
    )


def framed(body: bytes) -> bytes:
    """*body* with the magic prefix and its true digest trailer."""
    return PAYLOAD_MAGIC + body + hashlib.sha256(body).digest()


def body_of(payload: ShardPayload) -> bytes:
    return payload.to_bytes()[len(PAYLOAD_MAGIC):-32]


class TestRoundTrip:
    def test_binary_round_trip(self, table6_members):
        payload = payload_for(table6_members, 3, 1)  # item a
        back = ShardPayload.from_bytes(payload.to_bytes())
        assert back == payload
        assert back.digest == payload.digest
        assert back.keys == (1,)
        assert back.cost() == payload.cost()

    def test_multi_key_round_trip(self, table6_members):
        frequent = sorted(count_frequent_items(table6_members, 3))
        payload = payload_for(table6_members, 3, *frequent[2:5])
        back = ShardPayload.from_bytes(payload.to_bytes())
        assert back == payload
        assert back.keys == tuple(frequent[2:5])

    def test_random_databases_round_trip(self):
        rng = random.Random(77)
        for _ in range(20):
            members = random_database(rng).members()
            frequent = sorted(count_frequent_items(members, 2))
            for start in range(len(frequent)):
                payload = payload_for(members, 2, *frequent[start:start + 3])
                assert ShardPayload.from_bytes(payload.to_bytes()) == payload

    def test_to_bytes_reuses_the_hashed_body(self, table6_members, monkeypatch):
        payload = payload_for(table6_members, 3, 1, 2)
        monkeypatch.setattr(
            "repro.cluster.payload._encode_body",
            lambda *args: pytest.fail("to_bytes re-encoded the body"),
        )
        monkeypatch.setattr(
            "repro.cluster.payload.hashlib.sha256",
            lambda *args: pytest.fail("to_bytes re-hashed the body"),
        )
        blob = payload.to_bytes()
        assert blob == payload.to_bytes()
        assert blob[-32:].hex() == payload.digest

    def test_from_bytes_hashes_once(self, table6_members, monkeypatch):
        blob = payload_for(table6_members, 3, 1, 2).to_bytes()
        calls = []
        real = hashlib.sha256

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("repro.cluster.payload.hashlib.sha256", counted)
        ShardPayload.from_bytes(blob)
        assert len(calls) == 1


class TestIntegrity:
    def test_bad_magic_rejected(self, table6_members):
        blob = payload_for(table6_members, 3, 1).to_bytes()
        with pytest.raises(DataFormatError, match="magic"):
            ShardPayload.from_bytes(b"XXXX" + blob[4:])

    def test_flipped_body_byte_rejected(self, table6_members):
        blob = bytearray(payload_for(table6_members, 3, 1).to_bytes())
        blob[len(PAYLOAD_MAGIC) + 3] ^= 0xFF
        with pytest.raises(DataFormatError, match="digest trailer"):
            ShardPayload.from_bytes(bytes(blob))

    def test_truncation_rejected(self, table6_members):
        blob = payload_for(table6_members, 3, 1).to_bytes()
        with pytest.raises(DataFormatError):
            ShardPayload.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataFormatError, match="trailer"):
            ShardPayload.from_bytes(blob[: len(PAYLOAD_MAGIC) + 10])

    def test_unknown_option_rejected(self, table6_members):
        with pytest.raises(InvalidParameterError, match="unknown shard options"):
            ShardPayload.create(
                [1], 3, table6_members, frozenset({1}),
                options={"turbo": True},
            )

    def test_delta_validated(self, table6_members):
        with pytest.raises(InvalidParameterError, match="delta"):
            ShardPayload.create([1], 0, table6_members, frozenset({1}))


class TestKeys:
    """A payload carries ascending, distinct, frequent keys (format v2)."""

    @pytest.mark.parametrize("keys, message", [
        ([], "at least one key"),
        ([2, 2], "ascending and distinct"),
        ([3, 1], "ascending and distinct"),
        ([1, 99], "not a frequent item"),
    ])
    def test_create_refuses_bad_keys(self, table6_members, keys, message):
        with pytest.raises(InvalidParameterError, match=message):
            ShardPayload.create(keys, 3, table6_members, frozenset({1, 2, 3}))

    def test_create_refuses_a_repeated_customer(self, table6_members):
        twice = table6_members + table6_members[:1]
        with pytest.raises(InvalidParameterError, match="appears twice"):
            ShardPayload.create([1], 3, twice, frozenset({1}))

    def test_members_sorted_by_cid(self, table6_members):
        payload = ShardPayload.create(
            [1], 3, reversed(table6_members), frozenset({1})
        )
        assert [cid for cid, _ in payload.members] == sorted(
            cid for cid, _ in table6_members
        )

    @staticmethod
    def forged(payload: ShardPayload, keys_field: bytes) -> bytes:
        """*payload*'s body with its key list replaced by *keys_field*."""
        vocabulary = sorted(
            payload.frequent_items
            | {item for _cid, seq in payload.members for txn in seq for item in txn}
        )
        options = json.dumps(
            dict(payload.options), sort_keys=True, separators=(",", ":")
        ).encode()
        prefix = bytearray()
        for value in (2, payload.delta, len(payload.database_digest)):
            _write_uvarint(prefix, value)
        prefix += payload.database_digest.encode()
        _write_uvarint(prefix, len(options))
        prefix += options
        _write_uvarint(prefix, len(vocabulary))
        for previous, item in zip([0] + vocabulary, vocabulary):
            _write_uvarint(prefix, item - previous)
        keys = bytearray()
        _write_uvarint(keys, len(payload.keys))
        for key in payload.keys:
            _write_uvarint(keys, vocabulary.index(key))
        body = body_of(payload)
        # the key field follows the vocabulary
        assert body.startswith(bytes(prefix + keys))
        return framed(bytes(prefix) + keys_field + body[len(prefix) + len(keys):])

    @pytest.mark.parametrize("keys_field, message", [
        (b"\x00", "at least one key"),
        (b"\x02\x00\x00", "ascending and distinct"),
        (b"\x02\x01\x00", "ascending and distinct"),
        (b"\x01\x7f", "outside the vocabulary"),
    ])
    def test_decoder_refuses_bad_keys(self, keys_field, message):
        members = [(0, ((1, 2),)), (1, ((1,), (2,)))]
        payload = ShardPayload.create([1, 2], 1, members, frozenset({1, 2}))
        with pytest.raises(DataFormatError, match=message):
            ShardPayload.from_bytes(self.forged(payload, keys_field))

    def test_decoder_refuses_an_infrequent_key(self):
        # item 3 is in the vocabulary (a member holds it) but not frequent
        members = [(0, ((1, 3),)), (1, ((1,),))]
        payload = ShardPayload.create([1], 2, members, frozenset({1}))
        with pytest.raises(DataFormatError, match="not a frequent item"):
            ShardPayload.from_bytes(self.forged(payload, b"\x01\x01"))

    def test_decoder_refuses_a_v1_body(self, table6_members):
        body = bytearray(body_of(payload_for(table6_members, 3, 1)))
        assert body[0] == 2
        body[0] = 1
        with pytest.raises(DataFormatError, match="version 1"):
            ShardPayload.from_bytes(framed(bytes(body)))


class TestSemantics:
    def test_cost_counts_item_occurrences(self):
        members = [(1, ((1, 2), (3,))), (2, ((1,),))]
        payload = ShardPayload.create([1], 1, members, frozenset({1, 2, 3}))
        assert payload.cost() == 4

    def test_members_digest_matches_database_digest(self):
        rng = random.Random(5)
        for _ in range(10):
            db = random_database(rng)
            assert members_digest(db.members()) == db.content_digest()

    def test_options_defaulted_and_frozen_in_digest(self, table6_members):
        default = ShardPayload.create([1], 3, table6_members, frozenset({1}))
        explicit = ShardPayload.create(
            [1], 3, table6_members, frozenset({1}),
            options={"backend": "table", "bilevel": True, "reduce": True},
        )
        plain = ShardPayload.create(
            [1], 3, table6_members, frozenset({1}), options={"bilevel": False}
        )
        assert default.digest == explicit.digest
        assert plain.digest != default.digest

    def test_union_of_shards_equals_disc_all(self, table6_members):
        delta = 3
        frequent = count_frequent_items(table6_members, delta)
        merged = {((item,),): count for item, count in frequent.items()}
        for lam in frequent:
            results = mine_shard(payload_for(table6_members, delta, lam))
            assert list(results) == [lam]
            # every pattern belongs to lam's partition, none repeats a 1-seq
            for raw in results[lam]:
                assert raw[0][0] == lam
                assert sum(len(txn) for txn in raw) >= 2
            merged.update(results[lam])
        assert merged == disc_all(table6_members, delta).patterns

    def test_union_of_shards_random(self):
        rng = random.Random(23)
        for _ in range(10):
            members = random_database(rng).members()
            delta = rng.randint(1, 3)
            frequent = count_frequent_items(members, delta)
            merged = {((item,),): count for item, count in frequent.items()}
            for lam in frequent:
                merged.update(mine_shard(payload_for(members, delta, lam))[lam])
            assert merged == disc_all(members, delta).patterns

    def test_one_multi_key_shard_rebuilds_every_partition(self):
        """Step 2.2: the union of a range's members is enough to rebuild
        each of its partitions, so ranges of any cut mine as inline."""
        rng = random.Random(31)
        for _ in range(10):
            members = random_database(rng).members()
            delta = rng.randint(1, 3)
            frequent = sorted(count_frequent_items(members, delta))
            if not frequent:
                continue
            cut = rng.randint(1, len(frequent))
            merged = {((item,),): count
                      for item, count in count_frequent_items(members, delta).items()}
            for keys in (frequent[:cut], frequent[cut:]):
                if keys:
                    results = mine_shard(payload_for(members, delta, *keys))
                    assert list(results) == keys
                    for lam, patterns in results.items():
                        assert all(raw[0][0] == lam for raw in patterns)
                        merged.update(patterns)
            assert merged == disc_all(members, delta).patterns

    def test_key_without_members_maps_to_empty(self):
        members = [(0, ((1,), (2,))), (1, ((1,), (2,)))]
        payload = ShardPayload.create([1, 5], 2, members, frozenset({1, 2, 5}))
        results = mine_shard(payload)
        assert results == {1: {((1,), (2,)): 2}, 5: {}}

    def test_payload_beats_pickled_job_tuple(self):
        # The interned varint encoding undercuts pickling the raw
        # (keys, members, ...) job tuple on a realistically-sized shard.
        rng = random.Random(41)
        db = SequenceDatabase.from_raw([
            [rng.sample(range(1, 200), rng.randint(2, 6)) for _ in range(8)]
            for _ in range(100)
        ])
        members = db.members()
        frequent = count_frequent_items(members, 2)
        lam = max(frequent)
        payload = payload_for(members, 2, lam)
        job = (lam, list(payload.members), 2, frozenset(frequent), True, True, "table")
        assert len(payload.to_bytes()) < len(pickle.dumps(job))


def wire(doc) -> bytes:
    """The JSON bytes a worker sends for a shard-result document."""
    return json.dumps(doc).encode("utf-8")


class TestShardResult:
    def test_result_round_trip(self, table6_members):
        payload = payload_for(table6_members, 3, 1, 2)
        results = mine_shard(payload)
        with activated(observation()) as obs:
            obs.metrics.counter("worker.shards_mined").add(1)
            report = obs.report()
        doc = encode_shard_result(payload, results, report=report, trace_id="t1")
        digest, decoded, back = decode_shard_result(wire(doc))
        assert digest == payload.digest
        assert decoded == results
        assert list(decoded) == [1, 2]
        assert back is not None
        assert back.to_dict() == report.to_dict()
        assert doc["trace_id"] == "t1"

    def test_result_without_report(self, table6_members):
        payload = payload_for(table6_members, 3, 1)
        doc = encode_shard_result(payload, {1: {}})
        assert "report" not in doc and "trace_id" not in doc
        assert decode_shard_result(wire(doc)) == (payload.digest, {1: {}}, None)

    def test_result_format_checked(self):
        with pytest.raises(DataFormatError, match="format"):
            decode_shard_result(wire({"format": "nope"}))
        with pytest.raises(DataFormatError, match="version"):
            decode_shard_result(wire({"format": "repro.shard-result", "version": 99}))
        with pytest.raises(DataFormatError, match="version 1"):
            decode_shard_result(wire({"format": "repro.shard-result", "version": 1}))

    def test_result_malformed_patterns(self, table6_members):
        payload = payload_for(table6_members, 3, 1)
        doc = encode_shard_result(payload, {1: {}})
        doc["partitions"] = [[1, [["not-a-sequence", "nan"]]]]
        with pytest.raises(DataFormatError, match="malformed shard result"):
            decode_shard_result(wire(doc))
        doc["partitions"] = [[1, [[[[1], []], 3]]]]  # an empty itemset
        with pytest.raises(DataFormatError, match="malformed shard result"):
            decode_shard_result(wire(doc))
        doc["partitions"] = [[1, []], [1, []]]
        with pytest.raises(DataFormatError, match="answered twice"):
            decode_shard_result(wire(doc))
        doc["partitions"] = [[True, []]]
        with pytest.raises(DataFormatError, match="key"):
            decode_shard_result(wire(doc))

    def test_result_bytes_must_be_json(self):
        with pytest.raises(DataFormatError, match="not JSON"):
            decode_shard_result(b"\xff{")
        with pytest.raises(DataFormatError, match="object"):
            decode_shard_result(b"[1, 2]")


def _sample_payload() -> ShardPayload:
    members = [(0, ((1, 2), (3,))), (2, ((1,), (2, 3))), (5, ((2,), (1, 3)))]
    return ShardPayload.create([1, 2], 2, members, frozenset({1, 2, 3}))


_PAYLOAD = _sample_payload()
_RESULT = json.dumps(
    encode_shard_result(_PAYLOAD, mine_shard(_PAYLOAD))
).encode("utf-8")


def _mutated(data: bytes, edits: list[tuple[int, int]], cut: int) -> bytes:
    """*data* with byte edits applied and the tail past *cut* dropped."""
    out = bytearray(data)
    for position, value in edits:
        out[position % len(out)] = value
    return bytes(out[: max(1, len(out) - cut)])


_EDITS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=4
)
_CUT = st.integers(0, 8)
_FUZZ = settings(
    max_examples=150, deadline=500,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDecoderFuzz:
    """Malformed bytes raise DataFormatError, never a stray exception."""

    @_FUZZ
    @given(data=st.binary(max_size=256))
    def test_payload_from_arbitrary_bytes(self, data):
        for blob in (data, PAYLOAD_MAGIC + data, framed(data)):
            try:
                ShardPayload.from_bytes(blob)
            except DataFormatError:
                pass

    @_FUZZ
    @given(edits=_EDITS, cut=_CUT)
    def test_payload_from_mutated_body(self, edits, cut):
        # re-stamp the trailer so the mutation reaches the body decoder
        body = _mutated(body_of(_PAYLOAD), edits, cut)
        try:
            payload = ShardPayload.from_bytes(framed(body))
        except DataFormatError:
            return
        mine_shard(payload)  # whatever decodes is minable

    @_FUZZ
    @given(data=st.binary(max_size=256))
    def test_result_from_arbitrary_bytes(self, data):
        try:
            decode_shard_result(data)
        except DataFormatError:
            pass

    @_FUZZ
    @given(edits=_EDITS, cut=_CUT)
    def test_result_from_mutated_json(self, edits, cut):
        try:
            decode_shard_result(_mutated(_RESULT, edits, cut))
        except DataFormatError:
            pass
