"""Tests for the portable shard payload format (repro.cluster.payload)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.cluster.payload import (
    PAYLOAD_MAGIC,
    ShardPayload,
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


def payload_for(members, delta: int, lam: int) -> ShardPayload:
    """The <(lam)>-payload a coordinator would cut from *members*."""
    frequent = count_frequent_items(members, delta)
    group = [(cid, seq) for cid, seq in members if any(lam in txn for txn in seq)]
    return ShardPayload.create(
        lam, delta, group, frozenset(frequent),
        database_digest=members_digest(members),
    )


class TestRoundTrip:
    def test_binary_round_trip(self, table6_members):
        payload = payload_for(table6_members, 3, 1)  # item a
        back = ShardPayload.from_bytes(payload.to_bytes())
        assert back == payload
        assert back.digest == payload.digest

    def test_random_databases_round_trip(self):
        rng = random.Random(77)
        for _ in range(20):
            members = random_database(rng).members()
            frequent = count_frequent_items(members, 2)
            for lam in frequent:
                payload = payload_for(members, 2, lam)
                assert ShardPayload.from_bytes(payload.to_bytes()) == payload


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
                1, 3, table6_members, frozenset({1}),
                options={"turbo": True},
            )

    def test_delta_validated(self, table6_members):
        with pytest.raises(InvalidParameterError, match="delta"):
            ShardPayload.create(1, 0, table6_members, frozenset({1}))


class TestSemantics:
    def test_cost_counts_item_occurrences(self):
        members = [(1, ((1, 2), (3,))), (2, ((1,),))]
        payload = ShardPayload.create(1, 1, members, frozenset({1, 2, 3}))
        assert payload.cost() == 4

    def test_members_digest_matches_database_digest(self):
        rng = random.Random(5)
        for _ in range(10):
            db = random_database(rng)
            assert members_digest(db.members()) == db.content_digest()

    def test_options_defaulted_and_frozen_in_digest(self, table6_members):
        default = ShardPayload.create(1, 3, table6_members, frozenset({1}))
        explicit = ShardPayload.create(
            1, 3, table6_members, frozenset({1}),
            options={"backend": "table", "bilevel": True, "reduce": True},
        )
        plain = ShardPayload.create(
            1, 3, table6_members, frozenset({1}), options={"bilevel": False}
        )
        assert default.digest == explicit.digest
        assert plain.digest != default.digest

    def test_union_of_shards_equals_disc_all(self, table6_members):
        delta = 3
        frequent = count_frequent_items(table6_members, delta)
        merged = {((item,),): count for item, count in frequent.items()}
        for lam in frequent:
            patterns = mine_shard(payload_for(table6_members, delta, lam))
            # every pattern belongs to lam's partition, none repeats a 1-seq
            for raw in patterns:
                assert raw[0][0] == lam
                assert sum(len(txn) for txn in raw) >= 2
            merged.update(patterns)
        assert merged == disc_all(table6_members, delta).patterns

    def test_union_of_shards_random(self):
        rng = random.Random(23)
        for _ in range(10):
            members = random_database(rng).members()
            delta = rng.randint(1, 3)
            frequent = count_frequent_items(members, delta)
            merged = {((item,),): count for item, count in frequent.items()}
            for lam in frequent:
                merged.update(mine_shard(payload_for(members, delta, lam)))
            assert merged == disc_all(members, delta).patterns

    def test_payload_beats_pickled_job_tuple(self):
        # The cost model behind routing the local pool through payloads:
        # on a realistically-sized partition the interned varint encoding
        # undercuts pickling the raw (lam, group, ...) job tuple.
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


class TestShardResult:
    def test_result_round_trip(self, table6_members):
        payload = payload_for(table6_members, 3, 1)
        patterns = mine_shard(payload)
        with activated(observation()) as obs:
            obs.metrics.counter("worker.shards_mined").add(1)
            report = obs.report()
        doc = encode_shard_result(payload, patterns, report=report, trace_id="t1")
        lam, digest, decoded, back = decode_shard_result(doc)
        assert lam == payload.lam
        assert digest == payload.digest
        assert decoded == patterns
        assert back is not None
        assert back.to_dict() == report.to_dict()
        assert doc["trace_id"] == "t1"

    def test_result_without_report(self, table6_members):
        payload = payload_for(table6_members, 3, 1)
        doc = encode_shard_result(payload, {})
        assert "report" not in doc and "trace_id" not in doc
        assert decode_shard_result(doc) == (payload.lam, payload.digest, {}, None)

    def test_result_format_checked(self):
        with pytest.raises(DataFormatError, match="format"):
            decode_shard_result({"format": "nope"})
        with pytest.raises(DataFormatError, match="version"):
            decode_shard_result({"format": "repro.shard-result", "version": 99})

    def test_result_malformed_patterns(self, table6_members):
        payload = payload_for(table6_members, 3, 1)
        doc = encode_shard_result(payload, {})
        doc["patterns"] = [["not-a-sequence", "nan"]]
        with pytest.raises(DataFormatError, match="malformed shard result"):
            decode_shard_result(doc)
