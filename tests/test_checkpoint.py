"""Checkpoint/resume (repro.core.checkpoint + mine integration).

Serialization round-trips, identity validation, recorder watermark
semantics — and the acceptance criterion of the fault-tolerance layer:
kill a run at *every* checkpoint boundary in turn, resume each time, and
require the final pattern set to be byte-identical to an uninterrupted
run.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.coordinator import (
    WorkerPool,
    disc_all_cluster,
    register_cluster_algorithm,
)
from repro.cluster.worker import make_worker_server
from repro.core.cancel import CancelToken, cancel_scope
from repro.core.checkpoint import (
    CheckpointIdentity,
    CheckpointRecorder,
    MiningCheckpoint,
    NOOP_RECORDER,
    active_recorder,
    options_fingerprint,
    recording_scope,
)
from repro.core.discall import disc_all
from repro.db.database import SequenceDatabase
from repro.exceptions import (
    CheckpointMismatchError,
    DataFormatError,
    InjectedFaultError,
    InvalidParameterError,
    OperationCancelledError,
    UnknownAlgorithmError,
)
from repro.faults import FaultPlan, fault_plan
from repro.mining.api import mine, run_identity
from repro.mining import registry
from repro.mining.registry import RESUMABLE_ALGORITHMS, supports_resume

from tests.conftest import TABLE1_TEXTS, TABLE6_TEXTS


@pytest.fixture
def table6_db() -> SequenceDatabase:
    return SequenceDatabase.from_texts(list(TABLE6_TEXTS.values()))


#: a URL nothing listens on (port 9 is discard; connection is refused)
DEAD_URL = "http://127.0.0.1:9"

#: every first-level executor: id -> (algorithm, mine() options, cluster
#: worker ("live", "dead" or None), fault sites that fire in this process)
EXECUTORS = {
    "disc-all": ("disc-all", {}, None, ("disc.partition", "disc.round")),
    "cluster": ("disc-all-cluster", {}, "live", ("disc.partition",)),
    "cluster-degraded": (
        "disc-all-cluster", {}, "dead", ("disc.partition", "disc.round"),
    ),
}


@pytest.fixture
def cluster_pool(monkeypatch):
    """``bind(live)``: a worker pool, also bound to ``disc-all-cluster``.

    A live pool has one in-process loopback worker; a dead one points at
    an unreachable worker and degrades to local mining at once.
    """
    # the registration is process-global: restore it after the test
    monkeypatch.setitem(
        registry._REGISTRY, "disc-all-cluster",
        registry._REGISTRY.get("disc-all-cluster"),
    )
    servers = []

    def bind(live: bool) -> WorkerPool:
        if live:
            server = make_worker_server(port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
            pool = WorkerPool([f"http://127.0.0.1:{server.server_address[1]}"])
        else:
            pool = WorkerPool([DEAD_URL], max_worker_failures=1, degrade_after=0.0)
        register_cluster_algorithm(pool)
        return pool

    yield bind
    for server in servers:
        server.shutdown()
        server.server_close()


def identity_of(db: SequenceDatabase, delta: int = 2) -> CheckpointIdentity:
    return run_identity(db, delta, "disc-all", {})


class TestIdentity:
    def test_options_fingerprint_ignores_key_order(self):
        assert options_fingerprint({"a": 1, "b": 2}) == options_fingerprint(
            {"b": 2, "a": 1}
        )
        assert options_fingerprint({"a": 1}) != options_fingerprint({"a": 2})

    def test_mismatch_reports_first_differing_field(self, table1_db):
        base = identity_of(table1_db)
        assert base.mismatch(base) is None
        other = CheckpointIdentity(
            "0" * 64, base.delta, base.algorithm, base.options_fingerprint
        )
        assert "digest" in (other.mismatch(base) or "")
        wrong_delta = CheckpointIdentity(
            base.database_digest, 99, base.algorithm, base.options_fingerprint
        )
        assert "delta" in (wrong_delta.mismatch(base) or "")
        wrong_algo = CheckpointIdentity(
            base.database_digest, base.delta, "spade", base.options_fingerprint
        )
        assert "algorithm" in (wrong_algo.mismatch(base) or "")

    def test_database_digest_tracks_content(self, table1_db):
        same = SequenceDatabase.from_texts(TABLE1_TEXTS)
        changed = SequenceDatabase.from_texts(TABLE1_TEXTS[:-1])
        assert table1_db.content_digest() == same.content_digest()
        assert table1_db.content_digest() != changed.content_digest()


class TestSerialization:
    def test_round_trip(self, table1_db):
        checkpoint = MiningCheckpoint(
            identity=identity_of(table1_db),
            completed_partitions=(2, 6),
            completed_k=4,
            patterns={((1,), (2,)): 3, ((2, 6),): 2},
        )
        restored = MiningCheckpoint.from_json(checkpoint.to_json())
        assert restored == checkpoint

    def test_wrong_format_rejected(self):
        with pytest.raises(DataFormatError, match="not a mining checkpoint"):
            MiningCheckpoint.from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, table1_db):
        payload = MiningCheckpoint(identity=identity_of(table1_db)).to_dict()
        payload["version"] = 99
        with pytest.raises(DataFormatError, match="version"):
            MiningCheckpoint.from_dict(payload)

    def test_malformed_payload_rejected(self, table1_db):
        payload = MiningCheckpoint(identity=identity_of(table1_db)).to_dict()
        del payload["delta"]
        with pytest.raises(DataFormatError, match="malformed"):
            MiningCheckpoint.from_dict(payload)

    def test_garbage_json_rejected(self):
        with pytest.raises(DataFormatError):
            MiningCheckpoint.from_json("{truncated")

    def test_validate_for_raises_on_mismatch(self, table1_db):
        checkpoint = MiningCheckpoint(identity=identity_of(table1_db))
        other = CheckpointIdentity("f" * 64, 2, "disc-all", checkpoint.identity.options_fingerprint)
        with pytest.raises(CheckpointMismatchError, match="cannot resume"):
            checkpoint.validate_for(other)
        checkpoint.validate_for(identity_of(table1_db))  # no raise


class TestRecorder:
    def test_capture_sees_only_recorded_chunks(self, table1_db):
        recorder = CheckpointRecorder()
        out: dict = {((1,),): 4, ((2,),): 3}  # the run's 1-sequences
        recorder.attach(out)
        first = recorder.capture(identity_of(table1_db))
        assert first.patterns == {((1,),): 4, ((2,),): 3}
        assert first.chunk_count == 1
        # The output dict is the miner's, not the recorder's: writing to
        # it records nothing until a partition is handed over.
        out[((1,), (2,))] = 2
        assert recorder.capture(identity_of(table1_db)).patterns == first.patterns
        recorder.round_done(2)
        snapshot = recorder.capture(identity_of(table1_db))
        assert snapshot.completed_k == 2
        assert snapshot.chunk_count == 1  # a round adds no chunk
        partition = {((1,), (2,)): 2}
        recorder.partition_done(1, partition)
        done = recorder.capture(identity_of(table1_db))
        assert done.patterns == {((1,),): 4, ((2,),): 3, ((1,), (2,)): 2}
        assert done.completed_partitions == (1,)
        # earlier captures stay the prefix they were taken at
        assert first.patterns == {((1,),): 4, ((2,),): 3}
        assert snapshot.completed_partitions == ()
        # the chunk is the partition's own dict, not a copy
        assert done.chunks[-1].patterns is partition

    def test_since_cuts_out_the_later_chunks(self, table1_db):
        recorder = CheckpointRecorder()
        recorder.attach({((1,),): 4, ((2,),): 3})
        recorder.partition_done(1, {((1,), (2,)): 2})
        earlier = recorder.capture(identity_of(table1_db))
        recorder.partition_done(2, {((2,), (1,)): 2})
        recorder.partition_done(3, {})
        later = recorder.capture(identity_of(table1_db))
        delta = later.since(earlier.chunk_count)
        assert delta.completed_partitions == (2, 3)
        assert delta.patterns == {((2,), (1,)): 2}
        assert later.since(later.chunk_count).patterns == {}
        assert later.since(0) == later

    def test_fold_is_a_union_and_idempotent(self, table1_db):
        recorder = CheckpointRecorder()
        recorder.attach({((1,),): 4, ((2,),): 3})
        recorder.partition_done(1, {((1,), (2,)): 2})
        first = recorder.capture(identity_of(table1_db))
        recorder.partition_done(2, {((2,), (1,)): 2})
        full = recorder.capture(identity_of(table1_db))
        second = full.since(first.chunk_count)
        folded = MiningCheckpoint.fold([first, second])
        assert folded == full
        assert MiningCheckpoint.fold([first, second, second, first]) == full
        assert MiningCheckpoint.fold([second, first]).patterns == full.patterns

    def test_fold_rejects_disagreeing_checkpoints(self, table1_db):
        identity = identity_of(table1_db)
        one = MiningCheckpoint(identity, (1,), patterns={((1,),): 4})
        other = MiningCheckpoint(identity, (1,), patterns={((1,),): 5})
        with pytest.raises(DataFormatError, match="disagree"):
            MiningCheckpoint.fold([one, other])
        stranger = MiningCheckpoint(identity_of(table1_db, delta=3), (2,))
        with pytest.raises(DataFormatError, match="different runs"):
            MiningCheckpoint.fold([one, stranger])
        with pytest.raises(DataFormatError, match="no checkpoint"):
            MiningCheckpoint.fold([])

    def test_partition_done_resets_round_counter(self, table1_db):
        recorder = CheckpointRecorder()
        recorder.attach({})
        recorder.round_done(4)
        assert recorder.completed_k == 4
        recorder.partition_done(1, {})
        assert recorder.completed_k == 0
        assert recorder.completed_partitions == (1,)
        assert recorder.should_skip(1) and not recorder.should_skip(2)

    def test_attach_seeds_resumed_patterns_first(self, table1_db):
        resumed = MiningCheckpoint(
            identity=identity_of(table1_db),
            completed_partitions=(1,),
            patterns={((1,),): 4},
        )
        recorder = CheckpointRecorder(resume_from=resumed)
        out = {((2,),): 3}  # the fresh run's own 1-sequences
        recorder.attach(out)
        assert list(out) == [((1,),), ((2,),)]  # resumed entries lead
        assert recorder.should_skip(1)
        # the resumed chunk is kept; only what it lacked is new work
        snapshot = recorder.capture(identity_of(table1_db))
        assert snapshot.since(resumed.chunk_count).patterns == {((2,),): 3}
        assert snapshot.patterns == {((1,),): 4, ((2,),): 3}

    def test_sink_fires_at_each_boundary(self, table1_db):
        seen: list[MiningCheckpoint] = []
        recorder = CheckpointRecorder(sink=seen.append)
        recorder.bind_identity(identity_of(table1_db))
        recorder.attach({})
        recorder.round_done(4)
        recorder.partition_done(1, {})
        assert len(seen) == 2
        assert seen[1].completed_partitions == (1,)

    def test_noop_recorder_is_ambient_default(self):
        assert active_recorder() is NOOP_RECORDER
        real = CheckpointRecorder()
        with recording_scope(real):
            assert active_recorder() is real
        assert active_recorder() is NOOP_RECORDER


class TestMineIntegration:
    def test_cancellation_yields_partial_result(self, table6_db):
        token = CancelToken()
        emitted: list[MiningCheckpoint] = []

        def sink(checkpoint: MiningCheckpoint) -> None:
            emitted.append(checkpoint)
            if len(emitted) == 2:
                token.cancel("test stop")

        with cancel_scope(token):
            result = mine(table6_db, 2, checkpoint_to=sink)
        assert not result.complete
        assert result.checkpoint is not None
        assert len(result.patterns) == len(result.checkpoint.patterns)

    def test_resume_from_partial_equals_uninterrupted(self, table6_db):
        reference = mine(table6_db, 2)
        token = CancelToken()

        def sink(checkpoint: MiningCheckpoint) -> None:
            token.cancel("test stop")

        with cancel_scope(token):
            partial = mine(table6_db, 2, checkpoint_to=sink)
        assert not partial.complete
        resumed = mine(table6_db, 2, resume_from=partial.checkpoint)
        assert resumed.complete
        assert resumed.patterns == reference.patterns

    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_kill_at_every_fault_site_then_resume(
        self, table6_db, cluster_pool, executor
    ):
        """The acceptance criterion: crash anywhere, resume, equal output.

        On every first-level executor.  ``disc.partition`` fires in the
        shared loop; ``disc.round`` is armed where the rounds run in
        this process — the inline executor and degraded cluster mining
        (a cluster worker answers it with a retryable 500).
        """
        algorithm, options, worker, sites = EXECUTORS[executor]
        if worker is not None:
            cluster_pool(live=worker == "live")
        reference = mine(table6_db, 2)
        for site in sites:
            hit = 1
            while True:
                checkpoints: list[MiningCheckpoint] = []
                try:
                    with fault_plan(FaultPlan.from_spec(f"{site}:{hit}")):
                        mine(
                            table6_db, 2, algorithm=algorithm,
                            checkpoint_to=checkpoints.append, **options,
                        )
                    break  # hit number beyond the run's sites: clean finish
                except InjectedFaultError:
                    pass
                resume = checkpoints[-1] if checkpoints else None
                resumed = mine(
                    table6_db, 2, algorithm=algorithm, resume_from=resume,
                    **options,
                )
                assert resumed.complete
                assert resumed.patterns == reference.patterns, (site, hit)
                hit += 1
            assert hit > 1, f"fault site {site} never hit"

    def test_every_executor_mines_the_same_partitions(
        self, table6_members, cluster_pool
    ):
        outputs = {
            "disc-all": disc_all(table6_members, 3),
            "cluster": disc_all_cluster(table6_members, 3, cluster_pool(live=True)),
            "cluster-degraded": disc_all_cluster(
                table6_members, 3, cluster_pool(live=False)
            ),
        }
        # One first-level partition per frequent item (Example 3.1: all
        # but d), counted by the shared loop whoever mines them.
        assert {
            name: out.stats.first_level_partitions for name, out in outputs.items()
        } == {name: 7 for name in outputs}
        for out in outputs.values():
            assert out.patterns == outputs["disc-all"].patterns

    def test_resume_checkpoint_mismatch_raises(self, table6_db, table1_db):
        token = CancelToken()

        def sink(checkpoint: MiningCheckpoint) -> None:
            token.cancel()

        with cancel_scope(token):
            partial = mine(table6_db, 2, checkpoint_to=sink)
        with pytest.raises(CheckpointMismatchError):
            mine(table1_db, 2, resume_from=partial.checkpoint)
        with pytest.raises(CheckpointMismatchError):
            mine(table6_db, 3, resume_from=partial.checkpoint)

    def test_non_resumable_algorithm_rejects_checkpointing(self, table1_db):
        assert not supports_resume("spade")
        with pytest.raises(InvalidParameterError, match="does not support"):
            mine(table1_db, 2, algorithm="spade", resume_from=None,
                 checkpoint_to=lambda c: None)

    def test_resumable_registry(self):
        assert "disc-all" in RESUMABLE_ALGORITHMS
        assert "disc-all-plain" in RESUMABLE_ALGORITHMS
        assert not supports_resume("dynamic-disc-all")
        removed = "disc-all-parallel"  # the deleted process pool
        assert not supports_resume(removed)
        with pytest.raises(UnknownAlgorithmError):
            registry.get_algorithm(removed)

    def test_cancel_before_first_partition_keeps_one_sequences(self, table1_db):
        # A pre-cancelled token stops at the first partition boundary;
        # the 1-sequences (whose supports are already final) survive.
        token = CancelToken()
        token.cancel("immediately")
        with cancel_scope(token):
            result = mine(table1_db, 2)
        assert not result.complete
        assert result.checkpoint is not None
        assert result.checkpoint.completed_partitions == ()
        assert all(len(seq) == 1 and len(seq[0]) == 1 for seq in result.patterns)


    def test_complete_run_has_no_checkpoint(self, table1_db):
        result = mine(table1_db, 2)
        assert result.complete
        assert result.checkpoint is None
        assert result.completed_k == 0
