"""End-to-end cluster tests: coordinator + real HTTP workers.

Workers bind port 0 on loopback and serve from daemon threads, so the
full wire path — payload encode, POST /shards, worker mining, result
decode, retry, merge — runs in-process without fixed ports.
"""

from __future__ import annotations

import io
import json
import queue
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.coordinator import (
    WorkerClient,
    WorkerPool,
    disc_all_cluster,
    register_cluster_algorithm,
)
from repro.cluster.payload import PAYLOAD_CONTENT_TYPE
from repro.cluster.worker import make_worker_server
from repro.core.checkpoint import CheckpointRecorder, recording_scope
from repro.core.counting import count_frequent_items
from repro.core.discall import disc_all
from repro.db.database import SequenceDatabase
from repro.exceptions import ClusterError, InvalidParameterError
from repro.mining.api import mine
from repro.mining.serialize import save_result
from repro.obs import observation
from repro.obs.context import activated
from repro.obs.trace_context import TraceContext, trace_scope
from tests.conftest import TABLE6_TEXTS, post_with_content_length

#: a URL nothing listens on (port 9 is discard; connection is refused)
DEAD_URL = "http://127.0.0.1:9"


def start_workers(count: int):
    """Start *count* loopback workers; returns (servers, urls)."""
    servers, urls = [], []
    for _ in range(count):
        server = make_worker_server(port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        urls.append(f"http://127.0.0.1:{server.server_address[1]}")
    return servers, urls


@pytest.fixture
def workers():
    servers, urls = start_workers(2)
    yield urls
    for server in servers:
        server.shutdown()
        server.server_close()


def saved_patterns(result) -> str:
    """The result's canonical serialised pattern list (byte-identity)."""
    buffer = io.StringIO()
    save_result(result, buffer)
    return json.dumps(json.loads(buffer.getvalue())["patterns"])


class TestCoordinatorParity:
    def test_matches_disc_all(self, workers, table6_members):
        pool = WorkerPool(workers)
        out = disc_all_cluster(table6_members, 3, pool)
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert out.stats.first_level_partitions == 7

    def test_registry_result_is_byte_identical(self, workers):
        db = SequenceDatabase.from_texts(
            [text for _cid, text in sorted(TABLE6_TEXTS.items())]
        )
        pool = WorkerPool(workers)
        register_cluster_algorithm(pool)
        reference = mine(db, 3, algorithm="disc-all")
        clustered = mine(db, 3, algorithm="disc-all-cluster")
        assert clustered.patterns == reference.patterns
        assert saved_patterns(clustered) == saved_patterns(reference)

    def test_counters_cover_every_shard(self, workers, table6_members):
        pool = WorkerPool(workers)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        shards = out.stats.first_level_partitions
        assert report.counter_value("cluster.shards_dispatched") == shards
        assert report.counter_value("cluster.shards_merged") == shards
        assert report.counter_value("cluster.shards_retried") == 0
        assert report.counter_value("cluster.shards_failed") == 0
        # worker-side counters were absorbed into the coordinating report
        assert report.counter_value("worker.shards_mined") == shards

    def test_delta_validated(self, workers):
        with pytest.raises(ValueError, match="delta"):
            disc_all_cluster([], 0, WorkerPool(workers))

    def test_empty_database(self, workers):
        assert disc_all_cluster([], 2, WorkerPool(workers)).patterns == {}


class TestFailurePolicy:
    def test_dead_worker_shards_retried_elsewhere(self, workers, table6_members):
        pool = WorkerPool([DEAD_URL, workers[0]], max_worker_failures=2)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert report.counter_value("cluster.shards_retried") >= 1
        assert report.counter_value("cluster.shards_merged") == 7

    def test_all_workers_dead_degrades_to_local(self, table6_members):
        pool = WorkerPool([DEAD_URL], max_worker_failures=2, degrade_after=0.0)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        # byte-identical completion via the local fallback, not an abort
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert report.counter_value("cluster.shards_mined_locally") == 7
        assert report.counter_value("cluster.shards_merged") == 7

    def test_degradation_disabled_aborts(self, table6_members):
        pool = WorkerPool(
            [DEAD_URL], max_worker_failures=2,
            degrade=False, degrade_after=0.0,
        )
        with pytest.raises(ClusterError, match="no live workers remain"):
            disc_all_cluster(table6_members, 3, pool)

    def test_live_count_probes_health(self, workers):
        assert WorkerPool(workers).live_count() == 2
        assert WorkerPool([DEAD_URL, workers[0]]).live_count(timeout=0.5) == 1

    def test_pool_validation(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            WorkerPool([])
        with pytest.raises(InvalidParameterError, match="http"):
            WorkerPool(["ftp://example"])
        with pytest.raises(InvalidParameterError, match="max_shard_attempts"):
            WorkerPool([DEAD_URL], max_shard_attempts=0)


class TestTracePropagation:
    def test_one_trace_spans_coordinator_and_workers(self, workers, table6_members):
        pool = WorkerPool(workers)
        trace = TraceContext.mint()
        with trace_scope(trace), activated(observation(trace=True)) as obs:
            disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        names = set()

        def walk(record):
            names.add(record.name)
            for child in record.children:
                walk(child)

        for span in report.spans:
            walk(span)
        # the coordinator's map span plus grafted worker shard spans
        assert "cluster.map" in names
        assert "shard.report" in names
        assert "shard" in names

    def test_worker_echoes_traceparent(self, workers, table6_members):
        from tests.test_cluster_payload import payload_for

        payload = payload_for(table6_members, 3, 1)
        traceparent = TraceContext.mint().child().to_traceparent()
        request = urllib.request.Request(
            workers[0] + "/shards",
            data=payload.to_bytes(),
            headers={
                "Content-Type": PAYLOAD_CONTENT_TYPE,
                "traceparent": traceparent,
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            doc = json.loads(response.read().decode("utf-8"))
            echoed = response.headers.get("traceparent")
        trace_id = traceparent.split("-")[1]
        assert echoed is not None and trace_id in echoed
        assert doc["trace_id"] == trace_id


class TestWorkerEndpoints:
    def test_healthz_reports_worker_role(self, workers):
        with urllib.request.urlopen(workers[0] + "/healthz", timeout=10) as response:
            doc = json.loads(response.read().decode("utf-8"))
        assert doc["status"] == "ok"
        assert doc["role"] == "worker"
        assert {"shards_mined", "shards_failed", "uptime_seconds"} <= set(doc)

    def test_json_payload_accepted(self, workers, table6_members):
        from tests.test_cluster_payload import payload_for

        payload = payload_for(table6_members, 3, 1)
        request = urllib.request.Request(
            workers[0] + "/shards",
            data=payload.to_json().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            doc = json.loads(response.read().decode("utf-8"))
        assert doc["format"] == "repro.shard-result"
        assert doc["lam"] == payload.lam
        assert doc["payload_digest"] == payload.digest

    def test_garbage_payload_answers_400_not_retryable(self, workers):
        request = urllib.request.Request(
            workers[0] + "/shards",
            data=b"not a payload",
            headers={"Content-Type": PAYLOAD_CONTENT_TYPE},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        doc = json.loads(excinfo.value.read().decode("utf-8"))
        assert doc["error"]["code"] == "bad_payload"
        assert doc["error"]["retryable"] is False

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_answers_400(self, workers, length):
        status, body = post_with_content_length(workers[0], "/shards", length)
        assert status == 400
        assert body["error"]["code"] == "bad_payload"
        assert body["error"]["retryable"] is False

    def test_metrics_negotiates_prometheus(self, workers, table6_members):
        pool = WorkerPool(workers[:1])
        disc_all_cluster(table6_members, 3, pool)
        with urllib.request.urlopen(workers[0] + "/metrics", timeout=10) as response:
            doc = json.loads(response.read().decode("utf-8"))
        assert doc["metrics"]["worker.shards_mined"]["value"] == 7
        request = urllib.request.Request(
            workers[0] + "/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "worker_shards_mined 7" in text
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(workers[0] + "/metrics?format=bogus", timeout=10)
        assert excinfo.value.code == 400
        doc = json.loads(excinfo.value.read().decode("utf-8"))
        assert doc["error"]["code"] == "bad_parameter"

    def test_unknown_endpoint_404(self, workers):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(workers[0] + "/nope", timeout=10)
        assert excinfo.value.code == 404


class TestCheckpointing:
    def test_recorder_marks_every_merged_shard(self, workers, table6_members):
        pool = WorkerPool(workers)
        recorder = CheckpointRecorder()
        with recording_scope(recorder):
            out = disc_all_cluster(table6_members, 3, pool)
        done = recorder.completed_partitions
        assert len(done) == out.stats.first_level_partitions
        assert set(done) == set(count_frequent_items(table6_members, 3))

    def test_completed_partitions_are_skipped(self, workers, table6_members):
        from repro.core.checkpoint import CheckpointIdentity

        pool = WorkerPool(workers)
        recorder = CheckpointRecorder()
        with recording_scope(recorder):
            full = disc_all_cluster(table6_members, 3, pool)
        checkpoint = recorder.capture(
            CheckpointIdentity("d" * 64, 3, "disc-all-cluster", "x")
        )
        resumed = CheckpointRecorder(resume_from=checkpoint)
        with recording_scope(resumed):
            with activated(observation(trace=False)) as obs:
                out = disc_all_cluster(table6_members, 3, pool)
                report = obs.report()
        # nothing re-dispatched; the resumed run only re-counts 1-sequences
        assert report.counter_value("cluster.shards_dispatched") == 0
        assert out.stats.first_level_partitions == 0
        for raw, count in out.patterns.items():
            assert full.patterns[raw] == count


class TestServiceIntegration:
    def test_coordinator_service_mines_through_workers(self, workers):
        from repro.service.service import MiningService

        db = SequenceDatabase.from_texts(
            [text for _cid, text in sorted(TABLE6_TEXTS.items())]
        )
        pool = WorkerPool(workers)
        register_cluster_algorithm(pool)
        with MiningService(
            workers=1, role="coordinator", worker_pool=pool,
            default_algorithm="disc-all-cluster",
        ) as svc:
            svc.register_database("table6", db)
            job = svc.submit_mine("table6", 3, algorithm="disc-all-cluster")
            job = svc.wait(job.id, timeout=60)
            assert job.state == "done"
            result = job.result.result
            health = svc.health()
        assert result.patterns == mine(db, 3, algorithm="disc-all").patterns
        assert health["role"] == "coordinator"
        assert health["workers_connected"] == 2
        assert health["workers_live"] == 2

    def test_worker_client_round_trip(self, workers, table6_members):
        from tests.test_cluster_payload import payload_for

        client = WorkerClient(workers[0])
        payload = payload_for(table6_members, 3, 1)
        patterns, report = client.mine_shard(payload)
        assert patterns == {
            raw: count
            for raw, count in disc_all(table6_members, 3).patterns.items()
            if sum(len(txn) for txn in raw) >= 2 and raw[0][0] == 1
        }
        assert report is not None
        assert report.counter_value("worker.shards_mined") == 1


class TestSelfHealing:
    def test_worker_joining_mid_job_receives_shards(self, workers, table6_members):
        """A worker registering mid-run drains the queue with no restart."""
        pool = WorkerPool(allow_empty=True, degrade_after=60.0)

        def late_join():
            time.sleep(0.3)
            pool.membership.register(workers[0])

        joiner = threading.Thread(target=late_join, daemon=True)
        joiner.start()
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        joiner.join()
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert report.counter_value("cluster.shards_merged") == 7
        # everything went through the late worker, nothing local
        assert report.counter_value("cluster.shards_mined_locally") == 0

    def test_shutdown_with_inflight_job_joins_and_drains(
        self, workers, table6_members, monkeypatch
    ):
        """close() mid-run: threads join in bounded grace, queue drains."""
        from tests.test_cluster_payload import payload_for

        real = WorkerClient.mine_shard

        def slow_mine(self, payload, traceparent=None):
            time.sleep(0.3)
            return real(self, payload, traceparent)

        monkeypatch.setattr(WorkerClient, "mine_shard", slow_mine)
        pool = WorkerPool(workers)
        payloads = [payload_for(table6_members, 3, lam) for lam in (1, 2, 3, 4)]
        run = pool.run(payloads)
        kind = run.notices.get(timeout=10.0)[0]
        assert kind == "dispatched"
        run.close()
        assert run.join(timeout=10.0)
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("shard-dispatch-") and t.is_alive()
        ]
        # the queue drains without blocking; at most the in-flight
        # shards report back, nothing new is dispatched after close()
        drained = []
        while True:
            try:
                drained.append(run.notices.get_nowait())
            except queue.Empty:
                break
        assert all(notice[0] in ("dispatched", "done") for notice in drained)
        assert run.pending_count() >= len(payloads) - len(workers) - 1
