"""End-to-end cluster tests: coordinator + real HTTP workers.

Workers bind port 0 on loopback and serve from daemon threads, so the
full wire path — payload encode, POST /shards, worker mining, result
decode, retry, merge — runs in-process without fixed ports.
"""

from __future__ import annotations

import http.server
import io
import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster.breaker import BreakerConfig
from repro.cluster.coordinator import (
    SHARDS_PER_WORKER,
    ShardTimeout,
    WorkerClient,
    WorkerPool,
    _ShardAttemptError,
    cluster_executor,
    disc_all_cluster,
    plan_shards,
    register_cluster_algorithm,
)
from repro.cluster.payload import PAYLOAD_CONTENT_TYPE, members_digest
from repro.cluster.worker import make_worker_server
from repro.core.checkpoint import CheckpointRecorder, recording_scope
from repro.core.counting import count_frequent_items
from repro.core.discall import FirstLevelJob, disc_all
from repro.db.database import SequenceDatabase
from repro.exceptions import ClusterError, InvalidParameterError
from repro.mining.api import mine
from repro.mining.result import MiningResult
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


def first_level(members, delta: int):
    """The <(lam)>-partitions and job ``mine_first_level`` would hand an
    executor (membership without reassignment; each is self-contained)."""
    frequent = count_frequent_items(members, delta)
    partitions = [
        (lam, [(cid, seq) for cid, seq in members
               if any(lam in txn for txn in seq)])
        for lam in sorted(frequent)
    ]
    return partitions, FirstLevelJob(delta, frozenset(frequent), True, True, "table")


def wide_members():
    """50 customers over 35 items at delta 3: 35 frequent partitions,
    with DISC rounds, mined inline in well under a second."""
    rng = random.Random(19)
    db = SequenceDatabase.from_raw([
        [rng.sample(range(1, 36), rng.randint(1, 4))
         for _ in range(rng.randint(4, 7))]
        for _ in range(50)
    ])
    return db.members()


def first_level_walk(report) -> tuple[int, int]:
    """``partition.first_level`` and its size histogram's count."""
    sizes = report.metrics["partition.first_level_size"]
    return report.counter_value("partition.first_level"), sizes["count"]


def inline_reference(members):
    """Inline ``disc_all`` at delta 3 and its :func:`first_level_walk`."""
    with activated(observation(trace=False)) as obs:
        reference = disc_all(members, 3)
        report = obs.report()
    return reference, first_level_walk(report)


def shipped_payloads(monkeypatch) -> list:
    """Record every (worker URL, payload) ``WorkerClient.mine_shard`` sends."""
    real = WorkerClient.mine_shard
    sent = []

    def recorded(self, payload, traceparent=None):
        sent.append((self.base_url, payload))
        return real(self, payload, traceparent)

    monkeypatch.setattr(WorkerClient, "mine_shard", recorded)
    return sent


class CutShort(http.server.BaseHTTPRequestHandler):
    """A worker that dies mid-shard: it reads the payload, starts an
    answer and drops the connection."""

    def do_POST(self):  # noqa: N802 (http.server naming)
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Length", "1000")
        self.end_headers()
        self.wfile.write(b"{")

    def log_message(self, *args):
        pass


def dispatch_threads(urls) -> list[threading.Thread]:
    """Live dispatch threads aimed at any of *urls*."""
    names = {f"shard-dispatch-{url}" for url in urls}
    return [t for t in threading.enumerate() if t.name in names and t.is_alive()]


def fast_breaker_pool(urls, **options) -> WorkerPool:
    """A pool whose breakers open on one failure and back off 0.2 s."""
    pool = WorkerPool(allow_empty=True, **options)
    pool.membership.breaker_config = BreakerConfig(
        failure_threshold=1, reset_seconds=0.2
    )
    for url in urls:
        pool.membership.register(url, static=True)
    return pool


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
        assert out.stats.first_level_partitions == 7
        shards = report.counter_value("cluster.shards_dispatched")
        assert 1 <= shards <= min(7, 2 * SHARDS_PER_WORKER)
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
        assert out.stats.first_level_partitions == 7
        assert report.counter_value("cluster.shards_merged") == (
            report.counter_value("cluster.shards_dispatched")
            - report.counter_value("cluster.shards_retried")
        )

    def test_all_workers_dead_degrades_to_local(self, table6_members):
        pool = WorkerPool([DEAD_URL], max_worker_failures=2, degrade_after=0.0)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        # byte-identical completion via the local fallback, not an abort
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert out.stats.first_level_partitions == 7
        # one live candidate at planning: SHARDS_PER_WORKER shards, all local
        assert report.counter_value("cluster.shards_mined_locally") == SHARDS_PER_WORKER
        assert report.counter_value("cluster.shards_merged") == SHARDS_PER_WORKER

    def test_degradation_disabled_aborts(self, table6_members):
        pool = WorkerPool(
            [DEAD_URL], max_worker_failures=2,
            degrade=False, degrade_after=0.0,
        )
        with pytest.raises(ClusterError, match="no live workers remain"):
            disc_all_cluster(table6_members, 3, pool)

    def test_answer_cut_short_is_a_worker_fault(self, table6_members):
        """A connection dropped mid-answer charges the worker, like a
        refused one, instead of escaping the dispatch thread."""
        from tests.test_cluster_payload import payload_for

        server = http.server.HTTPServer(("127.0.0.1", 0), CutShort)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            client = WorkerClient(f"http://127.0.0.1:{server.server_address[1]}")
            with pytest.raises(_ShardAttemptError) as excinfo:
                client.mine_shard(payload_for(table6_members, 3, 1))
        finally:
            server.shutdown()
            server.server_close()
        assert excinfo.value.retryable
        assert excinfo.value.worker_fault

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

    def test_json_payload_answers_400_not_retryable(self, workers, table6_members):
        """A JSON body is not a shard payload: the magic check refuses it."""
        from tests.test_cluster_payload import payload_for

        payload = payload_for(table6_members, 3, 1)
        body = json.dumps({"format": "repro.shard-payload", "version": 2,
                           "keys": list(payload.keys), "delta": payload.delta})
        request = urllib.request.Request(
            workers[0] + "/shards",
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        doc = json.loads(excinfo.value.read().decode("utf-8"))
        assert doc["error"]["code"] == "bad_payload"
        assert doc["error"]["retryable"] is False
        assert "magic" in doc["error"]["message"]

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
        # one worker: the 7 partitions travel as SHARDS_PER_WORKER shards
        assert doc["metrics"]["worker.shards_mined"]["value"] == SHARDS_PER_WORKER
        request = urllib.request.Request(
            workers[0] + "/metrics?format=prometheus",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
        assert f"worker_shards_mined {SHARDS_PER_WORKER}" in text
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
        payload = payload_for(table6_members, 3, 1, 2)
        results, report = client.mine_shard(payload)
        reference = disc_all(table6_members, 3).patterns
        assert results == {
            lam: {
                raw: count for raw, count in reference.items()
                if sum(len(txn) for txn in raw) >= 2 and raw[0][0] == lam
            }
            for lam in (1, 2)
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
        assert out.stats.first_level_partitions == 7
        # planned with no live worker: SHARDS_PER_WORKER shards
        assert report.counter_value("cluster.shards_merged") == SHARDS_PER_WORKER
        # everything went through the late worker, nothing local
        assert report.counter_value("cluster.shards_mined_locally") == 0

    def test_shutdown_with_inflight_job_joins_and_drains(
        self, workers, table6_members, monkeypatch
    ):
        """Closing the executor mid-run sends nothing new, and every
        dispatch thread exits once its in-flight RPC returns."""
        real = WorkerClient.mine_shard
        calls = []

        def slow_mine(self, payload, traceparent=None):
            calls.append(payload.keys[0])
            time.sleep(0.3)
            return real(self, payload, traceparent)

        monkeypatch.setattr(WorkerClient, "mine_shard", slow_mine)
        partitions, job = first_level(table6_members, 3)
        with activated(observation(trace=False)) as obs:
            shards = cluster_executor(
                iter(partitions), job, WorkerPool(workers),
                members_digest(table6_members),
            )
            next(shards)
            shards.close()
            report = obs.report()
        deadline = time.monotonic() + 10.0
        while dispatch_threads(workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not dispatch_threads(workers)
        # both workers started, one came back and was refilled before
        # the yield; nothing was sent after close()
        assert report.counter_value("cluster.shards_dispatched") == 3
        assert len(calls) == 3 < len(partitions)

    def test_idle_worker_refilled_before_merge(
        self, workers, table6_members, monkeypatch
    ):
        """The next shard is on the wire while the loop merges the last."""
        real_mine = WorkerClient.mine_shard
        real_done = CheckpointRecorder.partition_done
        calls = []
        seen_while_merging = []

        def counted_mine(self, payload, traceparent=None):
            calls.append(payload.keys[0])
            return real_mine(self, payload, traceparent)

        def slow_done(self, lam, patterns):
            time.sleep(0.2)
            seen_while_merging.append(len(calls))
            real_done(self, lam, patterns)

        monkeypatch.setattr(WorkerClient, "mine_shard", counted_mine)
        monkeypatch.setattr(CheckpointRecorder, "partition_done", slow_done)
        with recording_scope(CheckpointRecorder()):
            out = disc_all_cluster(table6_members, 3, WorkerPool(workers[:1]))
        assert out.stats.first_level_partitions == 7
        assert seen_while_merging[0] >= 2


class TestBreakerAcrossRuns:
    def test_open_breaker_is_probed_by_the_next_run(
        self, workers, table6_members, monkeypatch
    ):
        """A run that ends with a worker's breaker open leaves it to be
        probed, and used, by the next run once the backoff elapses."""
        pool = fast_breaker_pool(workers[:1], degrade_after=0.0)
        breaker = pool.membership.record(workers[0]).breaker
        real = WorkerClient.mine_shard

        def refused(self, payload, traceparent=None):
            raise _ShardAttemptError(
                "connection refused", retryable=True, worker_fault=True
            )

        monkeypatch.setattr(WorkerClient, "mine_shard", refused)
        with activated(observation(trace=False)) as obs:
            first = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        assert report.counter_value("cluster.shards_mined_locally") == SHARDS_PER_WORKER
        assert breaker.state == "open"

        monkeypatch.setattr(WorkerClient, "mine_shard", real)
        time.sleep(breaker.snapshot()["retry_in_seconds"] + 0.05)
        with activated(observation(trace=False)) as obs:
            second = disc_all_cluster(table6_members, 3, pool)
            report = obs.report()
        assert second.patterns == first.patterns
        assert report.counter_value("cluster.shards_mined_locally") == 0
        assert report.counter_value("cluster.shards_dispatched") == SHARDS_PER_WORKER
        assert breaker.state == "closed"

    def test_unanswered_probe_does_not_wedge_the_breaker(
        self, workers, table6_members, monkeypatch
    ):
        """A run closed while its half-open probe is in flight counts the
        probe as failed, so the next run can probe the worker again."""
        pool = fast_breaker_pool(workers)
        slow = pool.membership.record(workers[1]).breaker
        slow.record_failure()  # open; the next dispatch after the backoff probes
        time.sleep(slow.snapshot()["retry_in_seconds"] + 0.05)
        real = WorkerClient.mine_shard

        def mine(self, payload, traceparent=None):
            if self.base_url == workers[1]:
                time.sleep(0.5)
            return real(self, payload, traceparent)

        monkeypatch.setattr(WorkerClient, "mine_shard", mine)
        partitions, job = first_level(table6_members, 3)
        shards = cluster_executor(
            iter(partitions), job, pool, members_digest(table6_members)
        )
        next(shards)  # the fast worker's first shard; the probe is in flight
        assert slow.state == "half_open"
        shards.close()
        assert slow.state == "open"

        monkeypatch.setattr(WorkerClient, "mine_shard", real)
        time.sleep(slow.snapshot()["retry_in_seconds"] + 0.05)
        out = disc_all_cluster(table6_members, 3, pool)
        assert out.patterns == disc_all(table6_members, 3).patterns
        assert slow.state == "closed"


class TestCoarseShards:
    """A shard is a contiguous key range plus the union of its members."""

    def test_one_worker_gets_few_shards_covering_every_key_once(
        self, workers, monkeypatch
    ):
        members = wide_members()
        reference, walked = inline_reference(members)
        assert reference.stats.first_level_partitions >= 30
        sent = shipped_payloads(monkeypatch)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(members, 3, WorkerPool(workers[:1]))
            report = obs.report()
        assert report.counter_value("cluster.shards_dispatched") <= SHARDS_PER_WORKER
        assert len(sent) == report.counter_value("cluster.shards_dispatched")
        keys = [key for _url, payload in sent for key in payload.keys]
        assert sorted(keys) == sorted(count_frequent_items(members, 3))
        for _url, payload in sent:
            cids = [cid for cid, _seq in payload.members]
            assert cids == sorted(set(cids))
            assert list(payload.keys) == sorted(payload.keys)
        assert out.patterns == reference.patterns
        assert out.stats == reference.stats  # all five DiscAllStats fields
        # the worker's re-walk of the union is not counted again
        assert first_level_walk(report) == walked

    def test_ranges_are_contiguous_balanced_and_bounded(self):
        members = wide_members()
        partitions, _job = first_level(members, 3)
        for count in (1, 2, 4, 8, 100):
            ranges = plan_shards(partitions, count)
            assert 1 <= len(ranges) <= count
            assert [p for shard in ranges for p in shard] == partitions
        costs = [
            sum(len(txn) for _lam, group in shard for _cid, seq in group for txn in seq)
            for shard in plan_shards(partitions, 4)
        ]
        assert max(costs) <= 2 * sum(costs) / len(costs)
        assert plan_shards([], 4) == []

    def test_deadline_is_the_sum_of_its_partitions_deadlines(self):
        from tests.test_cluster_payload import payload_for

        members = wide_members()
        partitions, _job = first_level(members, 3)
        keys = [lam for lam, _group in partitions[:10]]
        for timeout in (ShardTimeout(base=10.0), ShardTimeout(2.0, per_member=0.5)):
            alone = [
                timeout.for_payload(payload_for(members, 3, key)) for key in keys
            ]
            shard = timeout.for_payload(payload_for(members, 3, *keys))
            assert shard == pytest.approx(sum(alone))
            assert shard > 5 * max(alone)
        # each partition's members count once per partition, not once per
        # customer in the union
        sized = ShardTimeout(1.0, per_member=1.0)
        assert sized.for_payload(payload_for(members, 3, *keys)) == pytest.approx(
            len(keys) + sum(len(group) for _lam, group in partitions[:10])
        )

    def test_worker_dying_mid_shard_costs_one_resend(self, workers, monkeypatch):
        members = wide_members()
        dying = http.server.HTTPServer(("127.0.0.1", 0), CutShort)
        threading.Thread(target=dying.serve_forever, daemon=True).start()
        dying_url = f"http://127.0.0.1:{dying.server_address[1]}"
        pool = WorkerPool(allow_empty=True)
        # one failure opens the dying worker's breaker for the whole run
        pool.membership.breaker_config = BreakerConfig(
            failure_threshold=1, reset_seconds=60.0
        )
        pool.membership.register(dying_url, static=True)
        pool.membership.register(workers[0], static=True)
        sent = shipped_payloads(monkeypatch)
        partitions, job = first_level(members, 3)
        try:
            with activated(observation(trace=False)) as obs:
                yielded = list(cluster_executor(
                    iter(partitions), job, pool, members_digest(members)
                ))
                report = obs.report()
        finally:
            dying.shutdown()
            dying.server_close()
        assert report.counter_value("cluster.shards_retried") == 1
        (lost,) = [payload for url, payload in sent if url == dying_url]
        assert len(lost.keys) > 1
        resent = [payload for url, payload in sent
                  if url == workers[0] and payload.digest == lost.digest]
        assert len(resent) == 1  # the whole range, sent once more
        # each key is merged exactly once: per-key results fold with no
        # ShardOverlapError into the single-box result
        assert sorted(lam for lam, _ in yielded) == [lam for lam, _ in partitions]
        reference = disc_all(members, 3).patterns
        ones = {raw: count for raw, count in reference.items() if len(raw) == 1
                and len(raw[0]) == 1}
        merged = MiningResult(ones, 3, "disc-all", len(members))
        for _lam, patterns in yielded:
            merged = merged.merge(MiningResult(patterns, 3, "disc-all", len(members)))
        assert merged.patterns == reference

    def test_degraded_coarse_shards_are_byte_identical(self):
        members = wide_members()
        pool = WorkerPool([DEAD_URL], max_worker_failures=1, degrade_after=0.0)
        with activated(observation(trace=False)) as obs:
            out = disc_all_cluster(members, 3, pool)
            report = obs.report()
        reference, walked = inline_reference(members)
        locally = report.counter_value("cluster.shards_mined_locally")
        assert 1 <= locally <= SHARDS_PER_WORKER
        assert locally < reference.stats.first_level_partitions
        assert out.stats == reference.stats
        assert first_level_walk(report) == walked
        db_size = len(members)
        assert saved_patterns(
            MiningResult(out.patterns, 3, "disc-all", db_size)
        ) == saved_patterns(MiningResult(reference.patterns, 3, "disc-all", db_size))

    def test_result_missing_or_adding_a_key_is_terminal(
        self, workers, table6_members, monkeypatch
    ):
        from repro.cluster import coordinator
        from tests.test_cluster_payload import payload_for

        client = WorkerClient(workers[0])
        payload = payload_for(table6_members, 3, 1, 2)
        real = coordinator.decode_shard_result
        for forge in (
            lambda results: {1: results[1]},  # misses key 2
            lambda results: {**results, 3: {}},  # adds key 3
            lambda results: {1: results[2], 2: results[1]},  # foreign patterns
        ):
            def forged(body, forge=forge):
                digest, results, report = real(body)
                return digest, forge(results), report

            monkeypatch.setattr(coordinator, "decode_shard_result", forged)
            with pytest.raises(_ShardAttemptError) as excinfo:
                client.mine_shard(payload)
            assert not excinfo.value.retryable
