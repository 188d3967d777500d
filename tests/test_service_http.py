"""End-to-end tests for the service HTTP front-end (repro.service.http).

Each test runs a real ``ThreadingHTTPServer`` on a loopback port chosen
by the OS and talks to it over actual sockets with urllib — including
the acceptance scenario: a 2-entry queue and 1 worker under 32
concurrent ``POST /mine`` submissions must accept exactly as many jobs
as there is capacity, reject the rest with 429, serve repeats from the
cache, and drain in-flight jobs on graceful shutdown.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.discall import disc_all
from repro.db.database import SequenceDatabase
from repro.mining import registry as algorithm_registry
from repro.mining.api import mine
from repro.service import MiningService
from repro.service.http import make_server

from tests.conftest import TABLE1_TEXTS, post_with_content_length

def _spmf_text() -> str:
    from io import StringIO

    from repro.db.io import write_spmf

    buffer = StringIO()
    write_spmf(SequenceDatabase.from_texts(TABLE1_TEXTS), buffer)
    return buffer.getvalue()


#: SPMF text of the Table-1 database (items renamed to integers).
SPMF_TEXT = _spmf_text()


def http(method: str, url: str, payload: dict | None = None):
    """One HTTP round-trip; returns ``(status, parsed JSON body)``."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def http_raw(method: str, url: str, payload: dict | None = None):
    """Like :func:`http`, but also returns the response headers."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            body = json.loads(response.read().decode("utf-8"))
            return response.status, body, response.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8")), exc.headers


def poll_job(base: str, job_id: str, timeout: float = 30.0) -> dict:
    """GET the job until it reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = http("GET", f"{base}/jobs/{job_id}")
        assert status == 200, body
        if body["status"] in ("done", "failed", "cancelled"):
            return body
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture
def served():
    """A running service+server; yields ``(base_url, service)``."""
    service = MiningService(workers=1, queue_size=8, cache_entries=16)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.close(drain=False, timeout=10.0)


def register_table1(base: str, name: str = "t1") -> dict:
    status, body = http(
        "POST",
        f"{base}/databases",
        {"name": name, "format": "spmf", "content": SPMF_TEXT},
    )
    assert status == 200, body
    return body


class TestEndpoints:
    def test_index_lists_endpoints(self, served):
        base, _ = served
        status, body = http("GET", base + "/")
        assert status == 200
        assert "POST /mine" in body["endpoints"]

    def test_healthz(self, served):
        base, _ = served
        status, body = http("GET", f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body) == {
            "status", "role", "databases", "cache_entries", "queue_depth",
            "jobs",
        }
        assert body["role"] == "standalone"

    def test_metrics_schema(self, served):
        base, _ = served
        status, body = http("GET", f"{base}/metrics")
        assert status == 200
        assert body["format"] == "repro.service-metrics"
        assert body["version"] == 1
        assert isinstance(body["metrics"], dict)
        assert "service.queue_depth" in body["metrics"]

    def test_register_and_mine_round_trip(self, served):
        base, service = served
        registered = register_table1(base)
        assert registered["sequences"] == 4
        assert registered["replaced"] is False

        status, body = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        assert status == 202, body
        job = poll_job(base, body["job_id"])
        assert job["status"] == "done"
        assert job["cached"] is False
        assert job["request"]["delta"] == 2

        direct = mine(SequenceDatabase.from_texts(TABLE1_TEXTS), 2)
        assert job["result"]["pattern_count"] == len(direct)
        supports = {
            entry["pattern"]: entry["support"]
            for entry in job["result"]["patterns"]
        }
        assert len(supports) == len(direct)
        assert all(count >= 2 for count in supports.values())

    def test_top_query_limits_patterns(self, served):
        base, _ = served
        register_table1(base)
        _, body = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        job = poll_job(base, body["job_id"])
        assert len(job["result"]["patterns"]) > 3
        status, limited = http("GET", f"{base}/jobs/{body['job_id']}?top=3")
        assert status == 200
        assert len(limited["result"]["patterns"]) == 3
        assert limited["result"]["pattern_count"] == job["result"]["pattern_count"]

    def test_repeat_request_served_from_cache(self, served):
        base, _ = served
        register_table1(base)
        _, first = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        poll_job(base, first["job_id"])
        status, second = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        assert status == 200  # finished synchronously
        assert second["status"] == "done"
        assert second["cached"] is True

    def test_delete_database_evicts_and_invalidates(self, served):
        base, service = served
        register_table1(base)
        _, submitted = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        poll_job(base, submitted["job_id"])
        status, body = http("DELETE", f"{base}/databases/t1")
        assert status == 200
        assert body["evicted"] == "t1"
        assert body["cache_entries_dropped"] == 1
        status, body = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_database"

    def test_jobs_listing(self, served):
        base, _ = served
        register_table1(base)
        _, submitted = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        poll_job(base, submitted["job_id"])
        status, body = http("GET", f"{base}/jobs")
        assert status == 200
        assert {"id": submitted["job_id"], "status": "done"} in body["jobs"]


class TestErrors:
    def test_unknown_endpoint(self, served):
        base, _ = served
        status, body = http("GET", f"{base}/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_job(self, served):
        base, _ = served
        status, body = http("GET", f"{base}/jobs/j999999")
        assert status == 404
        assert body["error"]["code"] == "unknown_job"

    def test_unknown_database(self, served):
        base, _ = served
        status, body = http(
            "POST", f"{base}/mine", {"database": "ghost", "min_support": 2}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_database"

    def test_unknown_algorithm(self, served):
        base, _ = served
        register_table1(base)
        status, body = http(
            "POST",
            f"{base}/mine",
            {"database": "t1", "min_support": 2, "algorithm": "ghost"},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown_algorithm"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"database": "t1"},
            {"database": "t1", "min_support": True},
            {"database": "t1", "min_support": "two"},
            {"database": "t1", "min_support": 2, "options": "nope"},
            {"database": "t1", "min_support": 2, "deadline_seconds": 0},
        ],
    )
    def test_bad_mine_parameters(self, served, payload):
        base, _ = served
        register_table1(base)
        status, body = http("POST", f"{base}/mine", payload)
        assert status == 400
        assert body["error"]["code"] == "bad_parameter"

    def test_malformed_json_body(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/mine", data=b"{not json", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                status, body = response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            status, body = exc.code, json.loads(exc.read().decode("utf-8"))
        assert status == 400
        assert body["error"]["code"] == "bad_parameter"

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length(self, served, length):
        base, _ = served
        status, body = post_with_content_length(base, "/mine", length)
        assert status == 400
        assert body["error"]["code"] == "bad_parameter"

    def test_malformed_database_content(self, served):
        base, _ = served
        status, body = http(
            "POST",
            f"{base}/databases",
            {"name": "bad", "format": "spmf", "content": "1 2 oops -2\n"},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_database"


class TestFaultTolerance:
    def test_job_payload_exposes_attempts_and_completeness(self, served):
        base, _ = served
        register_table1(base)
        _, submitted = http(
            "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
        )
        job = poll_job(base, submitted["job_id"])
        assert job["attempts"] == 1
        assert job["result"]["complete"] is True
        assert job["result"]["completed_k"] == 0

    def test_429_carries_retry_after(self):
        started = threading.Event()
        release = threading.Event()

        def gated(members, delta, **options):
            started.set()
            assert release.wait(30.0), "test never released the gate"
            return disc_all(members, delta).patterns

        algorithm_registry.register_algorithm(
            "gated-retry-after", gated, replace=True
        )
        service = MiningService(workers=1, queue_size=1, cache_entries=4)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            register_table1(base)
            status, _, _ = http_raw(
                "POST",
                f"{base}/mine",
                {
                    "database": "t1",
                    "min_support": 3,
                    "algorithm": "gated-retry-after",
                },
            )
            assert status == 202
            assert started.wait(30.0)
            # Fill the single queue slot, then overflow it.
            rejected = None
            for _ in range(4):
                status, body, headers = http_raw(
                    "POST",
                    f"{base}/mine",
                    {"database": "t1", "min_support": 2},
                )
                if status == 429:
                    rejected = (body, headers)
            assert rejected is not None, "queue never overflowed"
            body, headers = rejected
            assert body["error"]["code"] == "overloaded"
            retry_after = headers["Retry-After"]
            assert retry_after is not None
            assert int(retry_after) >= 1  # RFC 9110: delay-seconds
            assert body["error"]["retry_after_seconds"] == int(retry_after)
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            service.close(drain=True, timeout=30.0)


class TestAcceptance:
    """The issue's end-to-end scenario, over real sockets."""

    def test_backpressure_cache_and_graceful_drain(self):
        started = threading.Event()
        release = threading.Event()

        def gated_disc_all(members, delta, **options):
            started.set()
            assert release.wait(30.0), "test never released the gate"
            return disc_all(members, delta).patterns

        algorithm_registry.register_algorithm(
            "gated-disc-all", gated_disc_all, replace=True
        )
        service = MiningService(workers=1, queue_size=2, cache_entries=16)
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            register_table1(base)

            # Occupy the single worker with a gated job.
            status, blocker = http(
                "POST",
                f"{base}/mine",
                {
                    "database": "t1",
                    "min_support": 3,
                    "algorithm": "gated-disc-all",
                },
            )
            assert status == 202
            assert started.wait(30.0)

            # 32 concurrent submissions against a 2-entry queue: exactly
            # the queue capacity is accepted, the rest get 429s.
            def submit(_):
                return http(
                    "POST",
                    f"{base}/mine",
                    {"database": "t1", "min_support": 2},
                )

            with ThreadPoolExecutor(max_workers=32) as pool:
                responses = list(pool.map(submit, range(32)))
            accepted = [body for code, body in responses if code == 202]
            rejected = [body for code, body in responses if code == 429]
            assert len(accepted) == 2
            assert len(rejected) == 30
            assert all(
                body["error"]["code"] == "overloaded" for body in rejected
            )

            # Graceful shutdown: stop admissions, drain what was accepted.
            release.set()
            closer = threading.Thread(
                target=service.close, kwargs={"drain": True}
            )
            closer.start()
            closer.join(timeout=30.0)
            assert not closer.is_alive()

            status, health = http("GET", f"{base}/healthz")
            assert health["status"] == "shutting_down"
            status, body = http(
                "POST", f"{base}/mine", {"database": "t1", "min_support": 2}
            )
            assert status == 503
            assert body["error"]["code"] == "shutting_down"

            # No accepted job was lost; results match a direct mine().
            direct = mine(SequenceDatabase.from_texts(TABLE1_TEXTS), 2)
            for submitted in accepted:
                job = poll_job(base, submitted["job_id"])
                assert job["status"] == "done"
                assert job["result"]["pattern_count"] == len(direct)
            blocked = poll_job(base, blocker["job_id"])
            assert blocked["status"] == "done"

            # The two identical accepted jobs dedup'd through the cache:
            # one mined, one was served the cached result.
            _, metrics = http("GET", f"{base}/metrics")
            series = metrics["metrics"]
            assert series["service.cache_hits"]["value"] == 1
            assert series["service.cache_misses"]["value"] == 2
            assert series["service.rejected"]["value"] == 30
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            service.close(drain=False, timeout=10.0)
            del algorithm_registry._REGISTRY["gated-disc-all"]


class TestWorkerMembershipEndpoints:
    """The coordinator's dynamic-registration HTTP protocol."""

    WORKER_URL = "http://127.0.0.1:9"  # registration does not probe

    @pytest.fixture
    def coordinator(self):
        from repro.cluster.coordinator import WorkerPool

        pool = WorkerPool(allow_empty=True, probe_timeout=0.5)
        service = MiningService(
            workers=1, role="coordinator", worker_pool=pool
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            service.close(drain=False, timeout=10.0)

    def test_register_heartbeat_deregister_round_trip(self, coordinator):
        status, body = http(
            "POST", coordinator + "/workers", {"url": self.WORKER_URL}
        )
        assert status == 200, body
        assert body["worker"] == self.WORKER_URL
        assert body["joined"] is True and body["lease_seconds"] > 0

        status, body = http(
            "POST", coordinator + "/workers/heartbeat", {"url": self.WORKER_URL}
        )
        assert status == 200 and body["renewed"] is True

        status, body = http("GET", coordinator + "/workers")
        assert status == 200
        assert body["counts"] == {"live": 1, "suspect": 0, "retired": 0}
        (row,) = body["workers"]
        assert row["url"] == self.WORKER_URL and row["state"] == "live"
        assert row["breaker"]["state"] == "closed"

        quoted = urllib.parse.quote(self.WORKER_URL, safe="")
        status, body = http("DELETE", f"{coordinator}/workers?url={quoted}")
        assert status == 200 and body["left"] is True
        status, body = http("GET", coordinator + "/workers")
        assert body["counts"]["retired"] == 1

    def test_heartbeat_without_lease_is_404(self, coordinator):
        status, body = http(
            "POST", coordinator + "/workers/heartbeat", {"url": self.WORKER_URL}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_worker"

    def test_register_requires_a_url(self, coordinator):
        status, body = http("POST", coordinator + "/workers", {})
        assert status == 400
        assert body["error"]["code"] == "bad_parameter"
        status, body = http("DELETE", coordinator + "/workers")
        assert status == 400
        assert body["error"]["code"] == "bad_parameter"

    def test_standalone_server_has_no_worker_table(self, served):
        base, _ = served
        status, body = http("POST", base + "/workers", {"url": self.WORKER_URL})
        assert status == 400
        assert "no worker pool" in body["error"]["message"]

    def test_healthz_reports_membership_detail(self, coordinator):
        http("POST", coordinator + "/workers", {"url": self.WORKER_URL})
        status, body = http("GET", coordinator + "/healthz")
        assert status == 200
        assert body["worker_states"] == {"live": 1, "suspect": 0, "retired": 0}
        assert body["workers"][0]["url"] == self.WORKER_URL
        assert body["dispatch_threads"] == 0
