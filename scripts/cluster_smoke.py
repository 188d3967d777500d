#!/usr/bin/env python
"""Cluster smoke test for ``repro serve`` roles (CI: cluster-smoke).

End-to-end proof that the sharded coordinator/worker path survives a
worker death:

1. start two ``--role worker`` servers and one ``--role coordinator``
   pointed at both,
2. submit a mine (the coordinator defaults to ``disc-all-cluster``),
3. ``SIGKILL`` one worker as soon as the event log shows a shard
   dispatched to it — the hard mid-job death,
4. assert the job still finishes and its pattern set is byte-identical
   to an uninterrupted single-box ``disc-all`` run,
5. assert the shard retry is visible end to end: ``shard.retried``
   events under the submitted trace id, ``cluster.shards_retried`` on
   the coordinator's ``/metrics`` (JSON and Prometheus), and the dead
   worker missing from ``/healthz`` live counts,
6. assert the shards were coarse: the mine dispatched at most
   ``SHARDS_PER_WORKER`` shards per worker, retries aside.

Exits non-zero (with the server logs) on any deviation.  Pure stdlib.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

MIN_SUPPORT = 5
COORDINATOR_PORT = int(os.environ.get("SMOKE_CLUSTER_PORT", "8941"))
WORKER_PORTS = (COORDINATOR_PORT + 1, COORDINATOR_PORT + 2)

#: the W3C traceparent example ids — any fixed valid pair works
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"
TRACEPARENT = f"00-{TRACE_ID}-00f067aa0ba902b7-01"


def request(port: int, path: str, payload: dict | None = None,
            headers: dict | None = None) -> dict:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, headers=headers or {},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        return json.loads(response.read())


def request_text(port: int, path: str) -> str:
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    with urllib.request.urlopen(req, timeout=10) as response:
        return response.read().decode("utf-8")


def start_process(argv: list[str], port: int, name: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    for _ in range(150):
        if proc.poll() is not None:
            sys.exit(f"{name} died on startup:\n{proc.stdout.read()}")
        try:
            request(port, "/healthz")
            return proc
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    proc.kill()
    sys.exit(f"{name} never answered /healthz")


def start_worker(port: int) -> subprocess.Popen:
    return start_process(
        [sys.executable, "-m", "repro.cli", "serve",
         "--role", "worker", "--port", str(port)],
        port, f"worker :{port}",
    )


def decoded_lines(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn final line mid-kill is tolerated
    return records


def dispatched_workers(events_path: str) -> set[str]:
    return {
        record.get("worker", "")
        for record in decoded_lines(events_path)
        if record.get("event") == "shard.dispatched"
    }


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="cluster-smoke-")
    db_path = os.path.join(workdir, "demo.spmf")
    events_path = os.path.join(workdir, "events.jsonl")

    subprocess.run(
        [sys.executable, "-m", "repro.cli", "generate",
         "--ncust", "300", "--slen", "7", "--tlen", "3",
         "--nitems", "50", "--seed", "11", "-o", db_path],
        check=True, stdout=subprocess.DEVNULL,
    )

    # Uninterrupted single-box reference, via the same library.
    ref_path = os.path.join(workdir, "ref.json")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "mine", db_path,
         "--min-support", str(MIN_SUPPORT), "--save", ref_path],
        check=True, stdout=subprocess.DEVNULL,
    )
    with open(ref_path, encoding="utf-8") as handle:
        reference = {
            tuple(tuple(elem) for elem in pattern): support
            for pattern, support in json.load(handle)["patterns"]
        }
    print(f"single-box reference run: {len(reference)} patterns")

    workers = {port: start_worker(port) for port in WORKER_PORTS}
    worker_urls = [f"http://127.0.0.1:{port}" for port in WORKER_PORTS]
    print(f"workers up on {', '.join(worker_urls)}")

    coordinator = start_process(
        [sys.executable, "-m", "repro.cli", "serve", db_path,
         "--role", "coordinator", "--port", str(COORDINATOR_PORT),
         "--workers", "1", "--events", events_path]
        + [arg for url in worker_urls for arg in ("--worker", url)],
        COORDINATOR_PORT, "coordinator",
    )
    victim_port = WORKER_PORTS[1]
    victim_url = f"http://127.0.0.1:{victim_port}"
    try:
        health = request(COORDINATOR_PORT, "/healthz")
        if health.get("role") != "coordinator":
            sys.exit(f"coordinator /healthz role is {health.get('role')!r}")
        if health.get("workers_connected") != 2 or health.get("workers_live") != 2:
            sys.exit(f"unexpected worker counts before the job: {health}")
        print("coordinator /healthz: role=coordinator, 2/2 workers live")

        submitted = request(
            COORDINATOR_PORT, "/mine",
            {"database": "demo", "min_support": MIN_SUPPORT},
            headers={"traceparent": TRACEPARENT},
        )
        job_id = submitted["job_id"]
        if submitted.get("algorithm") not in (None, "disc-all-cluster"):
            sys.exit(f"coordinator did not default to the cluster miner: {submitted}")
        print(f"submitted {job_id} under trace {TRACE_ID}")

        # Kill one worker the moment a shard lands on it: the shards it
        # holds (and every one it would have taken) must be re-dispatched.
        deadline = time.time() + 60
        while time.time() < deadline:
            if victim_url in dispatched_workers(events_path):
                break
            time.sleep(0.005)
        else:
            sys.exit("no shard was dispatched to the victim worker within 60s")
        workers[victim_port].send_signal(signal.SIGKILL)
        workers[victim_port].wait()
        print(f"SIGKILLed worker {victim_url} after its first dispatched shard")

        deadline = time.time() + 240
        while time.time() < deadline:
            doc = request(COORDINATOR_PORT, f"/jobs/{job_id}")
            if doc["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        else:
            sys.exit(f"job still {doc['status']} after 240s")
        if doc["status"] != "done":
            sys.exit(f"job ended {doc['status']}: {doc.get('error')}")
        result = doc["result"]
        if not result["complete"]:
            sys.exit("clustered result is flagged incomplete")

        # Compare supports through the repro renderer, like the reference.
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
        from repro.cluster.coordinator import SHARDS_PER_WORKER
        from repro.core.sequence import format_seq

        rendered_reference = {
            format_seq(raw): support for raw, support in reference.items()
        }
        clustered = {
            entry["pattern"]: entry["support"] for entry in result["patterns"]
        }
        if clustered != rendered_reference:
            sys.exit(
                f"pattern sets differ: clustered {len(clustered)} vs "
                f"reference {len(rendered_reference)}"
            )
        if doc.get("trace_id") != TRACE_ID:
            sys.exit(f"job trace_id {doc.get('trace_id')!r} != {TRACE_ID!r}")
        print(
            f"job {job_id}: done, complete, {len(clustered)} patterns "
            "== single-box run despite the worker death"
        )

        # --- the retry is narrated under the submitted trace id ---
        from repro.obs.events import validate_event

        events = decoded_lines(events_path)
        invalid = [
            (record, problems)
            for record in events
            if (problems := validate_event(record))
        ]
        if invalid:
            sys.exit(f"invalid event records: {invalid[:3]}")
        names = [
            record["event"] for record in events
            if record.get("trace_id") == TRACE_ID
        ]
        for wanted in ("job.accepted", "shard.dispatched", "shard.retried",
                       "shard.completed", "job.finished"):
            if wanted not in names:
                sys.exit(f"event {wanted!r} missing for trace {TRACE_ID}: "
                         f"{sorted(set(names))}")
        retried_events = [
            record for record in events
            if record.get("event") == "shard.retried"
            and record.get("worker") == victim_url
        ]
        if not retried_events:
            sys.exit("no shard.retried event names the killed worker")
        print(
            f"event log narrates the retry: {len(retried_events)} "
            f"shard.retried record(s) for {victim_url}, one trace id"
        )

        # --- retry counters and live-worker counts on the coordinator ---
        metrics = request(COORDINATOR_PORT, "/metrics")["metrics"]
        retried = metrics.get("cluster.shards_retried", {}).get("value", 0)
        if not retried:
            sys.exit(f"cluster.shards_retried is {retried!r}, wanted >= 1")
        merged = metrics.get("cluster.shards_merged", {}).get("value", 0)
        if not merged:
            sys.exit("cluster.shards_merged missing from /metrics")
        dispatched = metrics.get("cluster.shards_dispatched", {}).get("value", 0)
        planned = len(WORKER_PORTS) * SHARDS_PER_WORKER
        if not 0 < dispatched - retried <= planned:
            sys.exit(
                f"{dispatched} shards dispatched with {retried} retried: "
                f"wanted at most {planned} first sends for {len(WORKER_PORTS)} "
                "workers"
            )
        prometheus = request_text(
            COORDINATOR_PORT, "/metrics?format=prometheus"
        )
        if "cluster_shards_retried" not in prometheus:
            sys.exit("prometheus rendering lost cluster_shards_retried")
        health = request(COORDINATOR_PORT, "/healthz")
        if health.get("workers_connected") != 2 or health.get("workers_live") != 1:
            sys.exit(f"post-kill worker counts wrong: {health}")
        print(
            f"coordinator /metrics: {dispatched} dispatched, {retried} retried, "
            f"{merged} merged; /healthz: 1/2 workers live"
        )
    finally:
        for proc in [coordinator] + list(workers.values()):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in [coordinator] + list(workers.values()):
            if proc.poll() is None:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
    print("cluster smoke PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
