#!/usr/bin/env python
"""Crash-recovery smoke test for ``repro serve`` (CI: crash-recovery-smoke).

End-to-end proof that the fault-tolerance stack holds together across a
real process death:

1. start ``repro serve`` with a job journal,
2. submit a mine that takes long enough to cross checkpoint boundaries,
3. ``SIGKILL`` the server after the first checkpoint record hits the
   journal (no drain, no atexit — the hard crash),
4. restart the server over the same journal,
5. assert the interrupted job is resumed under its original id and its
   final pattern set is byte-identical to an uninterrupted run, and that
   its journaled checkpoint records — before and after the crash —
   carry each pattern at most once (each record holds only the
   partitions completed since the previous one),
6. assert the submitted ``traceparent`` trace id survived the crash —
   on the job payload, in every journal record of the job, and in the
   structured event log — and that journal-replay health shows up on
   ``/metrics``.

Exits non-zero (with the server log) on any deviation.  Pure stdlib.
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
PORT = int(os.environ.get("SMOKE_PORT", "8931"))

#: the W3C traceparent example ids — any fixed valid pair works
TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"
TRACEPARENT = f"00-{TRACE_ID}-00f067aa0ba902b7-01"


def request(path: str, payload: dict | None = None,
            headers: dict | None = None) -> dict:
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{PORT}{path}", data=data,
        headers=headers or {},
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        return json.loads(response.read())


def request_text(path: str, headers: dict | None = None) -> str:
    req = urllib.request.Request(
        f"http://127.0.0.1:{PORT}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(req, timeout=10) as response:
        return response.read().decode("utf-8")


def start_server(db_path: str, journal_path: str,
                 events_path: str) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", db_path,
         "--port", str(PORT), "--workers", "1", "--journal", journal_path,
         "--events", events_path],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    for _ in range(150):
        if proc.poll() is not None:
            sys.exit(f"server died on startup:\n{proc.stdout.read()}")
        try:
            request("/healthz")
            return proc
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    proc.kill()
    sys.exit("server never answered /healthz")


def journal_has_checkpoint(journal_path: str) -> bool:
    if not os.path.exists(journal_path):
        return False
    with open(journal_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final line mid-crash is expected
            if record.get("event") == "checkpoint":
                return True
    return False


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
                continue  # torn final line mid-crash is expected
    return records


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="crash-smoke-")
    db_path = os.path.join(workdir, "demo.spmf")
    journal_path = os.path.join(workdir, "jobs.jsonl")
    events_path = os.path.join(workdir, "events.jsonl")

    subprocess.run(
        [sys.executable, "-m", "repro.cli", "generate",
         "--ncust", "300", "--slen", "7", "--tlen", "3",
         "--nitems", "50", "--seed", "11", "-o", db_path],
        check=True, stdout=subprocess.DEVNULL,
    )

    # Uninterrupted reference run, via the same library the service uses.
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
    print(f"reference run: {len(reference)} patterns")

    server = start_server(db_path, journal_path, events_path)
    submitted = request(
        "/mine", {"database": "demo", "min_support": MIN_SUPPORT},
        headers={"traceparent": TRACEPARENT},
    )
    job_id = submitted["job_id"]
    if submitted.get("trace_id") != TRACE_ID:
        server.kill()
        sys.exit(
            f"submit response trace_id {submitted.get('trace_id')!r} "
            f"!= sent {TRACE_ID!r}"
        )
    print(f"submitted {job_id} under trace {TRACE_ID}")

    deadline = time.time() + 60
    while time.time() < deadline:
        if journal_has_checkpoint(journal_path):
            break
        time.sleep(0.02)
    else:
        server.kill()
        sys.exit("no checkpoint record appeared within 60s")

    server.send_signal(signal.SIGKILL)
    server.wait()
    print("SIGKILLed the server after the first journaled checkpoint")

    server = start_server(db_path, journal_path, events_path)
    try:
        deadline = time.time() + 240
        while time.time() < deadline:
            doc = request(f"/jobs/{job_id}")
            if doc["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.3)
        else:
            sys.exit(f"recovered job still {doc['status']} after 240s")

        if doc["status"] != "done":
            sys.exit(f"recovered job ended {doc['status']}: {doc.get('error')}")
        result = doc["result"]
        if not result["complete"]:
            sys.exit("recovered result is flagged incomplete")

        # Compare supports through the same raw-tuple keys as the
        # reference file: parse "<(a, b)(c)>" back via the repro parser.
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
        from repro.core.sequence import format_seq

        rendered_reference = {
            format_seq(raw): support for raw, support in reference.items()
        }
        recovered = {
            entry["pattern"]: entry["support"]
            for entry in result["patterns"]
        }
        if recovered != rendered_reference:
            sys.exit(
                f"pattern sets differ: recovered {len(recovered)} vs "
                f"reference {len(rendered_reference)}"
            )
        print(
            f"recovered job {job_id}: done, complete, "
            f"{len(recovered)} patterns == uninterrupted run"
        )

        # --- trace propagation: one id across crash and recovery ---
        if doc.get("trace_id") != TRACE_ID:
            sys.exit(
                f"recovered job trace_id {doc.get('trace_id')!r} "
                f"!= submitted {TRACE_ID!r}"
            )
        if "queue_wait_seconds" not in doc or "run_seconds" not in doc:
            sys.exit("job payload lost queue_wait_seconds/run_seconds")
        job_records = [
            record for record in decoded_lines(journal_path)
            if record.get("job") == job_id or record.get("job_id") == job_id
        ]
        bad = [
            record for record in job_records
            if record.get("trace_id") not in (TRACE_ID, None)
        ]
        if bad or not any(
            record.get("trace_id") == TRACE_ID for record in job_records
        ):
            sys.exit(f"journal records lost the trace id: {job_records}")

        # --- checkpoint records are deltas: no pattern journaled twice ---
        journaled: dict[str, int] = {}
        records = 0
        for record in job_records:
            if record.get("event") != "checkpoint":
                continue
            records += 1
            for raw, _support in record["checkpoint"]["patterns"]:
                key = json.dumps(raw)
                journaled[key] = journaled.get(key, 0) + 1
        repeated = [key for key, seen in journaled.items() if seen > 1]
        if not records:
            sys.exit("the job journaled no checkpoint record")
        if repeated:
            sys.exit(
                f"{len(repeated)} patterns journaled more than once across "
                f"{records} checkpoint records, e.g. {repeated[:3]}"
            )
        print(
            f"{records} checkpoint records carry {len(journaled)} patterns, "
            "each at most once"
        )

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
        for wanted in ("job.accepted", "job.checkpoint", "job.recovered",
                       "job.finished"):
            if wanted not in names:
                sys.exit(f"event {wanted!r} missing for trace {TRACE_ID}: {names}")
        print(f"event log replays the lifecycle: {len(events)} records")

        # --- journal replay health is visible on /metrics ---
        metrics = request("/metrics")["metrics"]
        resumed = metrics.get("service.journal_resumed", {}).get("value")
        if resumed != 1:
            sys.exit(f"service.journal_resumed is {resumed!r}, wanted 1")
        prometheus = request_text("/metrics?format=prometheus")
        if "service_journal_resumed 1" not in prometheus:
            sys.exit("prometheus rendering lost service_journal_resumed")
        print("journal health on /metrics: service.journal_resumed == 1")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
    print("crash-recovery smoke PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
