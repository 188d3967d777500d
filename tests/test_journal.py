"""The durable job journal (repro.service.journal) and crash recovery.

Append/replay round-trips, the forgiving reader (torn last line,
interleaved writers), and the startup recovery policy: resume from a
checkpoint, restart on fingerprint mismatch, fail unresumable jobs.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.checkpoint import MiningCheckpoint
from repro.core.order import sort_key
from repro.db.database import SequenceDatabase
from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.faults import FaultPlan, fault_plan
from repro.mining.api import mine
from repro.obs.events import EventLog, event_log
from repro.service import (
    JobJournal,
    MineOutcome,
    MiningService,
    replay_journal,
)

from tests.conftest import TABLE6_TEXTS

DB_TEXTS = list(TABLE6_TEXTS.values())


@pytest.fixture
def db() -> SequenceDatabase:
    return SequenceDatabase.from_texts(DB_TEXTS)


class TestJournalAppendReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobJournal(path) as journal:
            journal.append("accepted", "j1", database="demo", delta=2)
            journal.append("started", "j1", attempt=1)
            journal.append("finished", "j1", state="done", complete=True)
            journal.append("accepted", "j2", database="demo", delta=3)
        replay = replay_journal(path)
        assert replay.total_lines == 4
        assert replay.corrupt_lines == 0
        assert replay.entries["j1"].finished
        assert replay.entries["j1"].state == "done"
        assert replay.entries["j1"].attempts == 1
        assert not replay.entries["j2"].finished
        assert [entry.job_id for entry in replay.interrupted()] == ["j2"]

    def test_missing_file_replays_empty(self, tmp_path):
        replay = replay_journal(tmp_path / "never-written.jsonl")
        assert replay.entries == {} and replay.corrupt_lines == 0

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="directory"):
            JobJournal(tmp_path)

    def test_append_after_close_raises(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            journal.append("accepted", "j1")

    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobJournal(path) as journal:
            journal.append("accepted", "j1", database="demo")
            journal.append("started", "j1", attempt=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "finish')  # the crash tore this write
        replay = replay_journal(path)
        assert replay.corrupt_lines == 1
        assert not replay.entries["j1"].finished  # torn record ignored

    def test_interleaved_writer_garbage_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with JobJournal(path) as journal:
            journal.append("accepted", "j1", database="demo")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('["a", "json", "array"]\n')
            handle.write('{"event": "started", "ts": 1}\n')  # no job id
            handle.write('{"event": "started", "job": "j1", "attempt": 2}\n')
        replay = replay_journal(path)
        assert replay.corrupt_lines == 3
        assert replay.entries["j1"].attempts == 2

    def test_fsync_fault_site_fires(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        with fault_plan(FaultPlan.from_spec("journal.fsync:1")):
            with pytest.raises(InjectedFaultError):
                journal.append("accepted", "j1")
        journal.append("accepted", "j2")  # plan gone, appends work again
        replay = replay_journal(journal.path)
        # The faulted record reached the file (the fault models a lost
        # fsync, not a lost write); both lines replay.
        assert set(replay.entries) == {"j1", "j2"}
        journal.close()


def interrupted_journal(tmp_path, db, *, drop_events=("finished",)):
    """Run a service over a journal, then erase terminal records so the
    journal looks like the process died mid-job."""
    path = tmp_path / "jobs.jsonl"
    service = MiningService(workers=1, journal=JobJournal(path))
    service.register_database("demo", db)
    with fault_plan(FaultPlan.from_spec("disc.partition:3+")):
        job = service.submit_mine("demo", 2)
        service.wait(job.id, timeout=60)
    service.close()
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and json.loads(line)["event"] not in drop_events
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, job.id


class TestRecovery:
    def test_resume_from_checkpoint_under_original_id(self, tmp_path, db):
        reference = mine(db, 2)
        path, job_id = interrupted_journal(tmp_path, db)
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        summary = service.recover()
        assert summary["resumed"] == 1
        assert summary["failed"] == 0
        job = service.job(job_id)  # original id survives the restart
        service.wait(job.id, timeout=60)
        outcome = job.result
        assert isinstance(outcome, MineOutcome)
        assert outcome.result.complete
        assert outcome.result.patterns == reference.patterns
        snapshot = service.metrics_snapshot()
        assert snapshot["service.recovered_jobs"]["value"] == 1
        service.close()

    def test_new_submissions_never_reuse_recovered_ids(self, tmp_path, db):
        path, job_id = interrupted_journal(tmp_path, db)
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        service.recover()
        fresh = service.submit_mine("demo", 3)
        assert fresh.id != job_id
        service.wait(fresh.id, timeout=60)
        service.close()

    def test_digest_mismatch_fails_the_job(self, tmp_path, db):
        path, job_id = interrupted_journal(tmp_path, db)
        changed = SequenceDatabase.from_texts(DB_TEXTS[:-2])
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", changed)  # same name, new content
        summary = service.recover()
        assert summary == {
            "resumed": 0, "restarted": 0, "failed": 1, "corrupt_lines": 0,
        }
        service.close()
        replay = replay_journal(path)
        entry = replay.entries[job_id]
        assert entry.finished and entry.state == "failed"
        assert entry.code == "unresumable"
        assert "content changed" in (entry.error or "")

    def test_unknown_database_fails_the_job(self, tmp_path, db):
        path, job_id = interrupted_journal(tmp_path, db)
        service = MiningService(workers=1, journal=JobJournal(path))
        summary = service.recover()  # nothing registered
        assert summary["failed"] == 1
        service.close()
        entry = replay_journal(path).entries[job_id]
        assert entry.code == "unresumable"

    def test_corrupt_checkpoint_downgrades_to_restart(self, tmp_path, db):
        reference = mine(db, 2)
        path, job_id = interrupted_journal(tmp_path, db)
        lines = path.read_text(encoding="utf-8").splitlines()
        rewritten = []
        for line in lines:
            record = json.loads(line)
            if record["event"] == "checkpoint":
                record["checkpoint"]["database_digest"] = "0" * 64
                line = json.dumps(record, separators=(",", ":"))
            rewritten.append(line)
        path.write_text("\n".join(rewritten) + "\n", encoding="utf-8")
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        summary = service.recover()
        assert summary["restarted"] == 1 and summary["resumed"] == 0
        job = service.job(job_id)
        service.wait(job.id, timeout=60)
        outcome = job.result
        assert isinstance(outcome, MineOutcome)
        assert outcome.result.patterns == reference.patterns
        service.close()

    def test_torn_tail_does_not_block_recovery(self, tmp_path, db):
        path, job_id = interrupted_journal(tmp_path, db)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "checkpoint", "job": "' + job_id)
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        summary = service.recover()
        assert summary["corrupt_lines"] == 1
        assert summary["resumed"] == 1
        service.wait(job_id, timeout=60)
        service.close()

    def test_recover_without_journal_is_a_noop(self, db):
        service = MiningService(workers=1)
        assert service.recover() == {
            "resumed": 0, "restarted": 0, "failed": 0, "corrupt_lines": 0,
        }
        service.close()

    def test_finished_jobs_are_not_recovered(self, tmp_path, db):
        path = tmp_path / "jobs.jsonl"
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        job = service.submit_mine("demo", 2)
        service.wait(job.id, timeout=60)
        service.close()
        service = MiningService(workers=1, journal=JobJournal(path))
        service.register_database("demo", db)
        assert service.recover() == {
            "resumed": 0, "restarted": 0, "failed": 0, "corrupt_lines": 0,
        }
        service.close()


def pattern_bytes(patterns) -> bytes:
    """A result's patterns as serialised bytes, in the comparative order."""
    ordered = sorted(patterns.items(), key=lambda entry: sort_key(entry[0]))
    return json.dumps([[list(map(list, raw)), count] for raw, count in ordered]).encode()


def journaled_run(tmp_path, db) -> tuple[list[str], str, object]:
    """One uninterrupted journaled mine: its journal lines, id, result."""
    path = tmp_path / "full.jsonl"
    service = MiningService(workers=1, journal=JobJournal(path))
    service.register_database("demo", db)
    job = service.submit_mine("demo", 2)
    service.wait(job.id, timeout=60)
    service.close()
    assert isinstance(job.result, MineOutcome)
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    return lines, job.id, job.result.result


def checkpoint_payloads(lines: list[str], job_id: str) -> list[dict]:
    records = [json.loads(line) for line in lines]
    return [
        record["checkpoint"] for record in records
        if record["event"] == "checkpoint" and record["job"] == job_id
    ]


def recover_from(path, db):
    """Recover a service over *path* and wait for its one recovered job."""
    (entry,) = replay_journal(path).interrupted()
    service = MiningService(workers=1, journal=JobJournal(path))
    service.register_database("demo", db)
    summary = service.recover()
    job = service.wait(entry.job_id, timeout=60)
    service.close()
    assert isinstance(job.result, MineOutcome)
    return summary, job.result.result


class TestDeltaCheckpoints:
    def test_journal_writes_each_pattern_once(self, tmp_path, db):
        lines, job_id, result = journaled_run(tmp_path, db)
        payloads = checkpoint_payloads(lines, job_id)
        assert len(payloads) > 1
        assert sum(len(p["patterns"]) for p in payloads) == len(result.patterns)
        partitions = [lam for p in payloads for lam in p["completed_partitions"]]
        assert len(partitions) == len(set(partitions)) == len(payloads)
        # the records fold back into the complete result
        folded = MiningCheckpoint.fold(
            MiningCheckpoint.from_dict(p) for p in payloads
        )
        assert dict(folded.patterns) == result.patterns

    def test_mine_without_journal_never_serialises_checkpoints(
        self, db, monkeypatch
    ):
        def refuse(self):
            raise AssertionError("checkpoint serialised without a journal")

        monkeypatch.setattr(MiningCheckpoint, "to_dict", refuse)
        service = MiningService(workers=1)
        service.register_database("demo", db)
        buffer = io.StringIO()
        with event_log(EventLog(buffer)):
            job = service.submit_mine("demo", 2)
            service.wait(job.id, timeout=60)
        service.close()
        assert job.error is None
        assert isinstance(job.result, MineOutcome)
        assert job.result.result.patterns == mine(db, 2).patterns
        # the sink still saw every partition boundary
        events = [json.loads(line)["event"] for line in buffer.getvalue().splitlines()]
        assert events.count("job.checkpoint") > 1

    def test_duplicated_delta_replays_to_the_same_checkpoint(self, tmp_path, db):
        reference = mine(db, 2)
        path, job_id = interrupted_journal(tmp_path, db)
        once = replay_journal(path).entries[job_id].checkpoint()
        lines = path.read_text(encoding="utf-8").splitlines()
        doubled: list[str] = []
        for line in lines:
            doubled.append(line)
            if json.loads(line)["event"] == "checkpoint":
                doubled.append(line)  # as a retry after a lost fsync would
        path.write_text("\n".join(doubled) + "\n", encoding="utf-8")
        entry = replay_journal(path).entries[job_id]
        assert len(entry.checkpoints) == 2 * len(once.completed_partitions)
        assert entry.checkpoint() == once
        summary, result = recover_from(path, db)
        assert summary["resumed"] == 1
        assert pattern_bytes(result.patterns) == pattern_bytes(reference.patterns)

    def test_recovery_from_every_cut_is_byte_identical(self, tmp_path, db):
        lines, job_id, result = journaled_run(tmp_path, db)
        expected = pattern_bytes(result.patterns)
        cuts = [
            index for index, line in enumerate(lines)
            if json.loads(line)["event"] == "checkpoint"
        ]
        assert len(cuts) > 1
        for number, cut in enumerate(cuts, start=1):
            path = tmp_path / f"cut{number}.jsonl"
            path.write_text("\n".join(lines[: cut + 1]) + "\n", encoding="utf-8")
            entry = replay_journal(path).entries[job_id]
            resumed_from = entry.checkpoint()
            assert len(resumed_from.completed_partitions) == number
            summary, recovered = recover_from(path, db)
            assert summary["resumed"] == 1, number
            assert recovered.complete
            assert pattern_bytes(recovered.patterns) == expected, number
            # the recovered run journals only what the cut had not
            payloads = checkpoint_payloads(
                path.read_text(encoding="utf-8").splitlines(), job_id
            )
            assert sum(len(p["patterns"]) for p in payloads) == len(result.patterns)

    def test_version_1_checkpoint_downgrades_to_restart(self, tmp_path, db):
        reference = mine(db, 2)
        path, job_id = interrupted_journal(tmp_path, db)
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["event"] == "checkpoint":
                record["checkpoint"]["version"] = 1  # a full v1 payload
                line = json.dumps(record, separators=(",", ":"))
            lines.append(line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary, result = recover_from(path, db)
        assert summary["restarted"] == 1 and summary["resumed"] == 0
        assert pattern_bytes(result.patterns) == pattern_bytes(reference.patterns)
