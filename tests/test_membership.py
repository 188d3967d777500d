"""Unit tests for the coordinator's dynamic worker lease table.

Membership is driven with a fake clock and fake transports: reap() is
called directly, so lease expiry, suspicion, probing, retirement and
revival are all deterministic.
"""

from __future__ import annotations

import pytest

from repro.cluster.membership import LIVE, RETIRED, SUSPECT, WorkerMembership
from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.faults import FaultPlan, fault_plan
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeClient:
    """A transport whose health is a settable flag (no sockets)."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url
        self.alive = True
        self.probes = 0

    def healthy(self, timeout: float = 2.0) -> bool:
        self.probes += 1
        return self.alive


@pytest.fixture
def table():
    clock = FakeClock()
    membership = WorkerMembership(
        FakeClient, lease_seconds=10.0, retire_grace=5.0, clock=clock
    )
    return membership, clock


URL = "http://127.0.0.1:9001"


class TestRegistration:
    def test_register_grants_a_lease(self, table):
        membership, _clock = table
        doc = membership.register(URL)
        assert doc == {
            "worker": URL, "state": LIVE, "lease_seconds": 10.0, "joined": True,
        }
        record = membership.record(URL)
        assert record.state == LIVE and not record.static

    def test_reregistration_renews_not_rejoins(self, table):
        membership, clock = table
        membership.register(URL)
        first = membership.record(URL)
        clock.advance(8.0)
        doc = membership.register(URL)
        assert doc["joined"] is False
        assert membership.record(URL) is first  # same generation
        assert first.lease_expires == pytest.approx(18.0)

    def test_url_normalised_and_validated(self, table):
        membership, _clock = table
        membership.register(URL + "/")
        assert membership.record(URL) is not None
        with pytest.raises(InvalidParameterError, match="http"):
            membership.register("ftp://example")

    def test_static_workers_convert_to_leased(self, table):
        membership, _clock = table
        membership.register(URL, static=True)
        assert membership.record(URL).static
        membership.register(URL)  # the worker itself phoned in
        assert not membership.record(URL).static


class TestLeaseLifecycle:
    def test_heartbeat_extends_the_lease(self, table):
        membership, clock = table
        membership.register(URL)
        clock.advance(9.0)
        assert membership.heartbeat(URL)
        record = membership.record(URL)
        assert record.lease_expires == pytest.approx(19.0)
        assert record.heartbeats == 1

    def test_heartbeat_unknown_worker_demands_registration(self, table):
        membership, _clock = table
        assert not membership.heartbeat(URL)

    def test_missed_lease_suspects_then_probe_readmits(self, table):
        membership, clock = table
        membership.register(URL)
        clock.advance(11.0)
        membership.reap()
        record = membership.record(URL)
        assert record.state == LIVE  # probe passed: suspicion cleared
        assert record.client.probes == 1
        assert record.lease_expires == pytest.approx(21.0)

    def test_failed_probes_past_grace_retire(self, table):
        membership, clock = table
        membership.register(URL)
        membership.record(URL).client.alive = False
        clock.advance(11.0)
        membership.reap()
        assert membership.record(URL).state == SUSPECT  # inside retire grace
        clock.advance(5.0)
        membership.reap()
        assert membership.record(URL).state == RETIRED
        assert membership.counts() == {LIVE: 0, SUSPECT: 0, RETIRED: 1}

    def test_heartbeat_clears_suspicion(self, table):
        membership, clock = table
        membership.register(URL)
        membership.record(URL).client.alive = False
        clock.advance(11.0)
        membership.reap()
        assert membership.heartbeat(URL)
        assert membership.record(URL).state == LIVE

    def test_retired_worker_revives_with_a_fresh_breaker(self, table):
        membership, clock = table
        membership.register(URL)
        record = membership.record(URL)
        record.client.alive = False
        record.breaker.record_failure()
        clock.advance(16.0)
        membership.reap()
        assert record.state == RETIRED
        assert not membership.heartbeat(URL)  # must re-register
        doc = membership.register(URL)
        assert doc["joined"] is True
        revived = membership.record(URL)
        assert revived is not record
        assert revived.breaker.snapshot()["consecutive_failures"] == 0

    def test_static_workers_are_never_reaped(self, table):
        membership, clock = table
        membership.register(URL, static=True)
        membership.record(URL).client.alive = False
        clock.advance(1000.0)
        membership.reap()
        record = membership.record(URL)
        assert record.state == LIVE
        assert record.client.probes == 0

    def test_deregister_retires_gracefully(self, table):
        membership, _clock = table
        membership.register(URL)
        assert membership.deregister(URL)
        assert membership.record(URL).state == RETIRED
        assert not membership.deregister(URL)  # already gone

    def test_stale_probe_verdict_never_clobbers_a_rejoin(self, table):
        """A worker that re-registers mid-probe keeps its new record."""
        membership, clock = table
        membership.register(URL)
        old = membership.record(URL)
        old.client.alive = False

        class RejoiningClient(FakeClient):
            def healthy(self, timeout: float = 2.0) -> bool:
                # the worker restarts (leave + rejoin, replacing the
                # record) while the reaper is blocked on this probe of
                # the old process
                membership.deregister(URL)
                membership.register(URL)
                return False

        old.client = RejoiningClient(URL)
        clock.advance(16.0)
        membership.reap()
        current = membership.record(URL)
        assert current is not old
        assert current.state == LIVE


class TestDispatchViews:
    def test_candidates_are_the_live_current_records(self, table):
        membership, clock = table
        membership.register(URL)
        other = "http://127.0.0.1:9002"
        membership.register(other)
        for _ in range(3):  # an open breaker is the coordinator's call
            membership.record(other).breaker.record_failure()
        assert [r.url for r in membership.dispatch_candidates()] == [URL, other]
        record = membership.record(URL)
        membership.deregister(URL)
        assert [r.url for r in membership.dispatch_candidates()] == [other]
        membership.register(URL)  # revival replaces the record
        (revived,) = [r for r in membership.dispatch_candidates() if r.url == URL]
        assert revived is not record

    def test_describe_rows_cover_lease_and_breaker(self, table):
        membership, _clock = table
        membership.register(URL)
        (row,) = membership.describe()
        assert row["url"] == URL and row["state"] == LIVE
        assert row["breaker"]["state"] == "closed"
        assert row["lease_expires_in_seconds"] == pytest.approx(10.0)


class TestWiring:
    def test_breaker_transitions_move_the_gauge(self, table):
        membership, _clock = table
        membership.metrics = MetricsRegistry()
        membership.register(URL)
        record = membership.record(URL)
        for _ in range(3):
            record.breaker.record_failure()
        gauge = membership.metrics.gauge("cluster.breaker_state", worker=URL)
        assert gauge.value == 2  # open

    def test_membership_fault_points_are_armed(self, table):
        membership, _clock = table
        with fault_plan(FaultPlan.from_spec("worker.register:1")):
            with pytest.raises(InjectedFaultError):
                membership.register(URL)
        membership.register(URL)
        with fault_plan(FaultPlan.from_spec("worker.heartbeat:1")):
            with pytest.raises(InjectedFaultError):
                membership.heartbeat(URL)

    def test_lease_seconds_validated(self):
        with pytest.raises(InvalidParameterError, match="lease_seconds"):
            WorkerMembership(FakeClient, lease_seconds=0.0)

    def test_reaper_thread_start_stop_idempotent(self, table):
        membership, _clock = table
        membership.start(interval=0.05)
        membership.start(interval=0.05)
        membership.stop()
        membership.stop()
