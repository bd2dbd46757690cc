"""Chaos drills for the serving daemon.

The daemon exposes two registered fault sites — ``serve.handler`` (fires
before a request enters the batch queue) and ``serve.batch`` (fires
wherever a batch runs — the collector, or the handler thread of a
request the statement memo answers — poisoning the whole batch).  These tests arm
:class:`~repro.resilience.faults.FaultPlan` against a live daemon on a
real socket and assert the failure contract:

* injected faults surface as *structured* 503s with retry hints, never
  bare 500s or TCP resets, and the daemon keeps serving afterwards;
* repeated batch failures trip the serving circuit breaker, which is
  visible at ``/admin/status`` and converts later requests into fast
  ``breaker_open`` rejections;
* a seeded chaos load drill produces only structured outcomes
  (``dropped == 0``) even with faults firing mid-stream.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.errors import (
    ServeRejectedError,
    ServeUnavailableError,
    SupervisorError,
)
from repro.resilience.faults import (
    REGISTERED_SITES,
    FaultPlan,
    armed,
    site_registered,
)
from repro.serve import (
    PredictionDaemon,
    ServeClient,
    ServeConfig,
    Supervisor,
    SupervisorConfig,
)
from repro.serve.loadgen import run_load

from tests.test_serve import SQL_LIGHT, client_for, start_daemon


class TestFaultSites:
    def test_serve_sites_are_registered(self):
        assert "serve.handler" in REGISTERED_SITES
        assert "serve.batch" in REGISTERED_SITES
        assert site_registered("serve.handler")
        assert site_registered("serve.batch")

    def test_plan_accepts_serve_sites(self):
        plan = FaultPlan(seed=1).on("serve.handler", calls={1})
        plan.on("serve.batch", rate=0.5)
        assert plan is not None


class TestHandlerFaults:
    def test_handler_fault_is_structured_503_then_recovers(
        self, serve_service
    ):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            plan = FaultPlan(seed=7).on(
                "serve.handler", mode="raise", calls={1}
            )
            with armed(plan):
                with pytest.raises(ServeRejectedError) as excinfo:
                    client.forecast(SQL_LIGHT)
                assert excinfo.value.status == 503
                assert excinfo.value.payload["error"] == "injected_fault"
                assert excinfo.value.retry_after_s > 0
                # Call 2 is clean: the daemon survived the fault.
                payload = client.forecast(SQL_LIGHT)
            assert payload["model_version"] == daemon.model_version
            assert daemon.status()["inflight"] == 0
        finally:
            daemon.stop()

    def test_handler_fault_never_becomes_a_500(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            plan = FaultPlan(seed=7).on(
                "serve.handler", mode="raise", rate=1.0
            )
            with armed(plan):
                for _ in range(3):
                    status, payload = client.try_forecast(SQL_LIGHT)
                    assert status == 503
                    assert payload["error"] == "injected_fault"
        finally:
            daemon.stop()


class TestBatchFaults:
    def test_batch_fault_is_503_not_500_then_recovers(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            plan = FaultPlan(seed=3).on("serve.batch", mode="raise", calls={1})
            with armed(plan):
                status, payload = client.try_forecast(SQL_LIGHT)
                assert status == 503
                assert payload["error"] == "prediction_failed"
                assert "retry_after_s" in payload
                # The poisoned batch is gone; the next one predicts.
                recovered = client.forecast(SQL_LIGHT)
            assert recovered["forecast"]["metrics"]["elapsed_time"] > 0
        finally:
            daemon.stop()

    def test_repeated_batch_faults_open_the_breaker(self, serve_service):
        daemon = start_daemon(serve_service, breaker_failures=2)
        try:
            client = client_for(daemon)
            plan = FaultPlan(seed=3).on("serve.batch", mode="raise", rate=1.0)
            with armed(plan):
                for _ in range(2):
                    status, payload = client.try_forecast(SQL_LIGHT)
                    assert status == 503
                    assert payload["error"] == "prediction_failed"
                # Threshold reached: the breaker now rejects up front,
                # without paying for a doomed batch.
                batches_before = daemon.batcher.stats()["batches"]
                status, payload = client.try_forecast(SQL_LIGHT)
                assert status == 503
                assert payload["error"] == "breaker_open"
                assert payload["breaker"]["state"] == "open"
                assert daemon.batcher.stats()["batches"] == batches_before
            assert daemon.status()["breaker"]["state"] == "open"
        finally:
            daemon.stop()

    def test_breaker_state_visible_at_admin_status(self, serve_service):
        daemon = start_daemon(serve_service, breaker_failures=1)
        try:
            client = client_for(daemon)
            assert client.status()["breaker"]["state"] == "closed"
            plan = FaultPlan(seed=3).on("serve.batch", mode="raise", calls={1})
            with armed(plan):
                status, _ = client.try_forecast(SQL_LIGHT)
            assert status == 503
            breaker = client.status()["breaker"]
            assert breaker["state"] == "open"
            assert breaker["open_count"] == 1
            assert breaker["trip_reason"]
        finally:
            daemon.stop()


class TestChaosLoadDrill:
    def test_faulty_load_is_all_structured_outcomes(
        self, serve_service, load_schedule
    ):
        """With batch faults firing mid-stream, every request still gets
        a structured answer: ok or rejected, never a dropped socket."""
        daemon = start_daemon(serve_service, max_batch=4)
        try:
            schedule = load_schedule(40, seed=11, n_clients=3)
            plan = FaultPlan(seed=5).on("serve.batch", mode="raise", rate=0.3)
            with armed(plan):
                report = run_load(daemon.address, schedule, max_workers=6)
        finally:
            daemon.stop()
        summary = report.summary()
        assert summary["total"] == 40
        assert summary["dropped"] == 0
        assert summary["ok"] + summary["rejected"] == 40
        # The plan really fired — some requests were rejected…
        assert summary["rejected"] > 0
        assert summary["statuses"].get("503", 0) == summary["rejected"]
        # …and the daemon still answers afterwards.
        assert daemon.status()["stopping"] is True


# ----------------------------------------------------------------------
# Self-healing: the supervisor's kill -9 / crash-loop / full-drill suite
# ----------------------------------------------------------------------


def supervised(service, tmp_path, **policy):
    """A supervisor over a daemon factory, journaling into tmp_path."""
    config = ServeConfig(max_batch=4)
    defaults = dict(
        backoff_initial_s=0.01,
        backoff_max_s=0.05,
        health_interval_s=0.02,
        crash_journal=tmp_path / "crash.jsonl",
    )
    defaults.update(policy)
    return Supervisor(
        lambda: PredictionDaemon(service=service, config=config),
        serve_config=config,
        config=SupervisorConfig(**defaults),
    )


def forecast_with_patience(client, sql, attempts=100, pause_s=0.05) -> dict:
    """Forecast through restart gaps: retry structured/transport refusals."""
    last = None
    for _ in range(attempts):
        try:
            return client.forecast(sql)
        except (ServeRejectedError, ServeUnavailableError) as error:
            last = error
            time.sleep(pause_s)
    raise AssertionError(f"daemon never recovered: {last!r}")


class TestSupervisor:
    def test_kill9_restart_reserves_bitwise_identical_forecast(
        self, serve_service, tmp_path
    ):
        """kill -9 on the child is a blip: the supervisor respawns it on
        the same socket and the replacement serves the *same bits*."""
        supervisor = supervised(serve_service, tmp_path)
        host, port = supervisor.start()
        try:
            client = ServeClient(host, port, timeout_s=10.0)
            before = client.forecast(SQL_LIGHT)["forecast"]
            victim = supervisor.child_pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status = supervisor.status()
                if (
                    status["state"] == "running"
                    and status["child_pid"] not in (None, victim)
                ):
                    break
                time.sleep(0.02)
            status = supervisor.status()
            assert status["child_pid"] not in (None, victim), status
            assert supervisor.wait_healthy(5.0)
            after = forecast_with_patience(client, SQL_LIGHT)["forecast"]
            assert after == before  # bitwise-identical re-serve
            assert supervisor.restarts >= 1
        finally:
            supervisor.stop()
        events = [
            json.loads(line)
            for line in (tmp_path / "crash.jsonl").read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        for expected in ("listen", "spawn", "exit", "restart", "stop"):
            assert expected in kinds, kinds
        death = next(e for e in events if e["event"] == "exit")
        assert death["signal"] == signal.SIGKILL
        offsets = [event["offset_s"] for event in events]
        assert offsets == sorted(offsets)  # a replayable timeline

    def test_crash_loop_gives_up_with_journal(self, tmp_path):
        """A deterministically crashing child must not be restarted
        forever: the supervisor gives up loudly and keeps answering
        structured 503s from the parent."""
        journal = tmp_path / "loop.jsonl"

        def bomb():
            raise RuntimeError("child is doomed")

        supervisor = Supervisor(
            bomb,
            serve_config=ServeConfig(),
            config=SupervisorConfig(
                max_restarts=2,
                restart_window_s=30.0,
                backoff_initial_s=0.01,
                backoff_max_s=0.02,
                health_interval_s=0.01,
                crash_journal=journal,
            ),
        )
        with pytest.raises(SupervisorError):
            supervisor.start(wait_healthy_s=10.0)
        try:
            assert supervisor.gave_up
            assert supervisor.status()["state"] == "gave_up"
            assert supervisor.restarts == 2
            # Count the connections the parent accepts and answers (its
            # loop counts one after closing it, so wait for the count).
            entered, accepted = [], []
            respond = supervisor._respond_503_once

            def counting() -> bool:
                entered.append(True)
                answered = respond()
                if answered:
                    accepted.append(True)
                return answered

            def accepts(expected: int) -> int:
                deadline = time.monotonic() + 5.0
                while len(accepted) < expected and time.monotonic() < deadline:
                    time.sleep(0.01)
                return len(accepted)

            supervisor._respond_503_once = counting
            while not entered:  # no uncounted accept is still waiting
                time.sleep(0.01)
            # The address still answers — structurally, not with resets.
            host, port = supervisor.address
            client = ServeClient(host, port, timeout_s=2.0)
            status, payload = client.try_forecast(SQL_LIGHT)
            assert status == 503
            assert payload["error"] == "restarting"
            assert payload["retry_after_s"] > 0
            assert accepts(1) == 1
            # The parent answers ``Connection: close``: the client keeps
            # no connection to it, and dials again for the next call.
            assert client.try_forecast(SQL_LIGHT)[0] == 503
            assert accepts(2) == 2
        finally:
            supervisor.stop()
        events = [
            json.loads(line) for line in journal.read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds.count("exit") == 3  # two restarts, then the last straw
        assert "give_up" in kinds
        deaths = [e for e in events if e["event"] == "exit"]
        assert all(e["exit_code"] == 11 for e in deaths)
        give_up = next(e for e in events if e["event"] == "give_up")
        assert give_up["restarts_in_window"] == 3

    def test_supervisor_fault_site_is_registered(self):
        assert "serve.supervisor" in REGISTERED_SITES
        assert site_registered("serve.supervisor")


class TestSelfHealingDrill:
    def test_chaos_drill_is_fully_structured(
        self, serve_service, load_schedule, tmp_path
    ):
        """The acceptance drill: ``exit`` armed at serve.handler and
        ``hang`` at serve.batch, a 200-request seeded load against the
        supervised daemon.  Every request must end structured (200, 429,
        503 or 504 — never a dropped socket), over-deadline answers are
        504s, and the supervisor must have healed at least one crash.
        """
        supervisor = supervised(
            serve_service,
            tmp_path,
            max_restarts=50,
            restart_window_s=60.0,
        )
        # Armed *before* start so every forked generation inherits the
        # plan: each child crashes at its 25th handler call and wedges
        # on its 2nd batch (the stall outlives the request budgets).
        plan = (
            FaultPlan(seed=13)
            .on("serve.handler", mode="exit", calls={25})
            .on("serve.batch", mode="hang", delay=0.02, calls={2})
        )
        with armed(plan):
            host, port = supervisor.start()
            try:
                report = run_load(
                    (host, port),
                    load_schedule(200, seed=29, n_clients=8),
                    max_workers=8,
                    deadline_ms=400.0,
                    retry_unavailable=5,
                    retry_backoff_s=0.05,
                )
            finally:
                supervisor.stop()
        summary = report.summary()
        assert summary["total"] == 200
        assert summary["dropped"] == 0, summary
        assert report.structured == 200
        assert set(summary["statuses"]) <= {"200", "429", "503", "504"}
        assert summary["ok"] > 0, summary
        # The hang wedged batches past their members' budgets: those
        # answers were 504s, never silently late 200s.
        assert summary["expired"] >= 1, summary
        assert summary["statuses"].get("504", 0) == summary["expired"]
        # The exit fault really killed children, and the supervisor
        # really healed them.
        assert supervisor.restarts >= 1
        events = [
            json.loads(line)
            for line in (tmp_path / "crash.jsonl").read_text().splitlines()
        ]
        crashes = [e for e in events if e["event"] == "exit"]
        assert any(e.get("exit_code") == 13 for e in crashes), crashes
