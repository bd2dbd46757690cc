"""Deadline budgets: the unit drills and the daemon's 504 semantics.

:class:`~repro.resilience.deadline.Deadline` — monotonic budgets with
per-stage accounting and cooperative cancellation.  A spent budget is a
structured :class:`~repro.errors.DeadlineExceededError` (the daemon maps
it to 504), never a silently late answer and never a partially computed
one.  The unit drills drive a fake clock; the serving drills run a live
daemon on a real socket.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeadlineExceededError, ServeRejectedError
from repro.obs.seam import stage
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.resilience.faults import FaultPlan, armed
from repro.serve.batcher import ForecastRequest, MicroBatcher

from tests.test_serve import SQL_LIGHT, client_for, start_daemon


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Deadline: budgets, expiry, per-stage accounting
# ----------------------------------------------------------------------


class TestDeadline:
    def test_budget_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=1.0, clock=clock)
        assert deadline.budget_ms == 1000.0
        assert deadline.remaining_s() == 1.0
        assert not deadline.expired()
        clock.advance(0.4)
        assert deadline.elapsed_s() == pytest.approx(0.4)
        assert deadline.remaining_s() == pytest.approx(0.6)
        clock.advance(0.6)
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0

    def test_check_raises_structured_error(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=0.25, clock=clock)
        deadline.check("optimize")  # within budget: no raise
        clock.advance(0.3)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("optimize")
        error = excinfo.value
        assert error.stage == "optimize"
        assert error.budget_ms == pytest.approx(250.0)
        assert error.elapsed_ms == pytest.approx(300.0)

    def test_unbounded_deadline_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=None, clock=clock)
        clock.advance(1e6)
        assert not deadline.expired()
        assert deadline.remaining_s() == float("inf")
        deadline.check("predict")  # no raise

    def test_after_ms_constructor(self):
        assert Deadline.after_ms(250.0).budget_ms == pytest.approx(250.0)
        assert Deadline.after_ms(None).budget_s is None

    def test_negative_budget_clamps_to_spent(self):
        deadline = Deadline(budget_s=-1.0, clock=FakeClock())
        assert deadline.budget_s == 0.0
        assert deadline.expired()

    def test_stage_scope_accounts_wall_time(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=10.0, clock=clock)
        with deadline_scope(deadline):
            with stage("optimizer.optimize"):
                clock.advance(0.002)
            with stage("pipeline.score_many"):
                clock.advance(0.005)
            with stage("pipeline.score_many"):
                clock.advance(0.001)
        assert deadline.stage_ms["optimize"] == pytest.approx(2.0)
        assert deadline.stage_ms["predict"] == pytest.approx(6.0)
        payload = deadline.to_payload()
        assert payload["budget_ms"] == 10000.0
        assert list(payload["stage_ms"]) == ["optimize", "predict"]

    def test_stage_checks_on_entry(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=0.1, clock=clock)
        clock.advance(0.2)
        entered = False
        with deadline_scope(deadline), pytest.raises(DeadlineExceededError):
            with stage("api.featurize"):
                entered = True
        assert not entered  # cancelled before any stage work ran
        assert deadline.stage_ms == {}

    def test_thread_local_scope_nests_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(budget_s=1.0, clock=FakeClock())
        inner = Deadline(budget_s=2.0, clock=FakeClock())
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_check_deadline_is_noop_without_scope(self):
        with stage("optimizer.optimize"):  # no deadline installed: silent
            pass

    def test_check_deadline_raises_inside_scope(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=0.05, clock=clock)
        clock.advance(0.1)
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError) as spent:
                with stage("api.featurize"):
                    pass
        assert spent.value.stage == "featurize"

    def test_stage_scope_helper_accounts_current_deadline(self):
        clock = FakeClock()
        deadline = Deadline(budget_s=1.0, clock=clock)
        with stage("pipeline.score_many"):
            pass  # passthrough with no deadline installed
        with deadline_scope(deadline):
            with stage("pipeline.score_many"):
                clock.advance(0.004)
        assert deadline.stage_ms["predict"] == pytest.approx(4.0)

    def test_every_co_batched_member_is_charged_the_batch_stages(self):
        """One batch, one reading per stage, charged to each member — not
        only to the loosest, whose budget the batch still expires with."""
        clock = FakeClock()
        installed = []

        def predict(sqls):
            installed.append(current_deadline().remaining_s())
            with stage("optimizer.optimize"):
                clock.advance(0.002)
            with stage("pipeline.score_many"):
                clock.advance(0.003)
            return sqls

        tight = ForecastRequest(
            ["a"], "x", Deadline(budget_s=1.0, clock=clock), clock()
        )
        loose = ForecastRequest(
            ["b"], "y", Deadline(budget_s=5.0, clock=clock), clock()
        )
        clock.advance(0.001)
        MicroBatcher(predict, clock=clock)._run_batch([tight, loose])
        assert installed == [pytest.approx(loose.deadline.remaining_s() + 0.005)]
        for pending in (tight, loose):
            assert pending.results == pending.sqls
            assert pending.deadline.stage_ms == pytest.approx(
                {"queue": 1.0, "optimize": 2.0, "predict": 3.0}
            )

    def test_scope_is_thread_local(self):
        deadline = Deadline(budget_s=1.0, clock=FakeClock())
        seen = {}

        def probe():
            seen["other_thread"] = current_deadline()

        with deadline_scope(deadline):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other_thread"] is None


# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Daemon integration: 504 semantics
# ----------------------------------------------------------------------


class TestDeadlineServing:
    def test_spent_budget_is_504_with_no_forecast(self, serve_service):
        """An expired deadline is a structured 504 that carries *no*
        partially computed forecast — late work is abandoned, not
        half-shipped."""
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            status, payload = client.try_forecast(SQL_LIGHT, deadline_ms=0.001)
            assert status == 504
            assert payload["error"] == "deadline_exceeded"
            assert payload["stage"]
            assert payload["budget_ms"] == pytest.approx(0.001)
            assert "forecast" not in payload and "forecasts" not in payload
            assert daemon.status()["requests"]["expired"] == 1
        finally:
            daemon.stop()

    def test_client_raises_typed_504(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            with pytest.raises(ServeRejectedError) as excinfo:
                client.forecast(SQL_LIGHT, deadline_ms=0.001)
            assert excinfo.value.status == 504
            assert excinfo.value.payload["error"] == "deadline_exceeded"
        finally:
            daemon.stop()

    def test_generous_budget_reports_stage_accounting(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            payload = client.forecast(SQL_LIGHT, deadline_ms=30000.0)
            deadline = payload["deadline"]
            assert deadline["budget_ms"] == 30000.0
            assert deadline["elapsed_ms"] < 30000.0
            assert deadline["stage_ms"]  # at least one stage charged
            status = daemon.status()["deadline"]
            assert status["stage_ms"]
        finally:
            daemon.stop()

    def test_default_deadline_ms_applies_to_bare_requests(self, serve_service):
        daemon = start_daemon(serve_service, default_deadline_ms=30000.0)
        try:
            client = client_for(daemon)
            payload = client.forecast(SQL_LIGHT)
            assert payload["deadline"]["budget_ms"] == 30000.0
        finally:
            daemon.stop()

    def test_bad_deadline_ms_is_a_400(self, serve_service):
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            for bogus in (-5, 0, "soon", True):
                status, payload = client.try_forecast(
                    SQL_LIGHT, deadline_ms=bogus
                )
                assert status == 400, bogus
                assert payload["error"] == "bad_request"
        finally:
            daemon.stop()

    def test_hang_fault_with_budget_becomes_504_then_recovers(
        self, serve_service
    ):
        """A wedged batch under a deadline surfaces as a structured 504
        (cooperative cancellation), and the daemon keeps serving."""
        daemon = start_daemon(serve_service)
        try:
            client = client_for(daemon)
            plan = FaultPlan(seed=5).on(
                "serve.batch", mode="hang", delay=0.05, calls={1}
            )
            with armed(plan):
                status, payload = client.try_forecast(
                    SQL_LIGHT, deadline_ms=200.0
                )
            assert status == 504
            assert payload["error"] == "deadline_exceeded"
            # The stall is over; the next request is served normally.
            recovered = client.forecast(SQL_LIGHT, deadline_ms=30000.0)
            assert recovered["forecast"]["metrics"]["elapsed_time"] > 0
        finally:
            daemon.stop()
