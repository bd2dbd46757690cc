"""Deadline budgets and the tiered degradation ladder.

Unit drills for the two quality levers the self-healing serving stack
pulls before it ever drops a request:

* :class:`~repro.resilience.deadline.Deadline` — monotonic budgets with
  per-stage accounting and cooperative cancellation.  A spent budget is
  a structured :class:`~repro.errors.DeadlineExceededError` (the daemon
  maps it to 504), never a silently late answer and never a partially
  computed one.
* :class:`~repro.serve.degrade.DegradeController` — the hysteretic tier
  ladder.  Transitions are a deterministic function of the injectable
  clock and the fed pressure signals, so every test here drives them
  with a fake clock; the live-daemon drill at the bottom pushes a real
  daemon down the ladder under load and watches it climb back.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlineExceededError, ServeRejectedError
from repro.obs.seam import stage
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.resilience.faults import FaultPlan, armed
from repro.serve import PredictionDaemon, ServeConfig
from repro.serve.batcher import ForecastRequest, MicroBatcher
from repro.serve.degrade import MAX_TIER, TIER_NAMES, DegradeController

from tests.test_serve import (
    SQL_JOIN,
    SQL_LIGHT,
    client_for,
    fresh_light,
    start_daemon,
    train_artifact,
)


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
# DegradeController: the hysteretic ladder under a fake clock
# ----------------------------------------------------------------------


def controller(clock, **overrides) -> DegradeController:
    defaults = dict(
        queue_depth=8,
        slo_p99_ms=None,
        down_after_s=0.25,
        up_after_s=1.0,
        clock=clock,
    )
    defaults.update(overrides)
    return DegradeController(**defaults)


class TestDegradeLadder:
    def test_starts_at_full_service(self):
        ladder = controller(FakeClock())
        assert ladder.tier == 0
        assert ladder.tier_name == "full"
        assert TIER_NAMES[MAX_TIER] == "stale"

    def test_step_down_requires_sustained_pressure(self):
        clock = FakeClock()
        ladder = controller(clock)
        assert ladder.evaluate(queue_depth=20) == 0  # opens the window
        clock.advance(0.1)
        assert ladder.evaluate(queue_depth=20) == 0  # not sustained yet
        clock.advance(0.2)
        assert ladder.evaluate(queue_depth=20) == 1  # 0.3s >= down_after_s
        assert ladder.step_downs == 1
        assert ladder.last_reason == "queue_depth"

    def test_walks_the_three_tiers_down_and_back(self):
        clock = FakeClock()
        ladder = controller(clock)
        seen = [ladder.tier_name]
        ladder.evaluate(queue_depth=20)
        clock.advance(0.3)
        ladder.evaluate(queue_depth=20)
        seen.append(ladder.tier_name)
        ladder.evaluate(queue_depth=0)
        clock.advance(1.1)
        ladder.evaluate(queue_depth=0)
        seen.append(ladder.tier_name)
        assert seen == ["full", "stale", "full"]
        assert TIER_NAMES == ("full", "stale")
        assert [(t["from"], t["to"]) for t in ladder.transitions] == [
            (0, 1), (1, 0)
        ]

    def test_ladder_moves_one_tier_at_a_time(self):
        clock = FakeClock()
        ladder = controller(clock)
        ladder.evaluate(queue_depth=20)
        for _ in range(6):
            clock.advance(0.3)
            ladder.evaluate(queue_depth=20)
        # Six sustained windows but only MAX_TIER steps are possible,
        # and each step restarted the window: never a two-tier jump.
        assert ladder.tier == MAX_TIER
        assert all(
            abs(t["to"] - t["from"]) == 1 for t in ladder.transitions
        )

    def test_calm_interruption_restarts_the_down_window(self):
        clock = FakeClock()
        ladder = controller(clock)
        ladder.evaluate(queue_depth=20)
        clock.advance(0.2)
        ladder.evaluate(queue_depth=0)  # pressure cleared: window resets
        clock.advance(0.2)
        ladder.evaluate(queue_depth=20)  # a fresh window opens here
        clock.advance(0.2)
        assert ladder.evaluate(queue_depth=20) == 0
        clock.advance(0.1)
        assert ladder.evaluate(queue_depth=20) == 1

    def test_step_up_is_deliberately_slower(self):
        clock = FakeClock()
        ladder = controller(clock)
        ladder.evaluate(queue_depth=20)
        clock.advance(0.3)
        assert ladder.evaluate(queue_depth=20) == 1
        ladder.evaluate(queue_depth=0)  # calm window opens
        clock.advance(0.5)
        assert ladder.evaluate(queue_depth=0) == 1  # < up_after_s
        clock.advance(0.6)
        assert ladder.evaluate(queue_depth=0) == 0  # 1.1s of calm
        assert ladder.step_ups == 1
        # …and it never climbs above full service.
        clock.advance(2.0)
        assert ladder.evaluate(queue_depth=0) == 0

    def test_breaker_signal_outranks_queue_depth(self):
        clock = FakeClock()
        ladder = controller(clock)
        ladder.evaluate(queue_depth=20, breaker_open=True)
        clock.advance(0.3)
        ladder.evaluate(queue_depth=20, breaker_open=True)
        assert ladder.tier == 1
        assert ladder.last_reason == "breaker_open"

    def test_p99_slo_signal(self):
        clock = FakeClock()
        ladder = controller(clock, slo_p99_ms=100.0)
        ladder.evaluate(queue_depth=0, p99_ms=160.0)  # > 100 * 1.5
        clock.advance(0.3)
        assert ladder.evaluate(queue_depth=0, p99_ms=160.0) == 1
        assert ladder.last_reason == "p99_slo"
        # Below the factored threshold the same signal counts as calm.
        ladder2 = controller(clock, slo_p99_ms=100.0)
        ladder2.evaluate(queue_depth=0, p99_ms=140.0)
        clock.advance(0.3)
        assert ladder2.evaluate(queue_depth=0, p99_ms=140.0) == 0

    def test_force_tier_pins_the_ladder(self):
        clock = FakeClock()
        ladder = controller(clock, force_tier=MAX_TIER)
        assert ladder.tier == MAX_TIER
        clock.advance(10.0)
        assert ladder.evaluate(queue_depth=0) == MAX_TIER
        assert ladder.evaluate(queue_depth=999, breaker_open=True) == MAX_TIER
        assert ladder.step_downs == 0 and ladder.step_ups == 0

    @pytest.mark.parametrize("tier,stale", [(0, False), (MAX_TIER, True)])
    def test_tier_effects(self, tier, stale):
        ladder = controller(FakeClock(), force_tier=tier)
        assert ladder.stale_ok() is stale

    def test_transitions_are_recorded_for_postmortems(self):
        clock = FakeClock()
        ladder = controller(clock)
        ladder.evaluate(queue_depth=20)
        clock.advance(0.3)
        ladder.evaluate(queue_depth=20)
        ladder.evaluate(queue_depth=0)
        clock.advance(1.1)
        ladder.evaluate(queue_depth=0)
        assert [(t["from"], t["to"], t["reason"]) for t in ladder.transitions] == [
            (0, 1, "queue_depth"),
            (1, 0, "calm"),
        ]
        status = ladder.status()
        assert status["step_downs"] == 1 and status["step_ups"] == 1
        assert status["tier_name"] == "full"
        assert status["hysteresis"]["up_after_s"] > status["hysteresis"][
            "down_after_s"
        ]


# ----------------------------------------------------------------------
# Daemon integration: 504 semantics, tier effects, the live ladder
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


class TestDegradedServing:
    def test_forced_tier_2_answers_repeats_from_stale_cache(
        self, serve_service
    ):
        daemon = start_daemon(
            serve_service, degrade=True, degrade_force_tier=MAX_TIER
        )
        # The memo is the (session-wide) service's, not the daemon's:
        # statements of this test's own, so the first one is a miss.
        sql = SQL_LIGHT.replace("> 30", "> 33")
        try:
            client = client_for(daemon)
            fresh = client.forecast(sql)  # miss: real pipeline
            assert fresh.get("stale") is None
            repeat = client.forecast(sql)
            assert repeat["served_by"] == "stale_cache"
            assert repeat["stale"] is True
            assert repeat["degrade_tier"] == MAX_TIER
            # Admitted like any other answer, and it says so.
            assert repeat["weight_class"] == fresh["weight_class"]
            assert repeat["predicted_seconds"] == fresh["predicted_seconds"]
            # Bitwise the same forecast the pipeline produced.
            assert repeat["forecast"] == fresh["forecast"]
            # A statement never seen still goes through the pipeline.
            other = client.forecast(SQL_JOIN.replace("total", "total_33"))
            assert other["served_by"] != "stale_cache"
            # All or nothing: one unseen statement in a batch and the
            # whole request is computed, the seen one included.
            mixed = client.forecast_batch([sql, sql.replace("> 33", "> 34")])
            assert mixed.get("stale") is None
            assert mixed["forecasts"][0] == fresh["forecast"]
            status = daemon.status()
            assert status["memo"]["hits"] >= 1
            assert status["requests"]["served_stale"] == 1
        finally:
            daemon.stop()

    @pytest.mark.parametrize(
        "knobs,literal,statuses,error",
        [
            (
                dict(quota_rate=1e-6, quota_burst=1e-6),
                36, [200, 429], "quota_exhausted",
            ),
            (
                dict(heavy_seconds=1e-9, shed_inflight=0),
                37, [503, 503], "shed_heavy",
            ),
        ],
        ids=["over_quota", "bowling_ball"],
    )
    def test_a_stale_answer_is_admitted_like_any_other(
        self, serve_service, knobs, literal, statuses, error
    ):
        """The stale tier skips the batch, not the admission review: a
        client over its quota, or a bowling ball while the daemon is busy,
        is refused a held statement as it would be a computed one."""
        daemon = start_daemon(
            serve_service, degrade=True, degrade_force_tier=MAX_TIER, **knobs
        )
        sql = SQL_LIGHT.replace("> 30", f"> {literal}")
        try:
            client = client_for(daemon)
            first = client.try_forecast(sql)
            # Refused or not, the first answer was computed and is held.
            assert serve_service.held_forecasts([sql])[0] is not None
            repeat = client.try_forecast(sql)
            assert [first[0], repeat[0]] == statuses
            assert repeat[1]["error"] == error
            assert repeat[1]["admission"]["admitted"] is False
            assert daemon.status()["requests"]["served_stale"] == 0
        finally:
            daemon.stop()

    def test_forecast_at_full_service_is_served_stale_at_tier_2(
        self, serve_service
    ):
        """The pressure valve holds what the daemon forecast *before* the
        pressure: a statement seen at tier 0 is a tier-2 hit."""
        daemon = start_daemon(
            serve_service,
            degrade=True,
            degrade_down_after_s=0.0,
            degrade_up_after_s=3600.0,
        )
        sql = SQL_LIGHT.replace("> 30", "> 35")
        try:
            client = client_for(daemon)
            fresh = client.forecast(sql)
            assert fresh["degrade_tier"] == 0 and fresh.get("stale") is None
            # Sustained pressure: one observation opens the window, each
            # further one steps the ladder down a tier.
            for _ in range(MAX_TIER + 1):
                daemon.degrade.evaluate(queue_depth=10**6)
            assert daemon.status()["degrade"]["step_downs"] == MAX_TIER
            repeat = client.forecast(sql)
            assert repeat["degrade_tier"] == MAX_TIER
            assert repeat["served_by"] == "stale_cache" and repeat["stale"] is True
            assert repeat["forecast"] == fresh["forecast"]
            assert daemon.status()["requests"]["served_stale"] == 1
        finally:
            daemon.stop()

    def test_stepping_down_replans_nothing(self, serve_service, monkeypatch):
        """The tier is not part of the memo's key: what full service
        forecast, the stale tier answers, so the first step under
        pressure does not send every hot statement through the optimizer
        (every compile of a text starts by taking its shape)."""
        import repro.optimizer.optimizer as optimizer_module

        daemon = start_daemon(
            serve_service,
            degrade=True,
            degrade_down_after_s=0.0,
            degrade_up_after_s=3600.0,
        )
        sqls = [SQL_LIGHT.replace("> 30", f"> {40 + n}") for n in range(5)]
        try:
            client = client_for(daemon)
            for sql in sqls:
                assert client.forecast(sql)["degrade_tier"] == 0
            calls = []
            shape = optimizer_module.shape
            optimize = optimizer_module.Optimizer.optimize
            monkeypatch.setattr(
                optimizer_module, "shape",
                lambda text: calls.append("shape") or shape(text),
            )
            monkeypatch.setattr(
                optimizer_module.Optimizer, "optimize",
                lambda self, *args, **kwargs: (
                    calls.append("optimize") or optimize(self, *args, **kwargs)
                ),
            )
            for _ in range(2):
                daemon.degrade.evaluate(queue_depth=10**6)
            for sql in sqls:
                payload = client.forecast(sql)
                assert payload["degrade_tier"] == MAX_TIER
                assert payload["stale"] is True
            assert calls == []
        finally:
            daemon.stop()

    def test_tier_2_answer_does_not_outlive_its_model(
        self, tmp_path, tpcds_catalog, config, mini_corpus
    ):
        """The memo is the service's: after a reload to different bytes
        a repeat is computed by the new model, not served from the old."""
        path_a, _ = train_artifact(
            tmp_path, "a.npz", tpcds_catalog, config, mini_corpus
        )
        path_b, _ = train_artifact(
            tmp_path, "b.npz", tpcds_catalog, config, mini_corpus,
            k_neighbors=5,
        )
        daemon = PredictionDaemon(
            artifact=path_a,
            config=ServeConfig(
                max_batch=4, degrade=True, degrade_force_tier=MAX_TIER
            ),
        )
        daemon.start()
        try:
            client = client_for(daemon)
            client.forecast(SQL_JOIN)
            assert client.forecast(SQL_JOIN)["stale"] is True
            version_b = client.reload(str(path_b))["model_version"]
            assert daemon.status()["memo"]["size"] == 0
            after = client.forecast(SQL_JOIN)
            assert after.get("stale") is None
            assert after["model_version"] == version_b
            repeat = client.forecast(SQL_JOIN)
            assert repeat["stale"] is True
            assert repeat["model_version"] == version_b
            assert repeat["forecast"] == after["forecast"]
        finally:
            daemon.stop()

    def test_live_ladder_steps_down_under_load_and_back_up(
        self, serve_service
    ):
        """The acceptance ladder drill: slow batches + concurrent load
        push a real daemon down the ladder; draining the pressure walks
        it back to full service."""
        daemon = start_daemon(
            serve_service,
            max_batch=2,
            degrade=True,
            degrade_queue_depth=2,
            degrade_down_after_s=0.02,
            degrade_up_after_s=0.05,
        )
        try:
            client = client_for(daemon)
            tiers: list[int] = []
            tier_lock = threading.Lock()

            def worker():
                for _ in range(8):
                    status, payload = client.try_forecast(fresh_light())
                    if status == 200:
                        with tier_lock:
                            tiers.append(payload["degrade_tier"])

            plan = FaultPlan(seed=9).on(
                "serve.batch", mode="delay", delay=0.03, rate=1.0
            )
            with armed(plan):
                threads = [threading.Thread(target=worker) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            degrade = daemon.status()["degrade"]
            assert degrade["step_downs"] >= 1
            assert max(tiers) >= 1  # responses said so, not just metrics
            # Pressure is gone: trickle requests until the ladder is
            # back at full service (each request feeds an observation).
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                client.forecast(SQL_LIGHT)
                if daemon.status()["degrade"]["tier"] == 0:
                    break
                time.sleep(0.03)
            degrade = daemon.status()["degrade"]
            assert degrade["tier"] == 0
            assert degrade["step_ups"] >= 1
        finally:
            daemon.stop()
