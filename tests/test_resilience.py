"""Chaos suite for repro.resilience: deterministic fault injection,
retry/backoff, circuit breakers and checkpointed corpus builds.

Every scenario is reproducible: faults fire on schedules that are pure
functions of a seed, retries assert on their computed schedules instead
of sleeping, and breakers run on a fake clock.  The headline guarantee
— a killed build resumes *bitwise-identically* — is asserted with
``np.array_equal``, not tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    CorpusBuildError,
    InjectedFault,
    ParseError,
    ReproError,
    RetryExhaustedError,
)
from repro.experiments.corpus import (
    build_corpus,
    build_fingerprint,
    save_corpus,
)
from repro.pipeline import PredictionPipeline
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BuildJournal,
    CircuitBreaker,
    FaultPlan,
    RetryPolicy,
    armed,
    armed_plan,
    corrupt_array,
    disarm,
    fault_site,
)
from repro.workloads.generator import generate_pool


@pytest.fixture(scope="module")
def small_pool():
    return generate_pool(10, seed=17)


@pytest.fixture(scope="module")
def clean_corpus(tpcds_catalog, config, small_pool):
    """The uninterrupted serial reference every chaos build must match."""
    return build_corpus(tpcds_catalog, config, small_pool, noise_seed=5)


def assert_corpora_identical(a, b):
    assert [q.query_id for q in a.queries] == [q.query_id for q in b.queries]
    assert np.array_equal(a.feature_matrix(), b.feature_matrix())
    assert np.array_equal(a.sql_feature_matrix(), b.sql_feature_matrix())
    assert np.array_equal(a.performance_matrix(), b.performance_matrix())
    assert np.array_equal(a.optimizer_costs(), b.optimizer_costs())


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_rate_schedule_is_deterministic(self):
        def schedule(plan):
            fired = []
            for k in range(200):
                try:
                    plan.check("site", {})
                except InjectedFault:
                    fired.append(k)
            return fired

        first = schedule(FaultPlan(seed=42).on("site", rate=0.1))
        second = schedule(FaultPlan(seed=42).on("site", rate=0.1))
        other_seed = schedule(FaultPlan(seed=43).on("site", rate=0.1))
        assert first == second
        assert first  # ~20 of 200 fire
        assert first != other_seed

    def test_explicit_calls_fire_exactly(self):
        plan = FaultPlan(seed=0).on("s", calls={2, 4})
        outcomes = []
        for _ in range(5):
            try:
                plan.check("s", {})
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("boom")
        assert outcomes == ["ok", "boom", "ok", "boom", "ok"]
        assert plan.fired["s"] == 2

    def test_match_filter_targets_context(self):
        plan = FaultPlan(seed=0).on(
            "s", calls={1, 2, 3}, match={"query_id": "q2"}
        )
        plan.check("s", {"query_id": "q1"})
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("s", {"query_id": "q2"})
        assert excinfo.value.site == "s"
        assert excinfo.value.call_index == 2

    def test_disarmed_site_is_noop(self):
        disarm()
        assert armed_plan() is None
        assert fault_site("anything", query_id="q") is None

    def test_armed_context_restores_previous(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with armed(outer):
            with armed(inner):
                assert armed_plan() is inner
            assert armed_plan() is outer
        assert armed_plan() is None

    def test_delay_mode_sleeps_and_returns(self):
        plan = FaultPlan(seed=0).on("s", mode="delay", calls={1}, delay=0.0)
        assert plan.check("s", {}) is None
        assert plan.fired["s"] == 1

    def test_corrupt_mode_returns_spec_and_nans(self):
        plan = FaultPlan(seed=0).on("s", mode="corrupt", calls={1})
        spec = plan.check("s", {})
        assert spec is not None and spec.mode == "corrupt"
        poisoned = corrupt_array(spec, np.arange(4.0))
        assert np.isnan(poisoned).all()
        clean = corrupt_array(None, np.arange(4.0))
        assert np.array_equal(clean, np.arange(4.0))

    def test_without_modes_strips_exit_faults(self):
        plan = (
            FaultPlan(seed=9)
            .on("a", mode="exit", calls={1})
            .on("a", mode="raise", calls={2})
            .on("b", mode="delay", calls={1})
        )
        stripped = plan.without_modes(("exit",))
        assert [s.mode for s in stripped.specs("a")] == ["raise"]
        assert [s.mode for s in stripped.specs("b")] == ["delay"]
        assert stripped.seed == plan.seed

    def test_plan_round_trips_through_pickle(self):
        import pickle

        plan = FaultPlan(seed=7).on("s", rate=0.5, match={"k": "v"})
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == 7
        assert clone.specs("s")[0].match == {"k": "v"}

    def test_bad_mode_and_rate_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan().on("s", mode="explode")
        with pytest.raises(ReproError):
            FaultPlan().on("s", rate=1.5)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.05, multiplier=2.0,
            max_delay=0.15, jitter=0.1, seed=11,
        )
        schedule = policy.schedule("label")
        assert schedule == policy.schedule("label")
        assert len(schedule) == 3
        for attempt, delay in enumerate(schedule, start=1):
            raw = min(0.05 * 2.0 ** (attempt - 1), 0.15)
            assert raw * 0.9 <= delay <= raw * 1.1
        assert schedule != policy.schedule("other-label")

    def test_retries_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.01, jitter=0.0, sleep=sleeps.append
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedFault("transient")
            return "done"

        assert policy.call(flaky, label="x") == "done"
        assert len(attempts) == 3
        assert sleeps == policy.schedule("x")

    def test_exhaustion_raises_with_chain(self):
        policy = RetryPolicy(
            max_attempts=2, base_delay=0.0, jitter=0.0, sleep=lambda _: None
        )

        def always_fails():
            raise InjectedFault("nope")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always_fails, label="doomed")
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, InjectedFault)

    def test_allowlist_propagates_logic_errors(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _: None)
        calls = []

        def parse_error():
            calls.append(1)
            raise ParseError("syntax")

        with pytest.raises(ParseError):
            policy.call(parse_error)
        assert len(calls) == 1  # never retried

    def test_total_deadline_stops_early(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=100.0, jitter=0.0,
            deadline=1.0, sleep=lambda _: None,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(lambda: (_ for _ in ()).throw(InjectedFault("x")))
        assert "deadline" in str(excinfo.value)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ReproError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_after_threshold_then_recovers(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "b", failure_threshold=3, reset_timeout=10.0, clock=clock
        )
        assert breaker.state == CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

        clock.advance(9.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.trip_reason is None

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "b", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure("first")
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure("probe died")
        assert breaker.state == OPEN
        assert breaker.open_count == 2
        assert breaker.trip_reason == "probe died"

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker("b", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken, never reached 2


# ----------------------------------------------------------------------
# Build journal
# ----------------------------------------------------------------------


class TestBuildJournal:
    def test_record_replay_round_trip(self, tmp_path):
        path = tmp_path / "j.journal"
        with BuildJournal(path, "fp") as journal:
            journal.record("a", {"x": 0.1})
            journal.record("b", {"x": [1.5, float(np.float64(1) / 3)]})
        replayed = BuildJournal(path, "fp").replay()
        assert replayed["a"] == {"x": 0.1}
        assert replayed["b"]["x"][1] == float(np.float64(1) / 3)  # bit-exact

    def test_missing_journal_replays_empty(self, tmp_path):
        assert BuildJournal(tmp_path / "none", "fp").replay() == {}

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.journal"
        with BuildJournal(path, "build-one") as journal:
            journal.record("a", {})
        with pytest.raises(CheckpointError, match="different build"):
            BuildJournal(path, "build-two").replay()

    def test_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "j.journal"
        with BuildJournal(path, "fp") as journal:
            journal.record("a", {"x": 1})
            journal.record("b", {"x": 2})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": "c", "payl')  # crash mid-append
        replayed = BuildJournal(path, "fp").replay()
        assert set(replayed) == {"a", "b"}

    def test_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "j.journal"
        with BuildJournal(path, "fp") as journal:
            journal.record("a", {"x": 1})
            journal.record("b", {"x": 2})
        lines = path.read_text().splitlines()
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt"):
            BuildJournal(path, "fp").replay()

    def test_discard_removes_file(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = BuildJournal(path, "fp")
        journal.record("a", {})
        journal.discard()
        assert not path.exists()


# ----------------------------------------------------------------------
# Resilient corpus builds
# ----------------------------------------------------------------------


class TestResilientCorpusBuild:
    def test_checkpointed_build_matches_plain(
        self, tpcds_catalog, config, small_pool, clean_corpus, tmp_path
    ):
        checkpointed = build_corpus(
            tpcds_catalog, config, small_pool, noise_seed=5,
            checkpoint=tmp_path / "ck.journal",
        )
        assert not (tmp_path / "ck.journal").exists()
        assert_corpora_identical(clean_corpus, checkpointed)

    def test_killed_build_resumes_bitwise_identically(
        self, tpcds_catalog, config, small_pool, clean_corpus, tmp_path
    ):
        checkpoint = tmp_path / "resume.journal"
        plan = FaultPlan(seed=3).on("corpus.execute", mode="raise", calls={7})
        with armed(plan):
            with pytest.raises(InjectedFault):
                build_corpus(
                    tpcds_catalog, config, small_pool, noise_seed=5,
                    checkpoint=checkpoint,
                )
        assert checkpoint.exists()  # journal survives the crash
        completed = BuildJournal(
            checkpoint,
            build_fingerprint(config, small_pool, 5),
        ).replay()
        assert len(completed) == 6  # queries 1-6 landed before the kill

        resumed = build_corpus(
            tpcds_catalog, config, small_pool, noise_seed=5,
            checkpoint=checkpoint,
        )
        assert not checkpoint.exists()
        assert_corpora_identical(clean_corpus, resumed)

    def test_checkpoint_of_other_pool_refused(
        self, tpcds_catalog, config, small_pool, tmp_path
    ):
        checkpoint = tmp_path / "ck.journal"
        plan = FaultPlan(seed=3).on("corpus.execute", mode="raise", calls={4})
        with armed(plan):
            with pytest.raises(InjectedFault):
                build_corpus(
                    tpcds_catalog, config, small_pool, noise_seed=5,
                    checkpoint=checkpoint,
                )
        other_pool = generate_pool(10, seed=99)
        with pytest.raises(CheckpointError):
            build_corpus(
                tpcds_catalog, config, other_pool, noise_seed=5,
                checkpoint=checkpoint,
            )

    def test_serial_retry_absorbs_transient_faults(
        self, tpcds_catalog, config, small_pool, clean_corpus
    ):
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="raise", calls={2, 6}
        )
        retry = RetryPolicy(
            max_attempts=3, base_delay=0.0, jitter=0.0, sleep=lambda _: None
        )
        with armed(plan):
            rebuilt = build_corpus(
                tpcds_catalog, config, small_pool, noise_seed=5, retry=retry
            )
        assert plan.fired["corpus.execute"] == 2
        assert_corpora_identical(clean_corpus, rebuilt)

    def test_serial_retry_exhaustion_propagates(
        self, tpcds_catalog, config, small_pool
    ):
        plan = FaultPlan(seed=3).on("corpus.execute", mode="raise", rate=1.0)
        retry = RetryPolicy(
            max_attempts=2, base_delay=0.0, jitter=0.0, sleep=lambda _: None
        )
        with armed(plan):
            with pytest.raises(RetryExhaustedError):
                build_corpus(
                    tpcds_catalog, config, small_pool, noise_seed=5,
                    retry=retry,
                )


class TestParallelResilience:
    def test_plain_parallel_crash_names_query(
        self, tpcds_catalog, config, small_pool
    ):
        target = small_pool[3].query_id
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="exit",
            calls=set(range(1, len(small_pool) + 1)),
            match={"query_id": target},
        )
        with armed(plan):
            with pytest.raises(CorpusBuildError) as excinfo:
                build_corpus(
                    tpcds_catalog, config, small_pool, noise_seed=5, jobs=2
                )
        assert excinfo.value.query_id is not None
        assert "retry=RetryPolicy" in str(excinfo.value)

    def test_pool_rebuild_absorbs_worker_crash(
        self, tpcds_catalog, config, small_pool, clean_corpus
    ):
        target = small_pool[4].query_id
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="exit",
            calls=set(range(1, len(small_pool) + 1)),
            match={"query_id": target},
        )
        retry = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with armed(plan):
            rebuilt = build_corpus(
                tpcds_catalog, config, small_pool, noise_seed=5, jobs=2,
                retry=retry,
            )
        assert_corpora_identical(clean_corpus, rebuilt)

    def test_parallel_checkpoint_matches_plain(
        self, tpcds_catalog, config, small_pool, clean_corpus, tmp_path
    ):
        rebuilt = build_corpus(
            tpcds_catalog, config, small_pool, noise_seed=5, jobs=2,
            checkpoint=tmp_path / "par.journal",
        )
        assert not (tmp_path / "par.journal").exists()
        assert_corpora_identical(clean_corpus, rebuilt)


# ----------------------------------------------------------------------
# Atomic artifact writes
# ----------------------------------------------------------------------


class TestAtomicArtifacts:
    def test_failed_write_preserves_previous_artifact(
        self, mini_corpus, tmp_path
    ):
        features = mini_corpus.feature_matrix()
        performance = mini_corpus.performance_matrix()
        pipeline = PredictionPipeline()
        pipeline.fit(features, performance, mini_corpus.optimizer_costs())
        path = tmp_path / "model.npz"
        pipeline.save(path)
        before = path.read_bytes()

        plan = FaultPlan(seed=1).on("artifact.write", mode="raise", rate=1.0)
        with armed(plan):
            with pytest.raises(InjectedFault):
                pipeline.save(path)
        assert path.read_bytes() == before  # old artifact untouched
        assert not list(tmp_path.glob("*.tmp*"))  # no temp litter

        reloaded = PredictionPipeline.load(path)
        assert np.array_equal(
            pipeline.predict(features[:3]), reloaded.predict(features[:3])
        )

    def test_read_fault_site_is_armed(self, mini_corpus, tmp_path):
        pipeline = PredictionPipeline()
        pipeline.fit(
            mini_corpus.feature_matrix(), mini_corpus.performance_matrix()
        )
        path = tmp_path / "model.npz"
        pipeline.save(path)
        plan = FaultPlan(seed=1).on("artifact.read", mode="raise", rate=1.0)
        with armed(plan):
            with pytest.raises(InjectedFault):
                PredictionPipeline.load(path)

    def test_save_corpus_is_atomic(self, clean_corpus, tmp_path):
        from repro.experiments.corpus import load_corpus

        path = tmp_path / "corpus.npz"
        save_corpus(clean_corpus, path)
        reloaded = load_corpus(path)
        assert_corpora_identical(clean_corpus, reloaded)
        assert not list(tmp_path.glob("*.tmp*"))


# ----------------------------------------------------------------------
# The off-by-default contract
# ----------------------------------------------------------------------


class TestOffByDefault:
    def test_disarmed_sites_leave_corpus_unchanged(
        self, tpcds_catalog, config, small_pool, clean_corpus
    ):
        disarm()
        rebuilt = build_corpus(tpcds_catalog, config, small_pool, noise_seed=5)
        assert_corpora_identical(clean_corpus, rebuilt)

    def test_corrupt_fault_poisons_measurements(
        self, tpcds_catalog, config, small_pool
    ):
        plan = FaultPlan(seed=3).on(
            "corpus.execute", mode="corrupt", calls={2}
        )
        with armed(plan):
            corpus = build_corpus(
                tpcds_catalog, config, small_pool, noise_seed=5
            )
        performance = corpus.performance_matrix()
        assert np.isnan(performance[1]).all()  # the corrupted query
        assert np.isfinite(performance[0]).all()
        assert np.isfinite(performance[2:]).all()
