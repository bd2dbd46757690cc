"""Observability layer tests: tracing spans, metrics, drift monitoring.

Covers span nesting and exception capture, the worker-merge path
through a real ``jobs=2`` corpus build, histogram quantiles and the
Prometheus text export, the no-op fast path, the drift-flag flip +
recovery cycle, the end-to-end requirement that a single traced
``forecast`` emits optimize / featurize / project / knn spans, and that
a stage's span, deadline charge and histogram are one clock reading.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.api import QueryPerformancePredictor
from repro.core.online import OnlinePredictor
from repro.engine.metrics import METRIC_NAMES
from repro.errors import ModelError, ReproError
from repro.experiments.corpus import build_corpus
from repro.obs.drift import DriftMonitor, relative_errors
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.seam import STAGES, StageRow
from repro.resilience.deadline import Deadline, deadline_scope
from repro.workloads.generator import generate_pool


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    obs.disable_tracing()
    obs.disable_metrics()
    obs.reset_trace()
    obs.reset_metrics()
    yield
    obs.disable_tracing()
    obs.disable_metrics()
    obs.reset_trace()
    obs.reset_metrics()


# ----------------------------------------------------------------------
# Tracing spans
# ----------------------------------------------------------------------


class TestSpans:
    def test_nesting_builds_a_tree(self):
        obs.enable_tracing()
        with obs.stage("outer", n=2):
            with obs.stage("inner.a"):
                pass
            with obs.stage("inner.b"):
                with obs.stage("leaf"):
                    pass
        roots = obs.trace_roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert outer.attributes == {"n": 2}
        assert outer.wall_ms >= 0.0

    def test_walk_yields_depth_first(self):
        obs.enable_tracing()
        with obs.stage("a"):
            with obs.stage("b"):
                with obs.stage("c"):
                    pass
            with obs.stage("d"):
                pass
        (root,) = obs.trace_roots()
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_exception_marks_span_and_propagates(self):
        obs.enable_tracing()
        with pytest.raises(ValueError, match="boom"):
            with obs.stage("failing"):
                raise ValueError("boom")
        (root,) = obs.trace_roots()
        assert root.status == "error"
        assert root.error == "ValueError: boom"

    def test_set_attaches_attributes(self):
        obs.enable_tracing()
        with obs.stage("s") as current:
            current.set(rows=10, kind="scan")
        (root,) = obs.trace_roots()
        assert root.attributes == {"rows": 10, "kind": "scan"}

    def test_export_round_trips_through_dicts(self):
        obs.enable_tracing()
        with obs.stage("parent", n=1):
            with obs.stage("child"):
                pass
        payload = obs.export_trace(drain=True)
        assert obs.trace_roots() == []
        json.dumps(payload)  # must be JSON-able
        rebuilt = obs.Span.from_dict(payload[0])
        assert rebuilt.name == "parent"
        assert rebuilt.attributes == {"n": 1}
        assert [c.name for c in rebuilt.children] == ["child"]

    def test_attach_spans_grafts_into_open_span(self):
        obs.enable_tracing()
        payload = [{"name": "worker.span", "wall_ms": 1.0, "cpu_ms": 0.5}]
        with obs.stage("parent"):
            obs.attach_spans(payload)
        (root,) = obs.trace_roots()
        assert [c.name for c in root.children] == ["worker.span"]

    def test_attach_spans_without_open_span_becomes_root(self):
        obs.enable_tracing()
        obs.attach_spans([{"name": "orphan"}])
        assert [r.name for r in obs.trace_roots()] == ["orphan"]

    def test_noop_when_disabled(self):
        with obs.stage("ignored") as current:
            current.set(anything=1)
        assert obs.trace_roots() == []
        # The disabled path hands back one shared object — no allocation.
        assert obs.stage("a") is obs.stage("b")
        obs.attach_spans([{"name": "dropped"}])
        assert obs.trace_roots() == []

    def test_pretty_trace_renders_names_and_errors(self):
        obs.enable_tracing()
        with obs.stage("fine", n=3):
            pass
        with pytest.raises(RuntimeError):
            with obs.stage("broken"):
                raise RuntimeError("nope")
        rendering = obs.pretty_trace()
        assert "fine" in rendering and '"n": 3' in rendering
        assert "RuntimeError: nope" in rendering


class TestWorkerMerge:
    def test_parallel_corpus_build_merges_worker_spans(
        self, tpcds_catalog, config
    ):
        pool = generate_pool(8, seed=11)
        serial = build_corpus(tpcds_catalog, config, pool, jobs=1)
        obs.enable_tracing()
        parallel = build_corpus(tpcds_catalog, config, pool, jobs=2)
        (root,) = obs.drain_trace()
        # Observability must not perturb the measurement.
        assert np.array_equal(
            serial.performance_matrix(), parallel.performance_matrix()
        )
        assert root.name == "corpus.build"
        executes = [c for c in root.children if c.name == "corpus.execute"]
        assert len(executes) == len(pool)
        descendant_names = {s.name for c in executes for s in c.walk()}
        assert "optimizer.optimize" in descendant_names
        assert "engine.execute" in descendant_names

    def test_serial_build_traces_the_same_shape(self, tpcds_catalog, config):
        pool = generate_pool(4, seed=11)
        obs.enable_tracing()
        build_corpus(tpcds_catalog, config, pool, jobs=1)
        (root,) = obs.drain_trace()
        assert root.name == "corpus.build"
        assert sum(
            1 for c in root.children if c.name == "corpus.execute"
        ) == len(pool)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ReproError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_quantiles_interpolate(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.5, 3.0, 6.0, 7.0):
            hist.observe(value)
        assert hist.count == 6
        assert hist.sum == pytest.approx(19.5)
        p50 = hist.quantile(0.50)
        assert 1.0 <= p50 <= 2.0  # median falls in the (1, 2] bucket
        p99 = hist.quantile(0.99)
        assert 4.0 <= p99 <= 7.0  # clamped to the observed max
        assert hist.quantile(1.0) <= 7.0

    def test_histogram_empty_quantile_is_nan(self):
        hist = Histogram("h")
        assert np.isnan(hist.quantile(0.5))
        assert np.isnan(hist.percentiles()["p95"])

    def test_histogram_single_value_quantiles_exact(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == pytest.approx(3.0)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_histogram_quantile_range_checked(self):
        with pytest.raises(ReproError):
            Histogram("h").quantile(1.5)


class TestRegistry:
    def test_get_or_create_shares_instances(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ReproError, match="already registered"):
            registry.gauge("a")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2.0}
        assert snap["g"] == {"type": "gauge", "value": 1.5}
        assert snap["h"]["count"] == 1
        assert snap["h"]["p50"] == pytest.approx(0.5)

    def test_prometheus_text_export(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total", "queries scored").inc(3)
        hist = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP repro_queries_total queries scored" in text
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 3" in text
        # Buckets are cumulative, with a closing +Inf.
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_lat_seconds_count 3" in text

    def test_timed_records_only_when_enabled(self, monkeypatch):
        monkeypatch.setitem(
            STAGES, "t.stage",
            StageRow(histogram="repro_t_seconds", counter="repro_t_total"),
        )
        with obs.stage("t.stage"):
            pass
        assert obs.get_registry().names() == []
        obs.enable_metrics()
        with obs.stage("t.stage", n=4):
            pass
        snap = obs.metrics_snapshot()
        assert snap["repro_t_seconds"]["count"] == 1
        assert snap["repro_t_total"]["value"] == 4.0

    def test_timed_skips_counter_on_exception(self, monkeypatch):
        monkeypatch.setitem(
            STAGES, "t.stage",
            StageRow(histogram="repro_t_seconds", counter="repro_t_total"),
        )
        obs.enable_metrics()
        with pytest.raises(KeyError):
            with obs.stage("t.stage"):
                raise KeyError("x")
        snap = obs.metrics_snapshot()
        assert snap["repro_t_seconds"]["count"] == 1  # latency still kept
        assert "repro_t_total" not in snap


# ----------------------------------------------------------------------
# Drift monitoring
# ----------------------------------------------------------------------


def _vec(value: float) -> np.ndarray:
    return np.full(len(METRIC_NAMES), value)


class TestDriftMonitor:
    def test_relative_errors_floor_zero_actuals(self):
        errors = relative_errors(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
        assert np.isfinite(errors).all()
        assert errors[1] == 0.0

    def test_validation(self):
        for kwargs in (
            {"floor": 0.0},
            {"floor": 1.5},
            {"tolerance": 0.0},
            {"window": 0},
            {"min_samples": 0},
            {"min_samples": 300, "window": 200},
        ):
            with pytest.raises(ModelError):
                DriftMonitor(**kwargs)
        with pytest.raises(ModelError):
            DriftMonitor().record(_vec(1.0), _vec(1.0)[:3])
        with pytest.raises(ModelError, match="unmonitored"):
            DriftMonitor().accuracy("nope")

    def test_flip_and_recovery(self):
        monitor = DriftMonitor(
            floor=0.8, tolerance=0.2, window=20, min_samples=10
        )
        # Ten accurate observations: healthy.
        for _ in range(10):
            monitor.record(_vec(1.0), _vec(1.0))
        assert not monitor.degraded
        assert monitor.accuracy() == 1.0
        # Ten wildly wrong ones drop the window fraction to 0.5 < 0.8.
        for _ in range(10):
            monitor.record(_vec(10.0), _vec(1.0))
        assert monitor.degraded
        assert set(monitor.degraded_metrics) == set(METRIC_NAMES)
        # Twenty accurate observations push the bad ones out: recovered.
        for _ in range(20):
            monitor.record(_vec(1.0), _vec(1.0))
        assert not monitor.degraded
        assert monitor.accuracy() == 1.0

    def test_cold_window_never_degraded(self):
        monitor = DriftMonitor(window=50, min_samples=10)
        for _ in range(9):
            monitor.record(_vec(100.0), _vec(1.0))  # all wrong, too few
        assert not monitor.degraded
        assert monitor.accuracy("elapsed_time") == 0.0  # fraction is known

    def test_per_metric_independence(self):
        monitor = DriftMonitor(floor=0.9, window=20, min_samples=5)
        good = _vec(1.0)
        bad = good.copy()
        bad[METRIC_NAMES.index("disk_ios")] = 50.0  # only one metric off
        for _ in range(10):
            monitor.record(bad, good)
        assert monitor.degraded_metrics == ["disk_ios"]
        assert monitor.accuracy("elapsed_time") == 1.0
        assert monitor.accuracy() == 0.0  # worst metric governs

    def test_matrix_record_and_status(self):
        monitor = DriftMonitor(window=10, min_samples=2)
        predicted = np.vstack([_vec(1.0), _vec(2.0)])
        actual = np.vstack([_vec(1.0), _vec(1.0)])
        monitor.record(predicted, actual)
        status = monitor.status()
        assert status["total_observations"] == 2
        assert status["metrics"]["elapsed_time"]["within_fraction"] == 0.5
        monitor.reset()
        assert monitor.total_observations == 0
        assert np.isnan(monitor.accuracy())

    def test_publishes_gauges_when_metrics_enabled(self):
        obs.enable_metrics()
        monitor = DriftMonitor(window=10, min_samples=2)
        for _ in range(4):
            monitor.record(_vec(10.0), _vec(1.0))
        snap = obs.metrics_snapshot()
        assert snap["repro_drift_observations_total"]["value"] == 4.0
        assert snap["repro_drift_within_fraction_elapsed_time"]["value"] == 0.0
        assert snap["repro_drift_degraded"]["value"] == 1.0


class TestOnlinePredictorMonitor:
    def test_observe_feeds_monitor_with_pre_refit_residuals(self):
        rng = np.random.default_rng(4)
        features = rng.lognormal(2.0, 1.0, size=(60, 5))
        performance = np.log1p(features) @ rng.uniform(
            0.5, 1.0, size=(5, len(METRIC_NAMES))
        )
        predictor = OnlinePredictor(
            window_size=64, refit_interval=10, min_fit_size=20
        )
        monitor = DriftMonitor(window=30, min_samples=5, floor=0.5)
        predictor.set_monitor(monitor)
        assert predictor.monitor is monitor
        for row in range(40):
            predictor.observe(features[row], performance[row])
        # The first min_fit_size observations happen before any model
        # exists, so the monitor only sees the remainder.
        assert monitor.total_observations == 40 - 20
        # Self-predictions on a stationary stream are accurate.
        assert monitor.accuracy("elapsed_time") > 0.0


# ----------------------------------------------------------------------
# End-to-end and bench integration
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_service(tpcds_catalog, config, mini_corpus):
    service = QueryPerformancePredictor(tpcds_catalog, config=config)
    service.fit_corpus(mini_corpus)
    return service


class TestEndToEnd:
    REQUIRED_SPAN_FRAGMENTS = ("optimize", "featurize", "project", "knn")

    def test_traced_forecast_emits_required_spans(self, trained_service):
        obs.enable_tracing()
        trained_service.forecast(
            "SELECT count(*) AS c FROM store_sales ss "
            "WHERE ss.ss_quantity > 30"
        )
        payload = obs.export_trace(drain=True)
        names = {
            span.name
            for root in payload
            for span in obs.Span.from_dict(root).walk()
        }
        for fragment in self.REQUIRED_SPAN_FRAGMENTS:
            assert any(fragment in name for name in names), (
                f"no span matching {fragment!r} in {sorted(names)}"
            )
        json.dumps(payload)  # the exported trace must be valid JSON

    def test_metrics_count_forecasts(self, trained_service):
        # Literals no other test here sends: the counters count statements
        # scored, and a statement the memo answers is not scored.
        obs.enable_metrics()
        trained_service.forecast_many(
            [
                "SELECT count(*) AS c FROM store_sales ss "
                "WHERE ss.ss_quantity > 41",
                "SELECT count(*) AS c FROM customer c "
                "WHERE c.c_birth_year > 1971",
            ]
        )
        snap = obs.metrics_snapshot()
        assert snap["repro_predict_queries_total"]["value"] == 2.0
        assert snap["repro_predict_seconds"]["count"] == 1
        text = obs.get_registry().render_prometheus()
        assert "repro_predict_queries_total 2" in text

    def test_memo_hits_on_the_span_and_in_the_registry(self, trained_service):
        sql = "SELECT count(*) AS c FROM item i WHERE i.i_manufact_id > 17"
        obs.enable_tracing()
        obs.enable_metrics()
        trained_service.forecast_many([sql, sql])  # two lookups miss, one compile
        trained_service.forecast(sql)
        cold, warm = obs.drain_trace()
        assert cold.attributes["memo_hits"] == 0
        assert warm.attributes["memo_hits"] == 1
        compiles = [s for s in cold.walk() if s.name == "optimizer.optimize"]
        assert len(compiles) == 1
        assert "optimizer.optimize" not in {s.name for s in warm.walk()}
        snap = obs.metrics_snapshot()
        assert snap["repro_forecast_memo_hits_total"]["value"] == 1.0
        assert snap["repro_forecast_memo_misses_total"]["value"] == 2.0

    def test_a_stage_is_one_reading(self, trained_service):
        """Span, deadline and histogram of each stage are the same number."""
        sqls = [
            "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 57",
            "SELECT count(*) AS c FROM customer c WHERE c.c_birth_year > 1957",
        ]
        obs.enable_tracing()
        obs.enable_metrics()
        deadline = Deadline(budget_s=60.0)
        with deadline_scope(deadline):
            trained_service.forecast_many(sqls)
        (root,) = obs.drain_trace()
        wall_ms: dict[str, float] = {}
        for span in root.walk():
            wall_ms[span.name] = wall_ms.get(span.name, 0.0) + span.wall_ms
        predict_ms = obs.metrics_snapshot()["repro_predict_seconds"]["sum"] * 1e3
        assert set(deadline.stage_ms) == {"optimize", "featurize", "predict"}
        assert deadline.stage_ms["optimize"] == pytest.approx(
            wall_ms["optimizer.optimize"], rel=1e-9
        )
        assert deadline.stage_ms["featurize"] == pytest.approx(
            wall_ms["api.featurize"], rel=1e-9
        )
        assert deadline.stage_ms["predict"] == pytest.approx(
            wall_ms["pipeline.score_many"], rel=1e-9
        )
        assert predict_ms == pytest.approx(deadline.stage_ms["predict"], rel=1e-9)

    def test_api_facade_switches(self):
        from repro import api

        api.set_tracing(True)
        assert api.trace_enabled()
        api.set_tracing(False)
        assert not api.trace_enabled()
        api.set_metrics(True)
        assert api.metrics_enabled()
        api.set_metrics(False)
        assert api.get_metrics() == {}
        assert api.get_metrics_text() == ""

    def test_cli_trace_out_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(
            [
                "--scale", "0.05", "--trace-out", str(out),
                "plan", "SELECT count(*) AS c FROM customer c",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        names = {
            span.name
            for root in payload
            for span in obs.Span.from_dict(root).walk()
        }
        assert "optimizer.optimize" in names

    def test_cli_metrics_flag_dumps_the_registry(self, capsys):
        """``--metrics`` is how the CLI shows the registry: after a
        command that recorded something, as Prometheus text on stderr."""
        from repro.cli import main

        code = main(
            [
                "--scale", "0.05", "--metrics", "plan",
                "SELECT count(*) AS c FROM store_sales ss, promotion p",
            ]
        )
        assert code == 0
        assert "repro_lint_warnings_total 1" in capsys.readouterr().err
