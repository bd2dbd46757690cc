"""Public API integration tests (QueryPerformancePredictor)."""

import importlib.util
from pathlib import Path

import pytest

from repro.api import Forecast, QueryPerformancePredictor
from repro.engine import PerformanceMetrics
from repro.errors import ModelError
from repro.workloads.generator import generate_pool


@pytest.fixture(scope="module")
def service():
    """A small but real trained predictor (shared across tests)."""
    return QueryPerformancePredictor.train_on_tpcds(
        n_queries=120, scale_factor=0.1, seed=4
    )


EXAMPLE_SQL = (
    "SELECT i.i_category, sum(ss.ss_sales_price) AS revenue "
    "FROM store_sales ss, item i "
    "WHERE ss.ss_item_sk = i.i_item_sk AND ss.ss_quantity > 10 "
    "GROUP BY i.i_category ORDER BY revenue DESC"
)


class TestTraining:
    def test_train_on_tpcds(self, service):
        assert service.training_corpus is not None
        assert len(service.training_corpus) == 120

    def test_untrained_predict_raises(self, tpcds_catalog):
        fresh = QueryPerformancePredictor(tpcds_catalog)
        with pytest.raises(ModelError):
            fresh.predict("SELECT * FROM item i")

    def test_fit_pool_on_existing_catalog(self, tpcds_catalog):
        service = QueryPerformancePredictor(tpcds_catalog)
        service.fit_pool(generate_pool(40, seed=1, problem_fraction=0.0))
        metrics = service.predict("SELECT count(*) AS c FROM item i")
        assert isinstance(metrics, PerformanceMetrics)


class TestPrediction:
    def test_predict_returns_metrics(self, service):
        metrics = service.predict(EXAMPLE_SQL)
        assert metrics.elapsed_time > 0
        assert metrics.records_accessed >= 0

    def test_forecast_fields(self, service):
        forecast = service.forecast(EXAMPLE_SQL)
        assert isinstance(forecast, Forecast)
        assert forecast.category in (
            "feather", "golf_ball", "bowling_ball", "wrecking_ball"
        )
        assert forecast.optimizer_cost > 0

    def test_prediction_close_to_measurement(self, service):
        """An in-distribution query must be predicted within 10x."""
        predicted = service.predict(EXAMPLE_SQL)
        actual = service.measure(EXAMPLE_SQL)
        ratio = predicted.elapsed_time / actual.elapsed_time
        assert 0.1 < ratio < 10.0

    def test_explain_report(self, service):
        report = service.explain(EXAMPLE_SQL)
        assert "predicted elapsed time" in report
        assert "records accessed" in report
        assert "confidence" in report

    def test_features_for(self, service):
        vector = service.features_for(EXAMPLE_SQL)
        assert vector.ndim == 1
        assert vector.sum() > 0

    def test_empty_batch_is_an_empty_answer(self, service):
        # Was a bare numpy ValueError ("zero-size array to reduction
        # operation maximum") from inside score_many.
        assert service.forecast_many([]) == []
        assert service.predict_many([]) == []
        assert service.forecast_workload("tpcds", n_queries=0) == []

    def test_measure_is_deterministic_without_noise_seed(self, service):
        a = service.measure("SELECT count(*) AS c FROM item i")
        b = service.measure("SELECT count(*) AS c FROM item i")
        assert a.records_accessed == b.records_accessed
        assert a.elapsed_time == pytest.approx(b.elapsed_time)


class TestTwoStepService:
    def test_two_step_mode(self, tpcds_catalog):
        service = QueryPerformancePredictor(tpcds_catalog, two_step=True)
        service.fit_pool(generate_pool(60, seed=6, problem_fraction=0.2))
        metrics = service.predict(EXAMPLE_SQL)
        assert metrics.elapsed_time > 0


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_resolve(path):
    """Nothing else imports ``examples/``, so a name removed from the
    package would break them silently.  Importing runs no work: every
    example does its work in ``main()`` under a ``__main__`` guard."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
