"""Pipeline persistence, batch prediction and Model-protocol tests."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli
import repro.experiments.harness
from repro.api import QueryPerformancePredictor
from repro.core.base import Model
from repro.core.online import OnlinePredictor
from repro.core.predictor import KCCAPredictor
from repro.core.regression import MultiMetricRegression
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import METRIC_NAMES
from repro.engine.system import production_32node
from repro.errors import ModelError
from repro.experiments.harness import evaluate_pipeline, fit_pipeline
from repro.pipeline import PredictionPipeline
from repro.workloads.generator import generate_pool

MODEL_FACTORIES = {
    "kcca": lambda: KCCAPredictor(),
    "two_step": lambda: TwoStepPredictor(),
    "online": lambda: OnlinePredictor(min_fit_size=10),
    "regression": lambda: MultiMetricRegression(METRIC_NAMES),
}


@pytest.fixture(scope="module")
def service(tpcds_catalog, config, mini_corpus):
    """An api-level service trained on the shared mini corpus."""
    svc = QueryPerformancePredictor(tpcds_catalog, config=config)
    svc.fit_corpus(mini_corpus)
    return svc


@pytest.fixture(scope="module")
def batch_sqls():
    return [q.sql for q in generate_pool(100, seed=77, problem_fraction=0.2)]


def _tamper_manifest(path: Path, mutate) -> None:
    """Rewrite the JSON manifest inside a saved .npz artifact."""
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
    mutate(manifest)
    data["__manifest__"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez(handle, **data)


class TestModelProtocol:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_conforms_and_round_trips(self, name, mini_corpus, tmp_path):
        model = MODEL_FACTORIES[name]()
        assert isinstance(model, Model)
        features = mini_corpus.feature_matrix()
        performance = mini_corpus.performance_matrix()
        model.fit(features, performance)
        expected = model.predict(features[:7])

        path = tmp_path / f"{name}.npz"
        model.save(path)
        loaded = type(model).load(path)
        restored = loaded.predict(features[:7])
        np.testing.assert_array_equal(restored, expected)

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_state_dict_shape(self, name, mini_corpus):
        model = MODEL_FACTORIES[name]()
        model.fit(
            mini_corpus.feature_matrix(), mini_corpus.performance_matrix()
        )
        state = model.state_dict()
        assert set(state) >= {"config", "fitted"}


class TestPipelineRoundTrip:
    @pytest.mark.parametrize("model_name", ["kcca", "two_step"])
    def test_save_load_identical_predictions(
        self, model_name, mini_corpus, tpcds_catalog, config, tmp_path
    ):
        pipeline = fit_pipeline(
            mini_corpus, model=MODEL_FACTORIES[model_name]()
        )
        features = mini_corpus.feature_matrix()[:11]
        expected = pipeline.predict_many(features)
        expected_scores = pipeline.score_many(features)

        path = tmp_path / "pipeline.npz"
        pipeline.save(path, catalog=tpcds_catalog, config=config)
        loaded = PredictionPipeline.load(
            path, catalog=tpcds_catalog, config=config
        )
        np.testing.assert_array_equal(loaded.predict_many(features), expected)
        for before, after in zip(expected_scores, loaded.score_many(features)):
            np.testing.assert_array_equal(after.prediction, before.prediction)
            assert after.confidence.zscore == before.confidence.zscore
            assert after.confidence.anomalous == before.confidence.anomalous

    def test_calibrator_round_trips(self, mini_corpus, tmp_path):
        pipeline = fit_pipeline(mini_corpus)
        assert pipeline.calibrator is not None
        costs = mini_corpus.optimizer_costs()[:5]
        expected = pipeline.calibrated_seconds(costs)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)
        loaded = PredictionPipeline.load(path)
        np.testing.assert_array_equal(
            loaded.calibrated_seconds(costs), expected
        )

    def test_catalog_fingerprint_mismatch_refused(
        self, mini_corpus, tpcds_catalog, config, tmp_path
    ):
        from repro.workloads.tpcds import build_tpcds_catalog

        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path, catalog=tpcds_catalog, config=config)
        other = build_tpcds_catalog(scale_factor=0.05, seed=5)
        with pytest.raises(ModelError, match="catalog"):
            PredictionPipeline.load(path, catalog=other)

    def test_system_fingerprint_mismatch_refused(
        self, mini_corpus, tpcds_catalog, config, tmp_path
    ):
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path, catalog=tpcds_catalog, config=config)
        with pytest.raises(ModelError, match="system"):
            PredictionPipeline.load(path, config=production_32node(8))

    def test_unknown_artifact_schema_version_refused(
        self, mini_corpus, tmp_path
    ):
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)

        def bump(manifest):
            manifest["artifact"]["schema_version"] = 999

        _tamper_manifest(path, bump)
        with pytest.raises(ModelError, match="schema version"):
            PredictionPipeline.load(path)

    def test_unknown_model_schema_version_refused(self, mini_corpus, tmp_path):
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)

        def bump(manifest):
            manifest["schema_version"] = 999

        _tamper_manifest(path, bump)
        with pytest.raises(ModelError, match="schema version"):
            PredictionPipeline.load(path)

    def test_evaluate_pipeline_reports_all_metrics(self, mini_corpus):
        pipeline = fit_pipeline(mini_corpus)
        risk = evaluate_pipeline(pipeline, mini_corpus.subset(range(20)))
        assert set(risk) == set(METRIC_NAMES)


class TestCorruptArtifacts:
    """Damaged .npz artifacts must surface as ModelError with the path,
    never as a raw zipfile/zlib/numpy exception."""

    @pytest.fixture(scope="class")
    def artifact_bytes(self, mini_corpus, tmp_path_factory):
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path_factory.mktemp("artifacts") / "pipeline.npz"
        pipeline.save(path)
        return path.read_bytes()

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9, 0.98])
    def test_truncated_artifact(self, artifact_bytes, tmp_path, keep_fraction):
        path = tmp_path / "truncated.npz"
        path.write_bytes(
            artifact_bytes[: int(len(artifact_bytes) * keep_fraction)]
        )
        with pytest.raises(ModelError, match=re.escape(str(path))):
            PredictionPipeline.load(path)

    @pytest.mark.parametrize("position_fraction", [0.3, 0.5, 0.7])
    def test_bitflipped_artifact(
        self, artifact_bytes, tmp_path, position_fraction
    ):
        # Mid-file bit flips corrupt a member's *compressed payload*
        # (zlib.error territory) rather than the zip directory
        # (BadZipFile territory) — the leak this regression test pins.
        corrupted = bytearray(artifact_bytes)
        position = int(len(corrupted) * position_fraction)
        for offset in range(64):
            corrupted[position + offset] ^= 0xFF
        path = tmp_path / "bitflipped.npz"
        path.write_bytes(bytes(corrupted))
        with pytest.raises(ModelError, match=re.escape(str(path))):
            PredictionPipeline.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(ModelError, match=re.escape(str(path))):
            PredictionPipeline.load(path)

    def test_non_zip_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all" * 10)
        with pytest.raises(ModelError, match=re.escape(str(path))):
            PredictionPipeline.load(path)


class TestBatchPrediction:
    def test_predict_many_matches_per_query(self, service, batch_sqls):
        sqls = batch_sqls[:20]
        batched = service.predict_many(sqls)
        singles = [service.predict(sql) for sql in sqls]
        assert batched == singles
        # Bit for bit, neighbour distances (``confidence.distance``)
        # included: a statement that coincides with several training rows
        # keeps the same k of them whatever it is batched with.
        assert service.forecast_many(sqls) == [
            service.forecast(sql) for sql in sqls
        ]

    def test_forecast_many_matches_forecast(self, service, batch_sqls):
        sqls = batch_sqls[:10]
        batched = service.forecast_many(sqls)
        for sql, fc in zip(sqls, batched):
            single = service.forecast(sql)
            assert fc.metrics == single.metrics
            assert fc.category == single.category
            assert fc.optimizer_cost == single.optimizer_cost
            assert fc.confidence.anomalous == single.confidence.anomalous
            assert fc.confidence.zscore == pytest.approx(
                single.confidence.zscore
            )

    def test_one_kernel_cross_for_batch(
        self, service, batch_sqls, monkeypatch
    ):
        import repro.core.predictor as predictor_module

        real = predictor_module.gaussian_kernel_cross
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            predictor_module, "gaussian_kernel_cross", counting
        )
        forecasts = service.forecast_many(batch_sqls)
        assert len(forecasts) == len(batch_sqls)
        assert len(calls) == 1  # one cross-kernel evaluation for the model

    def test_two_step_batch_one_cross_per_model(
        self, tpcds_catalog, config, mini_corpus, batch_sqls, monkeypatch
    ):
        import repro.core.predictor as predictor_module

        svc = QueryPerformancePredictor(
            tpcds_catalog, config=config, two_step=True
        )
        svc.fit_corpus(mini_corpus)
        n_specialists = len(svc.pipeline.model.trained_categories)

        real = predictor_module.gaussian_kernel_cross
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            predictor_module, "gaussian_kernel_cross", counting
        )
        svc.forecast_many(batch_sqls[:30])
        # Router once, plus at most one cross per specialist model.
        assert len(calls) <= 1 + n_specialists


class TestApiPersistence:
    def test_save_load_with_explicit_environment(
        self, service, batch_sqls, tpcds_catalog, config, tmp_path
    ):
        path = tmp_path / "service.npz"
        service.save(path)
        loaded = QueryPerformancePredictor.load(
            path, catalog=tpcds_catalog, config=config
        )
        sqls = batch_sqls[:5]
        assert loaded.predict_many(sqls) == service.predict_many(sqls)

    def test_load_without_catalog_requires_recipe(
        self, service, tmp_path
    ):
        path = tmp_path / "service.npz"
        service.save(path)  # fit_corpus-trained: no catalog recipe stored
        with pytest.raises(ModelError, match="catalog"):
            QueryPerformancePredictor.load(path)

    def test_fresh_process_round_trip(self, tmp_path):
        svc = QueryPerformancePredictor.train_on_tpcds(
            n_queries=40, scale_factor=0.05, seed=11
        )
        path = tmp_path / "model.npz"
        svc.save(path)
        sql = "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30"
        expected = svc.predict(sql)

        code = (
            "from repro.api import QueryPerformancePredictor\n"
            f"svc = QueryPerformancePredictor.load({str(path)!r})\n"
            f"print(repr(svc.predict({sql!r})))\n"
        )
        env = dict(os.environ)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src_dir
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == repr(expected)


class TestNoPrivateReachThrough:
    @pytest.mark.parametrize(
        "module", [repro.cli, repro.experiments.harness], ids=lambda m: m.__name__
    )
    def test_no_private_attribute_access(self, module):
        source = inspect.getsource(module)
        assert not re.search(r"\._[a-zA-Z]", source)
