"""Pipeline persistence, batch prediction and Model-protocol tests."""

import builtins
import inspect
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cli
import repro.experiments.harness
from repro.api import (
    QueryPerformancePredictor,
    artifact_fingerprint,
    clear_artifact_cache,
    resolve_artifact,
)
from repro.core.base import MODEL_SCHEMA_VERSION
from repro.core.predictor import KCCAPredictor
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import METRIC_NAMES
from repro.engine.system import production_32node
from repro.errors import ModelError
from repro.experiments.harness import evaluate_pipeline, fit_pipeline
from repro.pipeline import PredictionPipeline
from repro.workloads.generator import generate_pool
from tests._artifacts import DAMAGED_BODIES, damage, tamper, two_step

MODEL_FACTORIES = {
    "kcca": lambda: KCCAPredictor(),
    "two_step": lambda: TwoStepPredictor(),
}

#: The settings older builds wrote into each KCCA predictor's and each
#: KCCA's config, with the values they always held ...
RETIRED_PREDICTOR_SETTINGS = {
    "approximation": "exact", "rank": None, "landmark_seed": 0,
    "performance_tau": None, "query_scale_fraction": 0.1,
    "performance_scale_fraction": 0.2, "log_performance": True,
    "standardize_performance": True,
}
RETIRED_KCCA_SETTINGS = {"approximation": "exact", "rank": None, "landmark_seed": 0}
#: ... and what a Nyström fit wrote in their place.
NYSTROM_SETTINGS = {"approximation": "nystrom", "rank": 8, "landmark_seed": 3}


def _predictor_states(model: dict) -> list[tuple[dict, str]]:
    """Each KCCA predictor state of a saved model, with its array path."""
    fitted, prefix = model["fitted"], "state/model"
    if "router" not in fitted:
        return [(model, prefix)]
    return [(fitted["router"], f"{prefix}/fitted/router")] + [
        (state, f"{prefix}/fitted/specialists/{name}")
        for name, state in fitted["specialists"].items()
    ]


@pytest.fixture(scope="module")
def service(tpcds_catalog, config, mini_corpus):
    """An api-level service trained on the shared mini corpus."""
    svc = QueryPerformancePredictor(tpcds_catalog, config=config)
    svc.fit_corpus(mini_corpus)
    return svc


@pytest.fixture(scope="module")
def batch_sqls():
    return [q.sql for q in generate_pool(100, seed=77, problem_fraction=0.2)]


def _recipe_service(tpcds_catalog, config, mini_corpus, **kwargs):
    """A trained service whose artifact embeds the session catalog's
    recipe, so ``load`` can rebuild the environment from the file alone."""
    svc = QueryPerformancePredictor(tpcds_catalog, config=config, **kwargs)
    svc._catalog_spec = {"kind": "tpcds", "scale_factor": 0.15, "seed": 123}
    return svc.fit_corpus(mini_corpus)


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_dir
    )
    return env


class TestModelProtocol:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_conforms_and_round_trips(self, name, mini_corpus):
        """A model rebuilt from its ``state_dict`` predicts bit for bit
        what the fitted one does."""
        model = MODEL_FACTORIES[name]()
        features = mini_corpus.feature_matrix()
        performance = mini_corpus.performance_matrix()
        model.fit(features, performance)
        expected = model.predict(features[:7])

        loaded = type(model).__new__(type(model))
        loaded.load_state_dict(model.state_dict())
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
        expected = pipeline.predict(features)
        expected_scores = pipeline.score_many(features)

        path = tmp_path / "pipeline.npz"
        pipeline.save(path, catalog=tpcds_catalog, config=config)
        loaded = PredictionPipeline.load(
            path, catalog=tpcds_catalog, config=config
        )
        np.testing.assert_array_equal(loaded.predict(features), expected)
        for before, after in zip(expected_scores, loaded.score_many(features)):
            np.testing.assert_array_equal(after.prediction, before.prediction)
            assert after.confidence.zscore == before.confidence.zscore
            assert after.confidence.anomalous == before.confidence.anomalous

    def test_an_artifact_with_a_calibrator_section_scores_the_same(
        self, mini_corpus, tmp_path
    ):
        """Artifacts saved before the pipeline lost its cost calibrator
        carry a ``calibrator`` section; it is ignored on load and the
        forecasts are bit for bit those of the same pipeline without it."""
        pipeline = fit_pipeline(mini_corpus)
        features = mini_corpus.feature_matrix()[:11]
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)
        plain = PredictionPipeline.load(path).score_many(features)

        def add_calibrator(document):
            assert "calibrator" not in document["state"]
            document["state"]["calibrator"] = {
                "slope": 0.0123, "intercept": -0.5, "r_squared": 0.91,
            }

        tamper(path, manifest=add_calibrator)
        legacy = PredictionPipeline.load(path)
        assert not hasattr(legacy, "calibrator")
        for before, after in zip(plain, legacy.score_many(features)):
            np.testing.assert_array_equal(after.prediction, before.prediction)
            assert after.confidence == before.confidence

    @pytest.mark.parametrize("model_name", ["kcca", "two_step"])
    def test_an_artifact_with_retired_model_settings_scores_the_same(
        self, model_name, mini_corpus, tmp_path
    ):
        """Artifacts saved before KCCA lost its Nyström fit path carry its
        settings and conditioning settings nothing set, a Nyström fit its
        ``landmarks`` array and a two-step model ``min_category_size``;
        all are dropped on load and the forecasts are bit for bit those of
        the same pipeline without them."""
        pipeline = fit_pipeline(mini_corpus, model=MODEL_FACTORIES[model_name]())
        features = mini_corpus.feature_matrix()[:11]
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)
        plain = PredictionPipeline.load(path).score_many(features)
        arrays = {}

        def add_retired_settings(document):
            model = document["state"]["model"]
            if model_name == "two_step":
                model["config"]["min_category_size"] = 8
                model["config"]["predictor_kwargs"].update(NYSTROM_SETTINGS)
            for number, (state, prefix) in enumerate(_predictor_states(model)):
                kcca = state["fitted"]["kcca"]
                state["config"].update(RETIRED_PREDICTOR_SETTINGS)
                kcca["config"].update(RETIRED_KCCA_SETTINGS)
                if number == 0:  # the one Nyström fit
                    state["config"].update(NYSTROM_SETTINGS)
                    kcca["config"].update(NYSTROM_SETTINGS)
                    key = f"{prefix}/fitted/kcca/fitted/landmarks"
                    kcca["fitted"]["landmarks"] = {"__array__": key}
                    arrays[key] = np.arange(0, 16, 2)
            document["artifact"]["kernel"] = dict(model["config"])

        tamper(path, add_retired_settings, lambda data: data.update(arrays))
        legacy = PredictionPipeline.load(path)
        expected = pipeline.model.state_dict()["config"]
        assert legacy.model.state_dict()["config"] == expected
        for before, after in zip(plain, legacy.score_many(features)):
            np.testing.assert_array_equal(after.prediction, before.prediction)
            assert after.confidence == before.confidence

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

        tamper(path, manifest=bump)
        with pytest.raises(ModelError, match="schema version"):
            PredictionPipeline.load(path)

    def test_unknown_model_schema_version_refused(self, mini_corpus, tmp_path):
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)

        def bump(manifest):
            manifest["schema_version"] = 999

        tamper(path, manifest=bump)
        with pytest.raises(ModelError, match="schema version"):
            PredictionPipeline.load(path)

    def test_previous_model_schema_is_refused_not_read(
        self, mini_corpus, tmp_path
    ):
        """No second reader: an artifact of the schema that stored the
        N x N kernels is refused by version, with the typed message."""
        pipeline = fit_pipeline(mini_corpus)
        path = tmp_path / "pipeline.npz"
        pipeline.save(path)
        tamper(
            path,
            manifest=lambda doc: doc.update(
                schema_version=MODEL_SCHEMA_VERSION - 1
            ),
        )
        assert MODEL_SCHEMA_VERSION == 2
        with pytest.raises(
            ModelError,
            match="has schema version 1, this build reads version 2",
        ):
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


class TestDamagedBodies:
    """A readable artifact whose body is wrong is refused by ``load`` with
    a ``ModelError`` naming the file — never an untyped error, never an
    error (or a number) at forecast time."""

    @pytest.fixture(scope="class")
    def good(self, tpcds_catalog, config, mini_corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("damaged") / "good.npz"
        _recipe_service(tpcds_catalog, config, mini_corpus).save(path)
        return path

    @pytest.mark.parametrize("shape", sorted(DAMAGED_BODIES))
    def test_load_raises_model_error(self, good, shape, tmp_path):
        path = damage(shutil.copy(good, tmp_path / f"{shape}.npz"), shape)
        with pytest.raises(ModelError, match=re.escape(str(path))):
            QueryPerformancePredictor.load(path)

    def test_undamaged_copy_loads_and_forecasts(self, good, batch_sqls):
        # The control: what the shapes above are mutations of.
        assert QueryPerformancePredictor.load(good).forecast_many(batch_sqls[:3])

    @pytest.mark.parametrize("retired", [{}, {"min_category_size": 8}])
    def test_two_step_copy_without_an_unknown_key_loads(self, good, retired, tmp_path):
        # The control of the ``unknown_two_step_*`` shapes: the two-step
        # artifact they mutate loads, with or without the retired setting.
        path = shutil.copy(good, tmp_path / "two_step.npz")
        tamper(path, manifest=two_step(lambda config: config.update(retired)))
        model = QueryPerformancePredictor.load(path).pipeline.model
        assert isinstance(model, TwoStepPredictor)
        assert model.state_dict()["config"] == {"predictor_kwargs": {}}


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
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            check=True,
        )
        assert result.stdout.strip() == repr(expected)


    def test_train_save_load_and_serve_with_scipy_unimportable(self, tmp_path):
        """With ``scipy`` unimportable, a fresh process trains the gate's
        model on two workers, saves it, loads it and forecasts — in
        process, batched and through a ``PredictionDaemon`` — and the
        trained model, the loaded one and the daemon give one answer."""
        path = tmp_path / "model.npz"
        sqls = [
            "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30",
            "SELECT i.i_category, sum(ss.ss_sales_price) AS s FROM store_sales ss, "
            "item i WHERE ss.ss_item_sk = i.i_item_sk GROUP BY i.i_category",
            "SELECT count(*) AS c FROM item i",
        ]
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.api, repro.serve, repro.cli\n"
            "from repro.serve import PredictionDaemon, ServeClient\n"
            f"sqls = {sqls!r}\n"
            "trained = repro.api.QueryPerformancePredictor.train_on_workload(\n"
            "    'tpcds', n_queries=300, scale=0.05, seed=7, jobs=2)\n"
            f"trained.save({str(path)!r})\n"
            f"loaded = repro.api.QueryPerformancePredictor.load({str(path)!r})\n"
            "answers = [repr(f.metrics) for f in trained.forecast_many(sqls)]\n"
            "assert [repr(trained.forecast(s).metrics) for s in sqls] == answers\n"
            "assert [repr(loaded.forecast(s).metrics) for s in sqls] == answers\n"
            "assert [repr(f.metrics) for f in loaded.forecast_many(sqls)] == answers\n"
            f"daemon = PredictionDaemon(artifact={str(path)!r})\n"
            "daemon.start()\n"
            "try:\n"
            "    with ServeClient(*daemon.address) as client:\n"
            "        served = client.forecast(sqls[0])['forecast']['metrics']\n"
            "finally:\n"
            "    daemon.stop()\n"
            "assert served['elapsed_time'] == loaded.forecast(sqls[0]).metrics.elapsed_time\n"
            "assert not any(name.startswith('scipy.') for name in sys.modules)\n"
            "print(len(answers), 'answers agree')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "3 answers agree"

    def test_no_source_module_imports_scipy(self):
        """One linear-algebra runtime per process: the package runs on
        numpy alone (scipy is a test dependency, the numerics oracle)."""
        source = Path(repro.__file__).parent
        importing = [
            f"{path.relative_to(source)}:{number}"
            for path in sorted(source.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.match(r"\s*(import|from)\s+scipy\b", line)
        ]
        assert importing == []


def _count_opens(monkeypatch, path: Path, after_first=None) -> list:
    """Record every ``open`` of ``path`` (``builtins.open``, which
    ``numpy.load`` calls, and ``io.open``, which ``pathlib`` calls);
    ``after_first`` runs once, right after the first of them returns."""
    opened: list = []
    real = io.open

    def counting(file, *args, **kwargs):
        handle = real(file, *args, **kwargs)
        if isinstance(file, (str, os.PathLike)) and Path(file) == path:
            opened.append(file)
            if len(opened) == 1 and after_first is not None:
                after_first()
        return handle

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return opened


class TestOneReadPerLoad:
    @pytest.fixture()
    def artifacts(self, tpcds_catalog, config, mini_corpus, tmp_path):
        """Two artifacts that differ in a hyper-parameter (k = 3 and 5)."""
        paths = {}
        for k in (3, 5):
            paths[k] = tmp_path / f"k{k}.npz"
            _recipe_service(
                tpcds_catalog, config, mini_corpus, k_neighbors=k
            ).save(paths[k])
        clear_artifact_cache()
        yield paths
        clear_artifact_cache()

    def test_cold_resolve_opens_the_artifact_once(self, artifacts, monkeypatch):
        path = artifacts[3].resolve()
        opened = _count_opens(monkeypatch, path)
        fingerprint, service = resolve_artifact(path)
        assert len(opened) == 1  # the parent commit: three
        monkeypatch.undo()
        assert fingerprint == service.artifact_fingerprint
        assert fingerprint == artifact_fingerprint(path)

    def test_version_names_the_bytes_the_service_was_built_from(
        self, artifacts, monkeypatch, tmp_path
    ):
        """A retrain that replaces the file while it is being loaded:
        whichever bytes the service came from, its version is theirs."""
        live = (tmp_path / "live.npz").resolve()
        shutil.copy(artifacts[3], live)
        by_digest = {artifact_fingerprint(artifacts[k]): k for k in (3, 5)}
        replacement = shutil.copy(artifacts[5], tmp_path / "next.npz")
        _count_opens(
            monkeypatch, live, after_first=lambda: os.replace(replacement, live)
        )
        fingerprint, service = resolve_artifact(live)
        monkeypatch.undo()
        assert service.artifact_fingerprint == fingerprint
        assert service.pipeline.model.k_neighbors == by_digest[fingerprint]


class TestNoPrivateReachThrough:
    @pytest.mark.parametrize(
        "module", [repro.cli, repro.experiments.harness], ids=lambda m: m.__name__
    )
    def test_no_private_attribute_access(self, module):
        source = inspect.getsource(module)
        assert not re.search(r"\._[a-zA-Z]", source)
