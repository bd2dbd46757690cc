"""Determinism and correctness of the scaled train/serve hot paths:

* parallel corpus generation is bitwise identical to the serial build;
* Nyström KCCA tracks the exact solve (and reproduces it at rank = N);
* Nyström pipelines round-trip through save/load;
* the rewritten distance/kernel kernels match their reference formulas;
* the benchmark harness runs and emits a valid, JSON-able report;
* the statement front end stays within its budget of interpreter calls
  per statement, and a repeated statement makes none of them;
* a fitted or loaded model holds no N x N array, its artifact grows
  linearly in N, and what it holds instead equals the kernel expressions;
* the engine groups and joins integer keys without sorting them;
* a join gathers the columns something above it reads, and no others.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re

import numpy as np
import pytest

from repro.core.kcca import KCCA, center_kernel
from repro.core.kernels import (
    cross_squared_distances,
    gaussian_kernel_cross,
    gaussian_kernel_matrix,
    scale_factor_heuristic,
)
from repro.core.neighbors import nearest_neighbors
from repro.core.predictor import KCCAPredictor
from repro.engine.operators import Batch, group_by_batch, hash_join_batches
from repro.engine.plan import AggregateSpec
from repro.errors import ModelError
from repro.experiments.bench import (
    BENCH_SCHEMA_VERSION,
    SECTIONS,
    format_report,
    run_benchmarks,
)
from repro.experiments.corpus import (
    build_corpus,
    load_or_build_corpus,
    resolve_jobs,
)
from repro.pipeline import PredictionPipeline
from repro.sql.parser import parse
from repro.workloads.generator import generate_pool


def _synthetic(n, seed=5, n_features=10, n_metrics=6):
    rng = np.random.default_rng(seed)
    features = rng.lognormal(3.0, 1.5, (n, n_features))
    weights = rng.uniform(0.2, 1.0, (n_features, n_metrics))
    performance = np.log1p(features) @ weights
    performance *= rng.lognormal(0.0, 0.05, performance.shape)
    return features, performance


# ----------------------------------------------------------------------
# Parallel corpus generation
# ----------------------------------------------------------------------


class TestParallelCorpus:
    def test_jobs4_bitwise_identical_to_serial(self, tpcds_catalog, config):
        pool = generate_pool(12, seed=31)
        serial = build_corpus(tpcds_catalog, config, pool)
        parallel = build_corpus(tpcds_catalog, config, pool, jobs=4)
        assert np.array_equal(
            serial.feature_matrix(), parallel.feature_matrix()
        )
        assert np.array_equal(
            serial.sql_feature_matrix(), parallel.sql_feature_matrix()
        )
        assert np.array_equal(
            serial.performance_matrix(), parallel.performance_matrix()
        )
        assert np.array_equal(
            serial.optimizer_costs(), parallel.optimizer_costs()
        )
        assert [q.query_id for q in serial.queries] == [
            q.query_id for q in parallel.queries
        ]
        assert serial.config_name == parallel.config_name

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(-1) >= 1

    def test_load_or_build_forwards_jobs(self, tpcds_catalog, config, tmp_path):
        pool = generate_pool(4, seed=33)
        calls = []

        def builder(jobs=None):
            calls.append(jobs)
            return build_corpus(tpcds_catalog, config, pool, jobs=jobs)

        path = tmp_path / "corpus.npz"
        built = load_or_build_corpus(path, builder, jobs=2)
        assert calls == [2]
        # Cache hit: builder not called again, jobs irrelevant.
        cached = load_or_build_corpus(path, builder, jobs=2)
        assert calls == [2]
        assert np.array_equal(
            built.performance_matrix(), cached.performance_matrix()
        )


# ----------------------------------------------------------------------
# Nyström KCCA
# ----------------------------------------------------------------------


class TestNystromKCCA:
    def test_rank_n_reproduces_dense_solve(self):
        features, performance = _synthetic(120)
        exact = KCCAPredictor().fit(features[:100], performance[:100])
        full = KCCAPredictor(approximation="nystrom", rank=100).fit(
            features[:100], performance[:100]
        )
        held_out = features[100:]
        assert np.allclose(
            full.predict(held_out), exact.predict(held_out),
            rtol=1e-9, atol=1e-12,
        )
        assert np.allclose(
            full.canonical_correlations,
            exact.canonical_correlations,
            atol=1e-10,
        )

    def test_low_rank_within_tolerance_at_n300(self):
        features, performance = _synthetic(340)
        train_f, train_p = features[:300], performance[:300]
        exact = KCCAPredictor().fit(train_f, train_p)
        nystrom = KCCAPredictor(approximation="nystrom", rank=128).fit(
            train_f, train_p
        )
        predicted_exact = exact.predict(features[300:])
        predicted_nystrom = nystrom.predict(features[300:])
        assert np.allclose(predicted_nystrom, predicted_exact, rtol=0.25)
        relative = np.abs(predicted_nystrom - predicted_exact) / np.abs(
            predicted_exact
        )
        assert relative.mean() < 0.05

    def test_landmarks_deterministic_and_recorded(self):
        features, performance = _synthetic(150)
        kx = gaussian_kernel_matrix(np.log1p(features), 10.0)
        ky = gaussian_kernel_matrix(np.log1p(performance), 10.0)
        first = KCCA(approximation="nystrom", rank=40).fit(kx, ky)
        second = KCCA(approximation="nystrom", rank=40).fit(kx, ky)
        assert np.array_equal(first.landmarks, second.landmarks)
        assert first.landmarks.shape == (40,)
        assert np.array_equal(first.alpha, second.alpha)
        other_seed = KCCA(
            approximation="nystrom", rank=40, landmark_seed=1
        ).fit(kx, ky)
        assert not np.array_equal(first.landmarks, other_seed.landmarks)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ModelError):
            KCCA(approximation="cholesky")
        with pytest.raises(ModelError):
            KCCA(approximation="nystrom", rank=0)

    def test_nystrom_pipeline_artifact_roundtrip(self, tmp_path):
        features, performance = _synthetic(160)
        model = KCCAPredictor(approximation="nystrom", rank=64)
        pipeline = PredictionPipeline(model=model).fit(
            features[:140], performance[:140],
            optimizer_costs=performance[:140, 0],
        )
        path = tmp_path / "nystrom.npz"
        pipeline.save(path)

        loaded = PredictionPipeline.load(path)
        assert isinstance(loaded.model, KCCAPredictor)
        state = loaded.model.state_dict()
        assert state["config"]["approximation"] == "nystrom"
        assert state["config"]["rank"] == 64
        held_out = features[140:]
        assert np.array_equal(
            loaded.predict_many(held_out), pipeline.predict_many(held_out)
        )
        # The artifact manifest advertises the approximation for ops.
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(
                bytes(data["__manifest__"].tobytes()).decode("utf-8")
            )
        assert manifest["artifact"]["kernel"]["approximation"] == "nystrom"

    def test_projection_cached_once_per_fit(self):
        features, performance = _synthetic(80)
        model = KCCAPredictor().fit(features, performance)
        first = model.query_projection
        assert model.query_projection is first  # no recompute per access

    def test_fitted_and_loaded_models_hold_no_n_by_n_array(self, tmp_path):
        """What prediction reads of a fit is N x d and 1 x N; the kernels
        KCCA was solved from are neither kept nor persisted."""
        features, performance = _synthetic(120)
        n, width = features.shape
        path = tmp_path / "model.npz"
        fitted = KCCAPredictor().fit(features, performance)
        fitted.save(path)
        for model in (fitted, KCCAPredictor.load(path)):
            kcca = model._kcca
            largest = n * max(kcca.n_components, width)
            sizes = [
                item.size
                for value in (*vars(kcca).values(), *vars(model).values())
                for item in (value if isinstance(value, tuple) else (value,))
                if isinstance(item, np.ndarray)
            ]
            assert len(sizes) >= 8  # the walk does see the fitted arrays
            assert max(sizes) == largest  # the training features, N x width
            assert model.query_projection.shape == (n, kcca.n_components)

    def test_artifact_bytes_are_linear_in_n(self, tmp_path):
        features, performance = _synthetic(240)
        sizes = {}
        for n in (120, 240):
            path = tmp_path / f"n{n}.npz"
            PredictionPipeline(model=KCCAPredictor()).fit(
                features[:n], performance[:n]
            ).save(path)
            sizes[n] = path.stat().st_size
        # The parent commit stored three N x N kernels and read ~3.9 x.
        assert sizes[240] < 2.6 * sizes[120]

    @pytest.mark.parametrize(
        "kwargs", [{}, {"approximation": "nystrom", "rank": 40}],
        ids=["exact", "nystrom"],
    )
    def test_kept_state_equals_the_kernel_expressions(self, kwargs, tmp_path):
        """The projections and centring constants a model keeps are the
        bits the N x N kernels give, recomputed here from the kernels."""
        features, performance = _synthetic(120)
        model = KCCAPredictor(**kwargs).fit(features, performance)
        kcca = model._kcca
        fx = model._x_scaler.transform(features)
        fy = model._y_scaler.transform(performance)
        kx = gaussian_kernel_matrix(fx, model._tau_x)
        ky = gaussian_kernel_matrix(
            fy, scale_factor_heuristic(fy, model.performance_scale_fraction)
        )
        assert np.array_equal(
            model.query_projection, center_kernel(kx) @ kcca.alpha
        )
        assert np.array_equal(
            model.performance_projection, center_kernel(ky) @ kcca.beta
        )
        column_means, grand_mean = kcca._centering
        assert np.array_equal(column_means, kx.mean(axis=0, keepdims=True))
        assert grand_mean == kx.mean()

        path = tmp_path / "model.npz"
        model.save(path)
        loaded = KCCAPredictor.load(path)
        assert np.array_equal(loaded.query_projection, model.query_projection)
        assert np.array_equal(
            loaded.performance_projection, model.performance_projection
        )
        assert np.array_equal(loaded._kcca._centering[0], column_means)
        assert loaded._kcca._centering[1] == grand_mean
        assert np.array_equal(
            loaded._kcca.projection_correlation(),
            kcca.projection_correlation(),
        )
        assert (kcca.projection_correlation() > 0.5).any()


# ----------------------------------------------------------------------
# Rewritten numeric kernels
# ----------------------------------------------------------------------


class TestNumericRewrites:
    def test_gaussian_kernels_match_reference_formula(self, rng):
        data = rng.normal(size=(30, 5))
        new = rng.normal(size=(7, 5))
        tau = 2.5
        reference = np.exp(
            -((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2) / tau
        )
        np.fill_diagonal(reference, 1.0)
        assert np.allclose(gaussian_kernel_matrix(data, tau), reference)
        reference_cross = np.exp(
            -((new[:, None, :] - data[None, :, :]) ** 2).sum(axis=2) / tau
        )
        assert np.allclose(
            gaussian_kernel_cross(new, data, tau), reference_cross
        )

    def test_euclidean_neighbors_match_brute_force(self, rng):
        points = rng.normal(size=(9, 4))
        reference = rng.normal(size=(25, 4))
        indices, distances = nearest_neighbors(points, reference, k=3)
        brute = np.linalg.norm(
            points[:, None, :] - reference[None, :, :], axis=2
        )
        for i in range(points.shape[0]):
            expected = np.sort(np.round(brute[i], 9))[:3]
            assert np.allclose(distances[i], expected)
            assert set(indices[i]) <= set(np.argsort(brute[i])[:5])

    def test_cross_squared_distances_never_negative(self, rng):
        # Duplicated points stress the ||a||²+||b||²-2ab cancellation.
        data = np.repeat(rng.normal(size=(5, 3)), 4, axis=0)
        assert (cross_squared_distances(data, data) >= 0.0).all()


# ----------------------------------------------------------------------
# Benchmark harness
# ----------------------------------------------------------------------


class TestBenchHarness:
    def test_quick_run_emits_valid_report(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_benchmarks(quick=True, label="test", out=out)
        # The on-disk report is valid JSON and matches the return value.
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(json.dumps(report))
        assert loaded["label"] == "test"
        assert loaded["bench_schema_version"] == BENCH_SCHEMA_VERSION == 8
        assert loaded["machine"]["cpus"] >= 1
        # One table wires both the driver and the text report: every
        # registered section is in the report and prints its own block.
        names = [name for name, *_ in SECTIONS]
        assert names == ["resilience", "sanitizer"]
        assert list(loaded)[-len(names):] == names
        blocks = format_report(report).split("\n\n")[1:]
        assert len(blocks) == len(names)
        for (name, _, _, render), block in zip(SECTIONS, blocks):
            assert loaded[name], name
            assert block and block == "\n".join(render(report[name])), name


# ----------------------------------------------------------------------
# Interpreter work per statement (a perf guard without a clock)
# ----------------------------------------------------------------------


class TestFrontEndWorkCounts:
    """Python-level calls per statement, counted by cProfile.

    A call count repeats exactly on any machine, so it can gate a ratio
    where a timing cannot: each path may use at most 15 % more calls per
    statement than it did when the front end was rewritten (PR 14).  The
    commit before that rewrite spent 1390 / 1024 / 2606 calls on the same
    pool and fails all three.
    """

    #: calls per statement when the guard was written
    PARSE_CALLS = 431.6
    OPTIMIZE_CALLS = 696.5
    FORECAST_MANY_CALLS = 1245.4
    SECOND_PASS_CALLS = 48.5
    HEADROOM = 1.15

    @pytest.fixture(scope="class")
    def statements(self):
        # Every built-in spec that runs on the tpcds catalog, mixed.
        pool = []
        for workload, count in (("tpcds", 100), ("analytics", 50), ("oltp", 50)):
            pool += generate_pool(count, seed=1409, workload=workload)
        return [instance.sql for instance in pool]

    @staticmethod
    def profiled(work) -> pstats.Stats:
        profile = cProfile.Profile()
        profile.enable()
        work()
        profile.disable()
        return pstats.Stats(profile)

    @classmethod
    def calls_per_statement(cls, work, statements) -> float:
        return cls.profiled(work).total_calls / len(statements)

    @pytest.fixture()
    def unwarmed(self, tpcds_catalog, config, mini_corpus):
        """A service of its own, so what its statement memo holds is
        what this test put there."""
        from repro.api import QueryPerformancePredictor

        service = QueryPerformancePredictor(tpcds_catalog, config=config)
        service.fit_corpus(mini_corpus)
        service.forecast("SELECT count(*) AS c FROM item i")  # lazy set-up
        return service

    def test_parse(self, statements):
        def work():
            for sql in statements:
                parse(sql)

        calls = self.calls_per_statement(work, statements)
        assert calls <= self.PARSE_CALLS * self.HEADROOM, calls

    def test_optimize(self, statements, optimizer):
        queries = [parse(sql) for sql in statements]

        def work():
            for query in queries:
                optimizer.optimize(query)

        calls = self.calls_per_statement(work, statements)
        assert calls <= self.OPTIMIZE_CALLS * self.HEADROOM, calls

    def test_forecast_many(self, statements, unwarmed):
        def work():
            for start in range(0, len(statements), 50):
                unwarmed.forecast_many(statements[start:start + 50])

        calls = self.calls_per_statement(work, statements)
        assert calls <= self.FORECAST_MANY_CALLS * self.HEADROOM, calls

    def test_second_pass_compiles_nothing(self, statements, unwarmed):
        """A repeated statement costs a memo lookup: no parse, no plan,
        and a twentieth of the interpreter calls.  It is answered with
        the forecast the memo holds, so nothing is scored.  Before the
        memo this pass made 200 + 200 of the first two calls and 1 245
        calls per statement, as on the first."""
        def work():
            for start in range(0, len(statements), 50):
                unwarmed.forecast_many(statements[start:start + 50])

        work()
        stats = self.profiled(work)

        def calls_to(module: str, function: str) -> int:
            return sum(
                count
                for (path, _line, name), (_cc, count, *_rest)
                in stats.stats.items()
                if name == function and path.endswith(module)
            )

        assert calls_to("sql/parser.py", "parse") == 0
        assert calls_to("optimizer/optimizer.py", "optimize") == 0
        assert calls_to("pipeline/pipeline.py", "score_many") == 0
        calls = stats.total_calls / len(statements)
        assert calls <= self.SECOND_PASS_CALLS * self.HEADROOM, calls


# ----------------------------------------------------------------------
# Sorts per group-by and per join (a perf guard without a clock)
# ----------------------------------------------------------------------


class TestEngineSortCounts:
    """Sorting work on integer keys, counted by cProfile.

    The engine's keys are small-range integer surrogates, so grouping and
    join matching are linear-time table look-ups; the one sort left is the
    stable argsort that lays out a join's build side.  The commit before
    the key kernels were rewritten (PR 16) made two ``np.unique`` calls, an
    argsort and a ``searchsorted`` over every group-by input and two
    ``searchsorted`` passes over every probe side, and fails both tests.
    """

    ROWS = 200_000
    BUILD_ROWS = 1_000
    _SORTS = re.compile(
        r"'(argsort|sort|searchsorted)' of 'numpy\.ndarray'"
        r"|lexsort"
    )

    @classmethod
    def sort_calls(cls, work) -> dict[str, int]:
        """Calls of NumPy's sorting primitives (and of ``np.unique``) in ``work``."""
        profile = cProfile.Profile()
        profile.enable()
        work()
        profile.disable()
        calls: dict[str, int] = {}
        for (path, _, name), (_, n_calls, *_) in pstats.Stats(profile).stats.items():
            match = cls._SORTS.search(name)
            if match:
                calls[match.group(1) or "lexsort"] = n_calls
            elif name == "unique" and path.endswith("_arraysetops_impl.py"):
                calls["unique"] = n_calls
        return calls

    def test_group_by_sum_count_never_sorts(self):
        rng = np.random.default_rng(16)
        batch = Batch(
            {
                "t.item": rng.integers(1, 900, self.ROWS),
                "t.year": rng.integers(1998, 2004, self.ROWS).astype(np.int32),
                "t.price": rng.random(self.ROWS),
            },
            self.ROWS,
        )
        price = parse("SELECT t.price FROM t").select[0].expr
        aggregates = [
            AggregateSpec("sum", price, "revenue"),
            AggregateSpec("count", None, "cnt"),
            AggregateSpec("avg", price, "mean"),
        ]

        def work():
            group_by_batch(batch, ["t.item"], aggregates)
            group_by_batch(batch, ["t.item", "t.year"], aggregates)

        assert self.sort_calls(work) == {}

    def test_hash_join_sorts_only_its_build_side(self, monkeypatch):
        rng = np.random.default_rng(16)
        keys = 2 * self.BUILD_ROWS
        probe = Batch({"l.k": rng.integers(0, keys, self.ROWS)}, self.ROWS)
        build = Batch({"r.k": rng.integers(0, keys, self.BUILD_ROWS)}, self.BUILD_ROWS)
        sorted_lengths = []
        argsort = np.argsort

        def recording_argsort(a, *args, **kwargs):
            sorted_lengths.append(len(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording_argsort)
        calls = self.sort_calls(
            lambda: hash_join_batches(probe, build, [("l.k", "r.k")])
        )
        assert calls == {"argsort": 1}
        assert sorted_lengths == [self.BUILD_ROWS]


# ----------------------------------------------------------------------
# Columns gathered per join (a perf guard without a clock)
# ----------------------------------------------------------------------


class TestJoinGathersOnlyWhatIsRead:
    """A 200 000 x 4 probe side joined to a 2 000 x 4 build side, grouped
    on one build column with one ``sum`` over one probe column.

    The commit before gathers were deferred wrote all eight columns of the
    join's 200 000-row output (1.6 M elements; ``tracemalloc`` peak of the
    two operators 16.0 MB) and fails the first test with 8; now the two
    columns the group-by reads are written (0.4 M elements, peak 9.6 MB —
    what is left is the join's own index arithmetic).
    """

    ROWS = 200_000
    BUILD_ROWS = 2_000

    @pytest.fixture()
    def sides(self):
        rng = np.random.default_rng(22)
        probe = {"l.k": rng.integers(0, self.BUILD_ROWS, self.ROWS)}
        probe.update({f"l.v{i}": rng.random(self.ROWS) for i in range(3)})
        build = {
            "r.k": np.arange(self.BUILD_ROWS),
            "r.g": rng.integers(0, 50, self.BUILD_ROWS),
        }
        build.update({f"r.w{i}": rng.random(self.BUILD_ROWS) for i in range(2)})
        return Batch(probe, self.ROWS), Batch(build, self.BUILD_ROWS)

    @staticmethod
    def gathered(batch: Batch) -> set[str]:
        """Names of the columns of ``batch`` that exist as arrays."""
        return {
            name
            for name, column in batch.columns.items()
            if isinstance(column, np.ndarray)
        }

    def test_group_by_over_a_join_gathers_its_two_columns(self, sides):
        probe, build = sides
        joined = hash_join_batches(probe, build, [("l.k", "r.k")])
        assert joined.n_rows == self.ROWS and len(joined.columns) == 8
        assert self.gathered(joined) == set()
        value = parse("SELECT l.v0 FROM l").select[0].expr
        out = group_by_batch(joined, ["r.g"], [AggregateSpec("sum", value, "total")])
        assert self.gathered(joined) == {"r.g", "l.v0"}
        expected = np.bincount(
            build.column("r.g")[probe.column("l.k")],
            weights=probe.column("l.v0"),
            minlength=50,
        )
        assert np.array_equal(out.column("total"), expected)

    def test_a_residual_predicate_gathers_what_it_reads(self, sides):
        probe, build = sides
        residual = parse("SELECT 1 FROM l WHERE l.v1 > r.w0").where
        joined = hash_join_batches(probe, build, [("l.k", "r.k")], residual)
        assert self.gathered(joined) == set()
        keep = probe.column("l.v1") > build.column("r.w0")[probe.column("l.k")]
        assert joined.n_rows == int(keep.sum())
        assert np.array_equal(joined.column("l.v2"), probe.column("l.v2")[keep])
        assert self.gathered(joined) == {"l.v2"}

    def test_a_column_read_twice_is_gathered_once(self, sides):
        probe, _build = sides
        taken = probe.take(np.arange(0, self.ROWS, 2)).take(np.arange(10))
        first = taken.column("l.v0")
        assert taken.column("l.v0") is first
        assert np.array_equal(first, probe.column("l.v0")[:20:2])

    def test_byte_accounting_reads_no_column(self, sides):
        probe, build = sides
        joined = hash_join_batches(probe, build, [("l.k", "r.k")])
        assert joined.row_bytes == probe.row_bytes + build.row_bytes == 64.0
        assert joined.total_bytes == 64.0 * self.ROWS
        assert self.gathered(joined) == set()
