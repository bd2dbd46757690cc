"""Determinism and correctness of the scaled train/serve hot paths:

* parallel corpus generation is bitwise identical to the serial build;
* the rewritten distance/kernel kernels match their reference formulas;
* the benchmark harness runs and emits a valid, JSON-able report;
* the statement front end stays within its budget of interpreter calls
  per statement, and a repeated statement makes none of them;
* a fitted or loaded model holds no N x N array, its artifact grows
  linearly in N, and what it holds instead equals the kernel expressions;
* the engine groups and joins integer keys without sorting them;
* a join gathers the columns something above it reads, and no others;
* a group-by factorises its key once, on the smallest array that holds
  it, and a join on unique build keys does not fan out.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re

import numpy as np
import pytest

from repro.core.kcca import center_kernel
from repro.core.kernels import (
    PERFORMANCE_SCALE_FRACTION,
    cross_squared_distances,
    gaussian_kernel_cross,
    gaussian_kernel_matrix,
    scale_factor_heuristic,
)
from repro.core.neighbors import nearest_neighbors
from repro.core.predictor import KCCAPredictor, _Standardizer
from repro.engine import Executor
from repro.engine.operators import (
    Batch,
    equi_join_indices,
    group_by_batch,
    hash_join_batches,
)
from repro.engine.plan import AggregateSpec
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
from repro.optimizer import Optimizer
from repro.pipeline import PredictionPipeline
from repro.sql.parser import parse
from repro.storage import partition
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
# What a KCCA fit keeps
# ----------------------------------------------------------------------


class TestKeptKCCAState:
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
        fitted = PredictionPipeline().fit(features, performance)
        fitted.save(path)
        for model in (fitted.model, PredictionPipeline.load(path).model):
            kcca = model._kcca
            largest = n * max(kcca.n_components, width)
            sizes = [
                item.size
                for value in (*vars(kcca).values(), *vars(model).values())
                for item in (value if isinstance(value, tuple) else (value,))
                if isinstance(item, np.ndarray)
            ]
            assert len(sizes) >= 5  # the walk does see the fitted arrays
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

    def test_kept_state_equals_the_kernel_expressions(self, tmp_path):
        """The projections and centring constants a model keeps are the
        bits the N x N kernels give, recomputed here from the kernels.  The
        performance projection is ``Ky Ay^-1 v``, read off the fit's own
        solve of ``Ay`` (both are symmetric); an artifact does not keep it."""
        features, performance = _synthetic(120)
        pipeline = PredictionPipeline(model=KCCAPredictor())
        model = pipeline.fit(features, performance).model
        kcca = model._kcca
        fx = model._x_scaler.transform(features)
        fy = _Standardizer(True, True).fit_transform(performance)
        kx = gaussian_kernel_matrix(fx, model._tau_x)
        ky = gaussian_kernel_matrix(
            fy, scale_factor_heuristic(fy, PERFORMANCE_SCALE_FRACTION)
        )
        kx_c, ky_c = center_kernel(kx), center_kernel(ky)
        ridge = kcca.regularization * len(features) * np.eye(len(features))
        px = np.linalg.solve(kx_c + ridge, kx_c)
        py = np.linalg.solve(ky_c + ridge, ky_c)
        vt = np.linalg.svd(px @ py.T, full_matrices=False)[2]
        assert np.array_equal(model.query_projection, kx_c @ kcca.alpha)
        assert np.array_equal(
            model.performance_projection, py.T @ vt[: kcca.n_components].T
        )
        column_means, grand_mean = kcca._centering
        assert np.array_equal(column_means, kx.mean(axis=0, keepdims=True))
        assert grand_mean == kx.mean()

        path = tmp_path / "model.npz"
        pipeline.save(path)
        loaded = PredictionPipeline.load(path).model
        assert np.array_equal(loaded.query_projection, model.query_projection)
        assert np.array_equal(loaded._kcca._centering[0], column_means)
        assert loaded._kcca._centering[1] == grand_mean


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
            lambda: hash_join_batches(probe, build, [("l.k", "r.k")])[0].gathered()
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
        """The value column is gathered when the sum is first read, not
        when the group-by runs; the key is ranked on its 2 000 build rows
        and only its codes are gathered, so the join output's ``r.g`` stays
        deferred."""
        probe, build = sides
        joined, _ = hash_join_batches(probe, build, [("l.k", "r.k")])
        assert joined.n_rows == self.ROWS and len(joined.columns) == 8
        assert self.gathered(joined) == set()
        value = parse("SELECT l.v0 FROM l").select[0].expr
        out = group_by_batch(joined, ["r.g"], [AggregateSpec("sum", value, "total")])
        assert self.gathered(joined) == set()
        assert np.array_equal(out.column("r.g"), np.unique(build.column("r.g")))
        out.column("total")
        assert self.gathered(joined) == {"l.v0"}
        expected = np.bincount(
            build.column("r.g")[probe.column("l.k")],
            weights=probe.column("l.v0"),
            minlength=50,
        )
        assert np.array_equal(out.column("total"), expected)

    def test_a_residual_predicate_gathers_what_it_reads(self, sides):
        probe, build = sides
        residual = parse("SELECT 1 FROM l WHERE l.v1 > r.w0").where
        joined, _ = hash_join_batches(probe, build, [("l.k", "r.k")], residual)
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
        joined, _ = hash_join_batches(probe, build, [("l.k", "r.k")])
        assert joined.row_bytes == probe.row_bytes + build.row_bytes == 64.0
        assert joined.total_bytes == 64.0 * self.ROWS
        assert self.gathered(joined) == set()


# ----------------------------------------------------------------------
# One factorisation per group key (a perf guard without a clock)
# ----------------------------------------------------------------------


class TestGroupKeyFactorisedOnce:
    """What a group-by and a join hand to NumPy, recorded by wrapping the
    calls.  The commit before the group key was factorised once hashed
    every input row of a group-by again for the skew model, sorted a string
    key reached through a join over every joined row, and expanded a join
    on unique build keys with two ``np.repeat`` calls over its output; it
    fails all three tests."""

    ROWS = 200_000
    BUILD_ROWS = 2_000

    @staticmethod
    def recorded(monkeypatch, owner, name) -> list[int]:
        """Lengths of the first argument of every call to ``owner.name``."""
        lengths: list[int] = []
        real = getattr(owner, name)

        def recording(values, *args, **kwargs):
            lengths.append(len(values))
            return real(values, *args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return lengths

    def test_skew_model_hashes_one_key_per_group(
        self, tpcds_catalog, config, monkeypatch
    ):
        plan = Optimizer(tpcds_catalog, config).optimize(
            "SELECT ss.ss_store_sk, count(*) AS c FROM store_sales ss "
            "GROUP BY ss.ss_store_sk"
        ).plan
        executor = Executor(tpcds_catalog, config)
        executor.execute(plan)  # the scan's own skew is computed once, here
        hashed = self.recorded(monkeypatch, partition, "hash_partition")
        result = executor.execute(plan)
        assert tpcds_catalog.table("store_sales").n_rows > 100 * result.n_rows
        assert hashed == [result.n_rows]

    def test_string_key_through_a_join_is_sorted_over_its_source(self, monkeypatch):
        rng = np.random.default_rng(41)
        probe = Batch(
            {
                "l.k": rng.integers(0, self.BUILD_ROWS, self.ROWS),
                "l.v": rng.random(self.ROWS),
            },
            self.ROWS,
        )
        categories = np.array(["Books", "Home", "Music", "Sports", "Women"])
        build = Batch(
            {
                "r.k": np.arange(self.BUILD_ROWS),
                "r.category": categories[rng.integers(0, 5, self.BUILD_ROWS)],
            },
            self.BUILD_ROWS,
        )
        joined, _ = hash_join_batches(probe, build, [("l.k", "r.k")])
        sorted_lengths = self.recorded(monkeypatch, np, "unique")
        value = parse("SELECT l.v FROM l").select[0].expr
        out = group_by_batch(
            joined, ["r.category"], [AggregateSpec("sum", value, "total")]
        )
        assert out.column("r.category").tolist() == categories.tolist()
        assert sorted_lengths and max(sorted_lengths) <= self.BUILD_ROWS

    def test_join_on_unique_build_keys_does_not_fan_out(self, monkeypatch):
        rng = np.random.default_rng(41)
        probe = Batch({"l.k": rng.integers(0, 2 * self.BUILD_ROWS, self.ROWS)}, self.ROWS)
        build = Batch({"r.k": rng.permutation(self.BUILD_ROWS)}, self.BUILD_ROWS)
        repeated = self.recorded(monkeypatch, np, "repeat")
        joined, _ = hash_join_batches(probe, build, [("l.k", "r.k")])
        assert repeated == []
        matched = probe.column("l.k") < self.BUILD_ROWS
        assert joined.n_rows == int(matched.sum())
        assert np.array_equal(joined.column("l.k"), joined.column("r.k"))


# ----------------------------------------------------------------------
# A join's fan-out expanded only when read (a perf guard without a clock)
# ----------------------------------------------------------------------


class TestFanOutExpandedOnlyWhenRead:
    """Two store self-joins, each grouped on one side with ``count(*)``
    and ``sum``, whose output is made of far more rows than their input:

    * ``store``, on ``ss_store_sk`` (seven stores): 495 455 output rows,
      120 times its 4 122 input rows.  The engine used to expand the join
      with two ``np.repeat`` calls over its output, count the groups and
      sum with ``np.bincount`` over every output row, all before anything
      read the answer;
    * ``affinity``, the shape of ``problem_item_affinity``: on
      ``ss_item_sk`` with the residual ``ss1.ss_store_sk <>
      ss2.ss_store_sk``, 243 178 of its 289 411 key-matched pairs kept,
      15 times its 16 259 input rows.  The engine used to expand every
      key-matched pair and evaluate the residual on it, read or not.

    The engine before each of those changes fails both tests of its
    shape."""

    #: shape -> (join key, the column a ``<>`` residual compares or None,
    #: the ss1 and ss2 quantity bounds, the least output-to-input ratio)
    SHAPES = {
        "store": ("ss_store_sk", None, 3, 6, 100),
        "affinity": ("ss_item_sk", "ss_store_sk", 10, 20, 10),
    }
    PRICE = parse("SELECT ss2.ss_sales_price FROM ss2").select[0].expr

    @classmethod
    def sql(cls, shape: str) -> str:
        key, unequal, ss1, ss2, _ = cls.SHAPES[shape]
        residual = f"AND ss1.{unequal} <> ss2.{unequal} " if unequal else ""
        return (
            "SELECT ss1.ss_item_sk, count(*) AS c, sum(ss2.ss_sales_price) AS s "
            "FROM store_sales ss1, store_sales ss2 "
            f"WHERE ss1.{key} = ss2.{key} {residual}AND ss1.ss_quantity < {ss1} "
            f"AND ss2.ss_quantity < {ss2} GROUP BY ss1.ss_item_sk"
        )

    @staticmethod
    def recorded(monkeypatch) -> list[int]:
        """Lengths of the inputs and results of every ``np.repeat`` and
        ``np.bincount`` call."""
        lengths: list[int] = []
        for name in ("repeat", "bincount"):
            real = getattr(np, name)

            def recording(values, *args, _real=real, **kwargs):
                result = _real(values, *args, **kwargs)
                lengths.extend((len(values), len(result)))
                return result

            monkeypatch.setattr(np, name, recording)
        return lengths

    def join(self, catalog, shape: str, plan) -> tuple[dict, dict, int]:
        """Each side's rows as the scans select them, the table row each
        output row reads on each side, in the order of the plan's join,
        and the number of key-matched pairs."""
        key, unequal, ss1, ss2, _ = self.SHAPES[shape]
        table = catalog.table("store_sales")
        quantity = table.column("ss_quantity")
        sides = {"ss1": np.flatnonzero(quantity < ss1),
                 "ss2": np.flatnonzero(quantity < ss2)}
        (join,) = [node for node in plan.walk() if node.join_pairs]
        probe, build = (name.split(".")[0] for name in join.join_pairs[0])
        column = table.column(key)
        li, ri = equi_join_indices([column[sides[probe]]], [column[sides[build]]])
        rows = {probe: sides[probe][li], build: sides[build][ri]}
        if unequal is not None:
            values = table.column(unequal)
            keep = values[rows["ss1"]] != values[rows["ss2"]]
            rows = {name: side[keep] for name, side in rows.items()}
        return sides, rows, len(li)

    def metrics_expand_nothing(self, catalog, config, shape, monkeypatch) -> None:
        plan = Optimizer(catalog, config).optimize(self.sql(shape)).plan
        executor = Executor(catalog, config)
        executor.execute(plan)  # the scans' own skew is computed once, here
        sides, rows, _ = self.join(catalog, shape, plan)
        output = len(rows["ss1"])
        ratio = self.SHAPES[shape][-1]
        assert output >= ratio * (len(sides["ss1"]) + len(sides["ss2"]))
        lengths = self.recorded(monkeypatch)
        result = executor.execute(plan)
        assert result.metrics.rows_returned == result.n_rows
        assert lengths and max(lengths) < output

    def answer_is_expanded_when_read(self, catalog, config, shape, monkeypatch) -> None:
        plan = Optimizer(catalog, config).optimize(self.sql(shape)).plan
        executor = Executor(catalog, config)
        executor.execute(plan)
        _, rows, matched = self.join(catalog, shape, plan)
        output = len(rows["ss1"])
        lengths = self.recorded(monkeypatch)
        result = executor.execute(plan)
        assert max(lengths) < output
        batch = result.batch
        # Reading expands the key-matched pairs: as many as the output
        # rows when no residual drops one.
        assert max(lengths) == matched
        monkeypatch.undo()
        assert all(type(column) is np.ndarray for column in batch.columns.values())
        # The same group-by over the join's output gathered first.
        table = catalog.table("store_sales")
        eager = Batch(
            {
                "ss1.ss_item_sk": table.column("ss_item_sk")[rows["ss1"]],
                "ss2.ss_sales_price": table.column("ss_sales_price")[rows["ss2"]],
            },
            output,
        )
        expected = group_by_batch(
            eager, ["ss1.ss_item_sk"], [AggregateSpec("sum", self.PRICE, "s")]
        )
        assert result.n_rows == expected.n_rows
        for name in ("ss1.ss_item_sk", "s"):
            assert batch.column(name).tobytes() == expected.column(name).tobytes()
        assert batch.column("c").tolist() == np.bincount(
            np.unique(eager.column("ss1.ss_item_sk"), return_inverse=True)[1]
        ).tolist()

    def test_metrics_expand_nothing(self, tpcds_catalog, config, monkeypatch):
        self.metrics_expand_nothing(tpcds_catalog, config, "store", monkeypatch)

    def test_the_answer_is_expanded_when_read(self, tpcds_catalog, config, monkeypatch):
        self.answer_is_expanded_when_read(tpcds_catalog, config, "store", monkeypatch)

    def test_affinity_metrics_expand_nothing(self, tpcds_catalog, config, monkeypatch):
        self.metrics_expand_nothing(tpcds_catalog, config, "affinity", monkeypatch)

    def test_affinity_answer_is_expanded_when_read(
        self, tpcds_catalog, config, monkeypatch
    ):
        self.answer_is_expanded_when_read(
            tpcds_catalog, config, "affinity", monkeypatch
        )
