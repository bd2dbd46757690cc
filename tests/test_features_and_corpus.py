"""Feature vectors, corpus construction/caching, splits, report rendering."""

import numpy as np
import pytest

from repro.core.features import (
    PLAN_FEATURE_NAMES,
    plan_feature_matrix,
    plan_feature_vector,
)
from repro.engine.metrics import METRIC_NAMES
from repro.errors import ReproError
from repro.experiments.corpus import (
    load_corpus,
    load_or_build_corpus,
    save_corpus,
)
from repro.experiments.harness import (
    evaluate_metrics,
    split_counts,
    stratified_split,
)
from repro.experiments.report import (
    format_pool_table,
    format_risk_table,
    format_value,
    hms,
)
from repro.workloads.categories import QueryCategory


class TestPlanFeatures:
    def test_vector_width_matches_names(self, optimizer):
        plan = optimizer.optimize("SELECT * FROM item i").plan
        vector = plan_feature_vector(plan)
        assert vector.shape == (len(PLAN_FEATURE_NAMES),)

    def test_counts_and_cardinalities(self, optimizer):
        plan = optimizer.optimize(
            "SELECT count(*) AS c FROM store_sales ss, item i "
            "WHERE ss.ss_item_sk = i.i_item_sk"
        ).plan
        vector = plan_feature_vector(plan)
        features = dict(zip(PLAN_FEATURE_NAMES, vector))
        assert features["file_scan_count"] == 2
        assert features["hash_join_count"] == 1
        assert features["hash_join_cardinality"] > 0
        assert features["nested_join_count"] == 0

    def test_cardinality_sums_use_estimates(self, optimizer):
        plan = optimizer.optimize("SELECT * FROM store_sales ss").plan
        features = dict(zip(PLAN_FEATURE_NAMES, plan_feature_vector(plan)))
        # Unfiltered scan: the estimate equals the table row count.
        assert features["file_scan_cardinality"] == pytest.approx(
            plan.walk().__next__().estimated_rows, rel=1.0
        )

    def test_plan_feature_matrix_stacks_the_vectors(self, optimizer):
        plans = [
            optimizer.optimize("SELECT * FROM item i").plan,
            optimizer.optimize("SELECT * FROM store s").plan,
        ]
        matrix = plan_feature_matrix(plans)
        assert matrix.shape == (2, len(PLAN_FEATURE_NAMES))
        assert np.array_equal(
            matrix, np.vstack([plan_feature_vector(plan) for plan in plans])
        )

    def test_different_queries_different_vectors(self, optimizer):
        v1 = plan_feature_vector(
            optimizer.optimize("SELECT * FROM item i").plan
        )
        v2 = plan_feature_vector(
            optimizer.optimize(
                "SELECT count(*) AS c FROM store_sales ss, item i "
                "WHERE ss.ss_item_sk = i.i_item_sk GROUP BY i.i_category"
            ).plan
        )
        assert not np.array_equal(v1, v2)


class TestCorpus:
    def test_mini_corpus_shapes(self, mini_corpus):
        n = len(mini_corpus)
        assert n == 140
        assert mini_corpus.feature_matrix().shape == (
            n, len(PLAN_FEATURE_NAMES)
        )
        assert mini_corpus.sql_feature_matrix().shape == (n, 9)
        assert mini_corpus.performance_matrix().shape == (n, 6)
        assert len(mini_corpus.elapsed_times()) == n

    def test_metrics_are_physical(self, mini_corpus):
        perf = mini_corpus.performance_matrix()
        assert (perf >= 0).all()
        elapsed = mini_corpus.elapsed_times()
        assert (elapsed > 0).all()

    def test_records_used_le_accessed(self, mini_corpus):
        accessed = mini_corpus.performance_matrix()[
            :, METRIC_NAMES.index("records_accessed")
        ]
        used = mini_corpus.performance_matrix()[
            :, METRIC_NAMES.index("records_used")
        ]
        assert (used <= accessed).all()

    def test_subset_preserves_order(self, mini_corpus):
        subset = mini_corpus.subset([5, 2, 9])
        assert subset.queries[0].query_id == mini_corpus.queries[5].query_id
        assert len(subset) == 3

    def test_category_indices_partition(self, mini_corpus):
        indices = mini_corpus.category_indices()
        total = sum(len(v) for v in indices.values())
        assert total == len(mini_corpus)

    def test_save_load_round_trip(self, mini_corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        save_corpus(mini_corpus, path)
        loaded = load_corpus(path)
        assert len(loaded) == len(mini_corpus)
        assert loaded.config_name == mini_corpus.config_name
        assert np.allclose(
            loaded.feature_matrix(), mini_corpus.feature_matrix()
        )
        assert np.allclose(
            loaded.performance_matrix(), mini_corpus.performance_matrix()
        )
        assert loaded.queries[7].sql == mini_corpus.queries[7].sql
        assert loaded.queries[7].template == mini_corpus.queries[7].template

    def test_version_mismatch_rejected(self, mini_corpus, tmp_path):
        import repro.experiments.corpus as corpus_module

        path = tmp_path / "corpus.npz"
        save_corpus(mini_corpus, path)
        original = corpus_module.CORPUS_FORMAT_VERSION
        corpus_module.CORPUS_FORMAT_VERSION = original + 1
        try:
            with pytest.raises(ReproError):
                load_corpus(path)
        finally:
            corpus_module.CORPUS_FORMAT_VERSION = original

    def test_load_or_build_uses_cache(self, mini_corpus, tmp_path):
        path = tmp_path / "c.npz"
        calls = []

        def builder():
            calls.append(1)
            return mini_corpus

        first = load_or_build_corpus(path, builder)
        second = load_or_build_corpus(path, builder)
        assert len(calls) == 1
        assert len(first) == len(second)

    def test_truncated_cache_is_a_typed_error_and_rebuilt(
        self, mini_corpus, tmp_path
    ):
        """A cache that is not a whole archive was a raw BadZipFile."""
        path = tmp_path / "c.npz"
        save_corpus(mini_corpus, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ReproError, match="cannot read corpus cache"):
            load_corpus(path)
        calls = []

        def builder():
            calls.append(1)
            return mini_corpus

        rebuilt = load_or_build_corpus(path, builder)
        assert calls == [1] and len(rebuilt) == len(mini_corpus)
        assert len(load_corpus(path)) == len(mini_corpus)

    def test_build_lints_no_plan(self, tpcds_catalog, config, monkeypatch):
        """An executed query keeps no lint warnings, so a build computes
        none (the optimizer used to lint every plan it built)."""
        import repro.optimizer.optimizer as optimizer_module
        from repro.experiments.corpus import build_corpus
        from repro.workloads.generator import generate_pool

        linted = []
        real = optimizer_module.lint_plan

        def counting(plan, *args, **kwargs):
            linted.append(plan)
            return real(plan, *args, **kwargs)

        monkeypatch.setattr(optimizer_module, "lint_plan", counting)
        corpus = build_corpus(
            tpcds_catalog, config, generate_pool(12, seed=43, problem_fraction=0.0)
        )
        assert len(corpus) == 12
        assert linted == []

    def test_executed_query_helpers(self, mini_corpus):
        query = mini_corpus.queries[0]
        assert query.elapsed_time == query.performance[0]
        assert query.category.value in (
            "feather", "golf_ball", "bowling_ball", "wrecking_ball"
        )
        assert query.metrics.records_accessed >= 0


class TestStratifiedSplit:
    def test_counts_respected(self, mini_corpus):
        available = mini_corpus.category_indices()
        n_feathers = len(available.get(QueryCategory.FEATHER, []))
        train_counts, test_counts = split_counts(
            min(40, n_feathers - 5), 0, 0, 5, 0, 0
        )
        train, test = stratified_split(
            mini_corpus, train_counts, test_counts, seed=1
        )
        assert len(test) == 5
        assert len(train) == min(40, n_feathers - 5)

    def test_train_test_disjoint(self, mini_corpus):
        train_counts, test_counts = split_counts(30, 5, 0, 10, 2, 0)
        train, test = stratified_split(
            mini_corpus, train_counts, test_counts, seed=2
        )
        train_ids = {q.query_id for q in train.queries}
        test_ids = {q.query_id for q in test.queries}
        assert not train_ids & test_ids

    def test_deterministic(self, mini_corpus):
        train_counts, test_counts = split_counts(20, 0, 0, 5, 0, 0)
        a = stratified_split(mini_corpus, train_counts, test_counts, seed=3)
        b = stratified_split(mini_corpus, train_counts, test_counts, seed=3)
        assert [q.query_id for q in a[0].queries] == [
            q.query_id for q in b[0].queries
        ]

    def test_missing_category_raises(self, mini_corpus):
        counts = {QueryCategory.WRECKING_BALL: 5}
        with pytest.raises(ReproError):
            stratified_split(mini_corpus, counts, {}, seed=1)


class TestEvaluateAndReport:
    def test_evaluate_metrics_keys(self):
        predicted = np.random.default_rng(0).uniform(1, 2, (10, 6))
        actual = predicted * 1.01
        risks = evaluate_metrics(predicted, actual)
        assert set(risks) == set(METRIC_NAMES)
        assert all(risk > 0.9 for risk in risks.values())

    def test_degenerate_metric_is_nan(self):
        predicted = np.ones((5, 6))
        actual = np.ones((5, 6))
        risks = evaluate_metrics(predicted, actual)
        assert all(np.isnan(v) for v in risks.values())

    def test_format_value_null(self):
        assert format_value(float("nan")) == "Null"
        assert "0.55" in format_value(0.55)

    def test_risk_table_contains_all_metrics(self):
        table = format_risk_table(
            {"Euclidean": {m: 0.5 for m in METRIC_NAMES}},
            title="Table I",
        )
        assert "Table I" in table
        assert "Elapsed Time" in table
        assert "Message Bytes" in table

    def test_hms(self):
        assert hms(0) == "00:00:00"
        assert hms(59.6) == "00:01:00"
        assert hms(3661) == "01:01:01"
        assert hms(7199.4) == "01:59:59"

    def test_pool_table(self):
        from repro.experiments.experiments import PoolRow

        table = format_pool_table(
            [PoolRow("feather", 100, 8.0, 0.5, 179.0)]
        )
        assert "feather" in table
        assert "100" in table
