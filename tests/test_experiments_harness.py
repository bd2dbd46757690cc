"""The experiment table exercised without the measured corpora.

The full-size floors run in ``python -m repro.experiments`` (the CI
``experiments`` job); these tests check that every runner returns
well-formed results on a small executed corpus, that every row renders
and checks its floors, that EXPERIMENTS.md carries the table's paper
values, and that a failed floor or an off-pin corpus fails the command.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.engine.metrics import METRIC_NAMES
from repro.errors import ReproError
from repro.experiments import experiments as exp
from repro.experiments.ablations import (
    ablation_components,
    ablation_feature_encoding,
    ablation_model_classes,
    ablation_regularization,
    timing_profile,
)
from repro.experiments.corpus import save_corpus
from repro.experiments.experiments import (
    fig2_query_pools,
    fig3_fig4_regression,
    fig6_projections,
    fig8_sql_text_features,
    fig10_to_12_experiment1,
    fig14_experiment3,
    fig17_optimizer_cost,
    sec7c3_confidence,
    sec8_calibrated_cost,
    tab1_distance_metrics,
    tab2_neighbor_counts,
    tab3_weighting_schemes,
)
from repro.experiments.harness import split_counts, stratified_split
from repro.workloads.categories import QueryCategory


@pytest.fixture(scope="module")
def small_split(mini_corpus):
    """A small train/test split over whatever categories exist."""
    available = mini_corpus.category_indices()
    n_feather = len(available.get(QueryCategory.FEATHER, []))
    n_golf = len(available.get(QueryCategory.GOLF_BALL, []))
    train_counts, test_counts = split_counts(
        max(n_feather - 12, 10), max(n_golf - 2, 0), 0, 12, 2, 0
    )
    return stratified_split(mini_corpus, train_counts, test_counts, seed=4)


class TestFig2:
    def test_rows_cover_corpus(self, mini_corpus):
        rows = fig2_query_pools(mini_corpus)
        assert sum(row.count for row in rows) == len(mini_corpus)
        for row in rows:
            assert row.min_s <= row.mean_s <= row.max_s


class TestRegressionExperiment:
    def test_structure(self, small_split):
        train, _test = small_split
        results = fig3_fig4_regression(train)
        assert set(results) == set(METRIC_NAMES)
        for result in results.values():
            assert result.n_queries == len(train)
            assert result.negative_predictions >= 0


class TestFeatureAndDesignTables:
    def test_fig8_returns_both_risks(self, small_split):
        result = fig8_sql_text_features(small_split)
        assert set(result.sql_text_risk) == set(METRIC_NAMES)
        assert set(result.plan_risk) == set(METRIC_NAMES)

    def test_tab1_both_metrics_present(self, small_split):
        results = tab1_distance_metrics(small_split)
        assert set(results) == {"euclidean", "cosine"}

    def test_tab2_all_ks(self, small_split):
        results = tab2_neighbor_counts(small_split, ks=(3, 4, 5))
        assert set(results) == {3, 4, 5}

    def test_tab3_all_schemes(self, small_split):
        results = tab3_weighting_schemes(small_split)
        assert set(results) == {"equal", "ranked", "distance"}


class TestExperiment1Style:
    def test_result_fields(self, small_split):
        result = fig10_to_12_experiment1(small_split)
        assert result.n_test == len(small_split[1])
        assert 0.0 <= result.within_20pct_elapsed <= 1.0
        assert result.predicted.shape == result.actual.shape

    def test_kcca_beats_sql_features_even_small(self, small_split):
        """The plan-vs-SQL-text gap should already show on a small corpus."""
        comparison = fig8_sql_text_features(small_split)
        assert (
            comparison.plan_risk["elapsed_time"]
            > comparison.sql_text_risk["elapsed_time"]
        )


class TestTwoStep:
    def test_fig14_structure(self, small_split):
        result = fig14_experiment3(small_split)
        assert 0.0 <= result.classification_accuracy <= 1.0
        assert set(result.two_step_risk) == set(METRIC_NAMES)


class TestOptimizerCost:
    def test_fig17_structure(self, small_split):
        result = fig17_optimizer_cost(small_split)
        assert -1.0 <= result.log_correlation <= 1.0
        assert 0.0 <= result.within_10x_of_fit <= 1.0
        assert result.within_100x_of_fit >= result.within_10x_of_fit


class TestAblations:
    def test_regularization_grid(self, small_split):
        train, test = small_split
        results = ablation_regularization(train, test, values=(1e-3, 1e-2))
        assert set(results) == {1e-3, 1e-2}

    def test_components_grid(self, small_split):
        train, test = small_split
        results = ablation_components(train, test, values=(2, 8))
        assert set(results) == {2, 8}

    def test_feature_encoding_keys(self, small_split):
        train, test = small_split
        results = ablation_feature_encoding(train, test)
        assert "raw (paper)" in results
        assert "log+standardize" in results

    def test_model_classes(self, small_split):
        train, test = small_split
        results = ablation_model_classes(train, test)
        assert {"kcca+knn", "knn-raw", "linear-cca+knn", "regression"} == set(
            results
        )

    def test_timing_profile(self, mini_corpus):
        profile = timing_profile(mini_corpus, sizes=(40, 80), n_predict=10)
        assert len(profile.train_sizes) == 2
        assert profile.predict_seconds_per_query < 1.0


class TestExtensionRunners:
    def test_fig6_structure(self, small_split):
        result = fig6_projections(small_split)
        assert result.canonical_correlations[0] >= result.canonical_correlations[-1]
        assert -1.0 <= result.empirical_correlation <= 1.0
        assert 0.0 <= result.category_agreement <= 1.0

    def test_confidence_counts(self, small_split, mini_corpus):
        result = sec7c3_confidence(small_split, mini_corpus)
        assert result.n_in == len(small_split[1])
        assert result.n_out == len(mini_corpus)
        assert 0 <= result.out_flagged <= result.n_out

    def test_calibration_scatter(self, small_split):
        calibration = sec8_calibrated_cost(small_split)
        assert calibration.max_scatter >= calibration.median_scatter >= 1.0


REPO_ROOT = Path(__file__).resolve().parents[1]

#: Rows a small corpus cannot stand in for: Experiment 2 needs bowling
#: balls, Figure 16 four 380-query corpora, the sliding window 100
#: queries in each half of the training set, and the family report
#: builds its own corpora.
_FULL_SIZE_ONLY = {"fig13", "fig16", "sec8-online", "families"}


class TestExperimentTable:
    def test_row_ids_are_unique(self):
        ids = [row.id for row in exp.EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_rows_read_only_pinned_corpora(self):
        for row in exp.EXPERIMENTS:
            assert set(row.corpora) <= set(exp.CORPORA), row.id

    def test_experiments_md_carries_each_rows_paper_text(self):
        """Each paper value is written once, in the table: EXPERIMENTS.md
        must show every row's paper text exactly as the table renders it."""
        document = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for row in exp.EXPERIMENTS:
            assert f"## {row.title}\n\n{exp.paper_text(row)}\n" in document, row.id

    @pytest.mark.parametrize(
        "row_id",
        [row.id for row in exp.EXPERIMENTS if row.id not in _FULL_SIZE_ONLY],
    )
    def test_row_renders_and_checks_on_a_small_corpus(
        self, row_id, small_split, mini_corpus, monkeypatch
    ):
        monkeypatch.setattr(exp, "experiment1_split", lambda corpus: small_split)
        row = next(r for r in exp.EXPERIMENTS if r.id == row_id)
        result = row.run(*(mini_corpus for _ in row.corpora))
        verdicts = [floor.verdict(result) for floor in row.floors]
        assert all(isinstance(held, bool) for _value, held in verdicts)
        section = exp._section(
            row, result, [(f, *v) for f, v in zip(row.floors, verdicts)]
        )
        assert section[0] == f"## {row.title}"

    def test_a_failed_floor_fails_the_command(
        self, small_split, tmp_path, monkeypatch, capsys
    ):
        row = next(r for r in exp.EXPERIMENTS if r.id == "fig10-12")
        result = dataclasses.replace(
            fig10_to_12_experiment1(small_split),
            n_train=1027, n_test=61, within_20pct_elapsed=0.80,
        )
        stub = dataclasses.replace(row, corpora=(), run=lambda: result)
        document = tmp_path / "EXPERIMENTS.md"
        monkeypatch.setattr(exp, "EXPERIMENTS", (stub,))
        monkeypatch.setattr(exp, "_DOCUMENT", document)
        assert exp.main() == 1
        floor = "share of test queries within 20 % on elapsed time >= 0.85"
        assert f"FAIL fig10-12: floor '{floor}' failed (measured 0.8)" in (
            capsys.readouterr().err
        )
        assert f"- ✘ {floor}" in document.read_text(encoding="utf-8")

    def test_an_off_pin_corpus_is_refused(
        self, mini_corpus, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        save_corpus(mini_corpus, tmp_path / "mini.npz")
        digest = hashlib.sha256((tmp_path / "mini.npz").read_bytes()).hexdigest()
        pin = exp.PinnedCorpus("mini", build=None, sha256="0" * 64)
        with pytest.raises(ReproError) as excinfo:
            pin.load()
        assert digest in str(excinfo.value)
        assert "0" * 64 in str(excinfo.value)

        row = next(r for r in exp.EXPERIMENTS if r.id == "fig2")
        monkeypatch.setattr(exp, "CORPORA", {"mini": pin})
        monkeypatch.setattr(exp, "EXPERIMENTS", (
            dataclasses.replace(row, corpora=("mini",)),
        ))
        monkeypatch.setattr(exp, "_DOCUMENT", tmp_path / "EXPERIMENTS.md")
        assert exp.main() == 1
        assert digest in capsys.readouterr().err
        assert not (tmp_path / "EXPERIMENTS.md").exists()
