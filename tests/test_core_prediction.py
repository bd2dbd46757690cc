"""Tests for neighbours, accuracy metrics, predictor, two-step, confidence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confidence import ConfidenceModel, neighbor_confidence
from repro.core.metrics import (
    classification_accuracy,
    confusion_matrix,
    predictive_risk,
    predictive_risk_without_outliers,
    within_factor_fraction,
    within_fraction,
)
from repro.core.neighbors import combine_neighbors, nearest_neighbors
from repro.core.predictor import KCCAPredictor
from repro.core.two_step import TwoStepPredictor
from repro.errors import ModelError, NotFittedError


class TestNearestNeighbors:
    def test_nearest_first(self):
        reference = np.array([[0.0], [1.0], [10.0]])
        indices, distances = nearest_neighbors(np.array([[0.2]]), reference, 2)
        assert list(indices[0]) == [0, 1]
        assert distances[0][0] == pytest.approx(0.2)

    def test_k_clamped_to_reference_size(self):
        reference = np.array([[0.0], [1.0]])
        indices, _ = nearest_neighbors(np.array([[0.0]]), reference, 10)
        assert indices.shape == (1, 2)

    def test_cosine_vs_euclidean_differ(self):
        reference = np.array([[1.0, 0.0], [8.0, 0.5]])
        point = np.array([[5.0, 0.0]])
        euclid, _ = nearest_neighbors(point, reference, 1, "euclidean")
        cosine, _ = nearest_neighbors(point, reference, 1, "cosine")
        assert euclid[0][0] == 1  # magnitude-wise closer to [8, .5]
        assert cosine[0][0] == 0  # direction-wise identical to [1, 0]

    def test_batch_queries(self):
        reference = np.arange(10, dtype=float).reshape(-1, 1)
        points = np.array([[0.1], [8.9]])
        indices, _ = nearest_neighbors(points, reference, 1)
        assert list(indices[:, 0]) == [0, 9]

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_ties_resolve_by_index_whatever_the_batch(self, metric):
        """More coincident reference rows than k: the lowest indices win,
        alone or batched, at exactly the same distances.  The query sits
        one ulp off the duplicates, as a re-projected training query
        does: the all-pairs distance then reads 0 or ~5e-9 depending on
        the batch it is computed in."""
        rng = np.random.default_rng(2)
        reference = rng.normal(size=(200, 12)) * 0.1
        duplicates = [151, 17, 95, 60]
        reference[duplicates] = reference[duplicates[0]]
        points = rng.normal(size=(40, 12)) * 0.1
        points[14] = np.nextafter(reference[duplicates[0]], np.inf)
        batched_idx, batched_dist = nearest_neighbors(
            points, reference, 3, metric
        )
        assert list(batched_idx[14]) == [17, 60, 95]
        assert list(batched_dist[14]) == [0.0, 0.0, 0.0]
        for row in range(points.shape[0]):
            single_idx, single_dist = nearest_neighbors(
                points[row], reference, 3, metric
            )
            assert np.array_equal(single_idx[0], batched_idx[row])
            assert np.array_equal(single_dist[0], batched_dist[row])

    def test_invalid_metric(self):
        with pytest.raises(ModelError):
            nearest_neighbors(np.ones((1, 2)), np.ones((3, 2)), 1, "manhattan")

    def test_invalid_k(self):
        with pytest.raises(ModelError):
            nearest_neighbors(np.ones((1, 2)), np.ones((3, 2)), 0)

    @given(
        st.lists(st.floats(-100, 100), min_size=4, max_size=30),
        st.floats(-100, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_distances_sorted(self, reference_values, query_value):
        reference = np.array(reference_values).reshape(-1, 1)
        _idx, distances = nearest_neighbors(
            np.array([[query_value]]), reference, 3
        )
        assert list(distances[0]) == sorted(distances[0])


class TestCombineNeighbors:
    def test_equal_weighting_is_mean(self):
        values = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
        combined = combine_neighbors(values, np.array([0.1, 0.2, 0.3]))
        assert np.allclose(combined, [3.0, 30.0])

    def test_ranked_weighting(self):
        values = np.array([[1.0], [2.0], [3.0]])
        combined = combine_neighbors(
            values, np.array([0.1, 0.2, 0.3]), weighting="ranked"
        )
        # 3:2:1 weights -> (3*1 + 2*2 + 1*3) / 6
        assert combined[0] == pytest.approx(10 / 6)

    def test_distance_weighting_prefers_nearest(self):
        values = np.array([[0.0], [100.0]])
        combined = combine_neighbors(
            values, np.array([0.01, 10.0]), weighting="distance"
        )
        assert combined[0] < 1.0

    def test_unknown_weighting(self):
        with pytest.raises(ModelError):
            combine_neighbors(np.ones((2, 1)), np.ones(2), weighting="magic")

    def test_average_of_nonnegative_is_nonnegative(self):
        """The structural guarantee the paper contrasts with regression."""
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 100, size=(3, 6))
        for weighting in ("equal", "ranked", "distance"):
            combined = combine_neighbors(
                values, np.array([0.1, 0.2, 0.3]), weighting
            )
            assert (combined >= 0).all()


class TestAccuracyMetrics:
    def test_perfect_prediction_risk_one(self):
        actual = np.array([1.0, 5.0, 9.0])
        assert predictive_risk(actual, actual) == pytest.approx(1.0)

    def test_mean_prediction_risk_zero(self):
        actual = np.array([1.0, 5.0, 9.0])
        predicted = np.full(3, actual.mean())
        assert predictive_risk(predicted, actual) == pytest.approx(0.0)

    def test_bad_prediction_negative(self):
        actual = np.array([1.0, 2.0, 3.0])
        predicted = np.array([100.0, -50.0, 30.0])
        assert predictive_risk(predicted, actual) < 0

    def test_degenerate_actuals_nan(self):
        assert np.isnan(predictive_risk(np.ones(3), np.ones(3)))

    def test_outlier_removal_improves(self):
        actual = np.arange(10, dtype=float)
        predicted = actual.copy()
        predicted[0] = 1000.0
        with_outlier = predictive_risk(predicted, actual)
        without = predictive_risk_without_outliers(predicted, actual, drop=1)
        assert without > with_outlier
        assert without == pytest.approx(1.0)

    def test_outlier_drop_validation(self):
        with pytest.raises(ModelError):
            predictive_risk_without_outliers(np.ones(3), np.ones(3), drop=3)

    def test_within_fraction(self):
        actual = np.array([100.0, 100.0, 100.0, 100.0])
        predicted = np.array([81.0, 119.0, 150.0, 100.0])
        assert within_fraction(predicted, actual, 0.2) == pytest.approx(0.75)

    def test_within_fraction_zero_actual(self):
        assert within_fraction(np.array([0.0]), np.array([0.0]), 0.2) == 1.0
        assert within_fraction(np.array([5.0]), np.array([0.0]), 0.2) == 0.0

    def test_within_factor(self):
        actual = np.array([1.0, 1.0, 1.0])
        predicted = np.array([5.0, 20.0, 0.5])
        assert within_factor_fraction(predicted, actual, 10.0) == pytest.approx(
            2 / 3
        )

    def test_confusion_matrix(self):
        matrix = confusion_matrix(
            ["a", "b", "a"], ["a", "a", "b"], labels=["a", "b"]
        )
        assert matrix[0, 0] == 1  # actual a predicted a
        assert matrix[0, 1] == 1  # actual a predicted b
        assert matrix[1, 0] == 1  # actual b predicted a

    def test_classification_accuracy(self):
        assert classification_accuracy(["x", "y"], ["x", "x"]) == 0.5

    @given(
        st.lists(st.floats(0.1, 1000), min_size=3, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_risk_of_perfect_prediction_is_max(self, values):
        """Property: no prediction scores above the perfect prediction."""
        actual = np.array(values)
        if np.var(actual) == 0:
            return
        perfect = predictive_risk(actual, actual)
        noisy = predictive_risk(actual * 1.1, actual)
        assert perfect == pytest.approx(1.0)
        assert noisy <= perfect + 1e-12


def make_synthetic(n=250, n_test=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n + n_test, 6))
    base = np.exp(3 * x[:, 0]) + 5 * x[:, 1] * x[:, 2] + 0.5
    y = np.column_stack(
        [base, base * 7, np.sqrt(base), base**1.2, base + 3, base * 0.1]
    )
    return (x[:n], y[:n]), (x[n:], y[n:])


class TestKCCAPredictor:
    def test_end_to_end_accuracy(self):
        (x, y), (xt, yt) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        predicted = model.predict(xt)
        assert predictive_risk(predicted[:, 0], yt[:, 0]) > 0.6

    def test_predicts_all_metrics_simultaneously(self):
        (x, y), (xt, yt) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        predicted = model.predict(xt)
        assert predicted.shape == yt.shape
        for column in range(y.shape[1]):
            assert predictive_risk(predicted[:, column], yt[:, column]) > 0.3

    def test_predictions_never_negative(self):
        (x, y), (xt, _yt) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        assert (model.predict(xt) >= 0).all()

    def test_single_query_prediction(self):
        (x, y), (xt, _) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        prediction = model.predict(xt[0])
        assert prediction.shape == (1, 6)

    def test_detailed_prediction_has_neighbors(self):
        (x, y), (xt, _) = make_synthetic()
        model = KCCAPredictor(log_features=False, k_neighbors=3).fit(x, y)
        details = model.predict_detailed(xt[:5])
        assert len(details) == 5
        for detail in details:
            assert len(detail.neighbor_indices) == 3
            assert detail.confidence_distance >= 0
            # The prediction is the equal-weight neighbour average.
            expected = y[detail.neighbor_indices].mean(axis=0)
            assert np.allclose(detail.prediction, expected)

    def test_projection_shape(self):
        (x, y), (xt, _) = make_synthetic()
        model = KCCAPredictor(log_features=False, n_components=4).fit(x, y)
        assert model.project(xt).shape == (len(xt), 4)
        assert model.query_projection.shape == (len(x), 4)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KCCAPredictor().predict(np.ones((1, 4)))

    def test_training_set_too_small(self):
        with pytest.raises(ModelError):
            KCCAPredictor(k_neighbors=3).fit(np.ones((3, 2)), np.ones((3, 6)))

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            KCCAPredictor().fit(np.ones((10, 2)), np.ones((9, 6)))

    def test_explicit_tau_respected(self):
        (x, y), (xt, _) = make_synthetic(n=60, n_test=5)
        model = KCCAPredictor(log_features=False, query_tau=5.0).fit(x, y)
        assert model._tau_x == 5.0

    def test_neighbor_params_changeable_after_fit(self):
        (x, y), (xt, yt) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        model.k_neighbors = 5
        predicted = model.predict(xt)
        assert predicted.shape == yt.shape


class TestTwoStepPredictor:
    def make_categorised(self, seed=0):
        """Synthetic data whose elapsed time spans all three categories."""
        rng = np.random.default_rng(seed)
        n = 300
        x = rng.uniform(0, 1, (n, 5))
        # Category driven by x0: feathers, golf balls, bowling balls.
        elapsed = np.where(
            x[:, 0] < 0.6,
            rng.uniform(1, 100, n),
            np.where(
                x[:, 0] < 0.85,
                rng.uniform(200, 1500, n),
                rng.uniform(2000, 6000, n),
            ),
        )
        y = np.column_stack(
            [
                elapsed,
                elapsed * 100,
                elapsed * 50,
                np.zeros(n),
                elapsed * 2,
                elapsed * 300,
            ]
        )
        return x, y

    def test_classification_mostly_correct(self):
        from repro.workloads.categories import categorize

        x, y = self.make_categorised()
        model = TwoStepPredictor(log_features=False).fit(x[:250], y[:250])
        labels = model.classify(x[250:])
        actual = [categorize(e) for e in y[250:, 0]]
        accuracy = np.mean([p == a for p, a in zip(labels, actual)])
        assert accuracy > 0.7

    def test_specialists_created_for_large_categories(self):
        x, y = self.make_categorised()
        model = TwoStepPredictor(log_features=False).fit(x, y)
        assert len(model.trained_categories) >= 2

    def test_predict_shape(self):
        x, y = self.make_categorised()
        model = TwoStepPredictor(log_features=False).fit(x[:250], y[:250])
        assert model.predict(x[250:]).shape == (50, 6)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            TwoStepPredictor().predict(np.ones((1, 5)))

    def test_small_categories_fall_back_to_router(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (50, 3))
        y = np.column_stack([rng.uniform(1, 10, 50)] * 6)  # all feathers
        model = TwoStepPredictor(log_features=False).fit(x, y)
        prediction = model.predict(x[:3])
        assert prediction.shape == (3, 6)


class TestConfidence:
    def test_inlier_vs_outlier(self):
        (x, y), (_xt, _yt) = make_synthetic()
        model = KCCAPredictor(log_features=False).fit(x, y)
        inlier = x[0][None, :]
        outlier = np.full((1, 6), 50.0)  # far outside the unit cube
        reports = neighbor_confidence(model, np.vstack([inlier, outlier]))
        assert reports[0].distance < reports[1].distance
        assert not reports[0].anomalous
        assert reports[1].zscore > reports[0].zscore

    def test_threshold_validation(self):
        (x, y), _ = make_synthetic(n=50, n_test=1)
        model = KCCAPredictor(log_features=False).fit(x, y)
        with pytest.raises(ModelError):
            ConfidenceModel(model, threshold=0.0)

    def test_training_points_not_anomalous(self):
        (x, y), _ = make_synthetic(n=80, n_test=1)
        model = KCCAPredictor(log_features=False).fit(x, y)
        reports = ConfidenceModel(model).assess(x[:20])
        assert sum(r.anomalous for r in reports) <= 2
