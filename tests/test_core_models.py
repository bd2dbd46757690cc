"""Tests for KCCA, CCA, PCA, K-means and the regression baseline."""

import numpy as np
import pytest

from repro.core.cca import CCA
from repro.core.kcca import KCCA, center_cross_kernel, center_kernel
from repro.core.kernels import gaussian_kernel_matrix
from repro.core.kmeans import KMeans, cluster_agreement
from repro.core.pca import PCA
from repro.core.regression import LinearRegression, MultiMetricRegression
from repro.errors import ModelError, NotFittedError


class TestKernelCentering:
    def test_centered_rows_and_columns_sum_to_zero(self):
        data = np.random.default_rng(0).normal(size=(10, 3))
        kernel = gaussian_kernel_matrix(data, tau=1.0)
        centered = center_kernel(kernel)
        assert np.allclose(centered.sum(axis=0), 0.0, atol=1e-10)
        assert np.allclose(centered.sum(axis=1), 0.0, atol=1e-10)

    def test_cross_centering_consistent_with_square(self):
        """Centring training rows via the cross formula must equal the
        rows of the double-centred training kernel."""
        data = np.random.default_rng(0).normal(size=(8, 3))
        kernel = gaussian_kernel_matrix(data, tau=1.0)
        square = center_kernel(kernel)
        cross = center_cross_kernel(
            kernel, kernel.mean(axis=0, keepdims=True), kernel.mean()
        )
        assert np.allclose(square, cross, atol=1e-10)


class TestKCCA:
    def make_correlated(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        latent = rng.uniform(-1, 1, size=n)
        x = np.column_stack([latent, rng.normal(0, 0.05, n)])
        y = np.column_stack([np.sin(latent), rng.normal(0, 0.05, n)])
        return x, y

    def test_finds_nonlinear_correlation(self):
        x, y = self.make_correlated()
        kx = gaussian_kernel_matrix(x, tau=1.0)
        ky = gaussian_kernel_matrix(y, tau=1.0)
        model = KCCA(n_components=2, regularization=1e-3).fit(kx, ky)
        assert model.correlations[0] > 0.9

    def test_independent_data_low_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(120, 2))
        y = rng.normal(size=(120, 2))
        kx = gaussian_kernel_matrix(x, tau=2.0)
        ky = gaussian_kernel_matrix(y, tau=2.0)
        model = KCCA(n_components=1, regularization=1e-2).fit(kx, ky)
        assert model.correlations[0] < 0.6

    def test_projection_shapes(self):
        x, y = self.make_correlated(n=50)
        kx = gaussian_kernel_matrix(x, tau=1.0)
        ky = gaussian_kernel_matrix(y, tau=1.0)
        model = KCCA(n_components=4).fit(kx, ky)
        assert model.x_projection.shape == (50, 4)
        assert model.y_projection.shape == (50, 4)

    def test_correlations_descending(self):
        x, y = self.make_correlated()
        kx = gaussian_kernel_matrix(x, tau=1.0)
        ky = gaussian_kernel_matrix(y, tau=1.0)
        model = KCCA(n_components=5).fit(kx, ky)
        assert list(model.correlations) == sorted(model.correlations)[::-1]

    def test_correlated_pairs_are_projected_nearby(self):
        """Figure 6's point: the same query lands in similar places in the
        two projections (after per-component sign/scale alignment)."""
        x, y = self.make_correlated()
        kx = gaussian_kernel_matrix(x, tau=1.0)
        ky = gaussian_kernel_matrix(y, tau=1.0)
        model = KCCA(n_components=1, regularization=1e-3).fit(kx, ky)
        px = model.x_projection[:, 0]
        py = model.y_projection[:, 0]
        correlation = abs(np.corrcoef(px, py)[0, 1])
        assert correlation > 0.9

    def test_project_x_matches_training_projection(self):
        x, y = self.make_correlated(n=40)
        kx = gaussian_kernel_matrix(x, tau=1.0)
        ky = gaussian_kernel_matrix(y, tau=1.0)
        model = KCCA(n_components=2).fit(kx, ky)
        projected = model.project_x(kx)
        assert np.allclose(projected, model.x_projection, atol=1e-8)

    def test_mismatched_kernels_rejected(self):
        with pytest.raises(ModelError):
            KCCA().fit(np.eye(5), np.eye(6))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            _ = KCCA().x_projection

    def test_invalid_params(self):
        with pytest.raises(ModelError):
            KCCA(n_components=0)
        with pytest.raises(ModelError):
            KCCA(regularization=0.0)


class TestCCA:
    def test_recovers_linear_correlation(self):
        rng = np.random.default_rng(0)
        latent = rng.normal(size=200)
        x = np.column_stack([latent + rng.normal(0, 0.1, 200),
                             rng.normal(size=200)])
        y = np.column_stack([2 * latent + rng.normal(0, 0.1, 200),
                             rng.normal(size=200)])
        model = CCA(n_components=2).fit(x, y)
        assert model.correlations[0] > 0.95

    def test_transforms_are_correlated(self):
        rng = np.random.default_rng(0)
        latent = rng.normal(size=100)
        x = latent[:, None] + rng.normal(0, 0.1, (100, 2))
        y = latent[:, None] + rng.normal(0, 0.1, (100, 3))
        model = CCA(n_components=1).fit(x, y)
        tx = model.transform_x(x)[:, 0]
        ty = model.transform_y(y)[:, 0]
        assert abs(np.corrcoef(tx, ty)[0, 1]) > 0.9

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            CCA().fit(np.ones((5, 2)), np.ones((6, 2)))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            CCA().transform_x(np.ones((2, 2)))


class TestPCA:
    def test_first_component_is_max_variance_direction(self):
        rng = np.random.default_rng(0)
        data = np.column_stack(
            [rng.normal(0, 10, 300), rng.normal(0, 1, 300)]
        )
        model = PCA(n_components=2).fit(data)
        # First component should be (approximately) the x axis.
        assert abs(model.components[0][0]) > 0.99

    def test_explained_variance_ratio_sums_to_one(self):
        data = np.random.default_rng(0).normal(size=(100, 4))
        model = PCA(n_components=4).fit(data)
        assert model.explained_variance_ratio().sum() == pytest.approx(1.0)

    def test_transform_centers(self):
        data = np.random.default_rng(0).normal(size=(50, 3)) + 100
        transformed = PCA(n_components=3).fit_transform(data)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)

    def test_reconstruction_with_all_components(self):
        data = np.random.default_rng(0).normal(size=(30, 3))
        model = PCA(n_components=3).fit(data)
        transformed = model.transform(data)
        reconstructed = transformed @ model.components + model.mean
        assert np.allclose(reconstructed, data, atol=1e-9)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            PCA().transform(np.ones((2, 2)))


class TestKMeans:
    def blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        return np.vstack(
            [
                rng.normal([0, 0], 0.3, (40, 2)),
                rng.normal([5, 5], 0.3, (40, 2)),
                rng.normal([0, 5], 0.3, (40, 2)),
            ]
        )

    def test_recovers_blobs(self):
        data = self.blobs()
        model = KMeans(n_clusters=3, seed=1).fit(data)
        labels = model.labels
        # Points within each generated blob share one label.
        for start in (0, 40, 80):
            block = labels[start : start + 40]
            assert (block == block[0]).mean() > 0.95

    def test_predict_consistent_with_fit(self):
        data = self.blobs()
        model = KMeans(n_clusters=3, seed=1).fit(data)
        assert np.array_equal(model.predict(data), model.labels)

    def test_inertia_decreases_with_k(self):
        data = self.blobs()
        inertia = [
            KMeans(n_clusters=k, seed=1).fit(data).inertia for k in (1, 3)
        ]
        assert inertia[1] < inertia[0]

    def test_too_few_points(self):
        with pytest.raises(ModelError):
            KMeans(n_clusters=5).fit(np.ones((3, 2)))

    def test_cluster_agreement_identical(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert cluster_agreement(labels, labels) == 1.0

    def test_cluster_agreement_disjoint(self):
        a = np.array([0, 0, 0, 0])
        b = np.array([0, 1, 2, 3])
        assert cluster_agreement(a, b) == 0.0

    def test_paper_motivation_feature_vs_performance_clusters(self):
        """Section V-B: clustering X and clustering Y produce different
        partitions when the X->Y map is non-monotone in cluster space."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (150, 2))
        y = np.column_stack([np.sin(8 * x[:, 0]), np.cos(8 * x[:, 1])])
        labels_x = KMeans(n_clusters=3, seed=0).fit(x).labels
        labels_y = KMeans(n_clusters=3, seed=0).fit(y).labels
        assert cluster_agreement(labels_x, labels_y) < 0.9


class TestLinearRegression:
    def test_recovers_exact_linear_model(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3))
        y = 2.0 + x @ np.array([1.0, -2.0, 0.5])
        model = LinearRegression().fit(x, y)
        assert model.intercept == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(model.coefficients, [1.0, -2.0, 0.5], atol=1e-8)

    def test_predict(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        model = LinearRegression().fit(x, y)
        assert model.predict(np.array([[4.0]]))[0] == pytest.approx(8.0)

    def test_zeroed_features_detected(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([rng.normal(size=50), np.zeros(50)])
        y = x[:, 0] * 3
        model = LinearRegression().fit(x, y)
        assert 1 in model.zeroed_features()

    def test_can_predict_negative_values(self):
        """The regression pathology the paper highlights: nothing stops
        negative time predictions."""
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = LinearRegression().fit(x, y)
        assert model.predict(np.array([[-5.0]]))[0] < 0

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.ones((2, 2)))


class TestMultiMetricRegression:
    def test_fits_each_metric(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 4))
        y = np.column_stack([x @ rng.normal(size=4) for _ in range(3)])
        model = MultiMetricRegression(("a", "b", "c")).fit(x, y)
        predicted = model.predict(x)
        assert predicted.shape == (80, 3)
        assert np.allclose(predicted, y, atol=1e-6)

    def test_negative_counts(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.column_stack([x[:, 0], -x[:, 0]])
        model = MultiMetricRegression(("up", "down")).fit(x, y)
        counts = model.negative_prediction_counts(x)
        assert counts["up"] == 0
        assert counts["down"] == 3

    def test_column_mismatch(self):
        with pytest.raises(ModelError):
            MultiMetricRegression(("a",)).fit(np.ones((5, 2)), np.ones((5, 3)))

    def test_unknown_metric(self):
        model = MultiMetricRegression(("a",)).fit(
            np.ones((5, 2)), np.ones((5, 1))
        )
        with pytest.raises(ModelError):
            model.model_for("b")

    def test_different_metrics_zero_different_covariates(self):
        """The paper's observation that per-metric models discard
        different features, defeating a unified model."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        y = np.column_stack([x[:, 0], x[:, 1]])
        model = MultiMetricRegression(("m1", "m2")).fit(x, y)
        z1 = set(model.model_for("m1").zeroed_features(tolerance=1e-6))
        z2 = set(model.model_for("m2").zeroed_features(tolerance=1e-6))
        assert z1 == {1} and z2 == {0}
