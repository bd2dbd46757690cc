"""Gaussian kernel and scale-heuristic tests (incl. hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kernels import (
    cross_squared_distances,
    gaussian_kernel_cross,
    gaussian_kernel_matrix,
    scale_factor_heuristic,
    squared_distances,
)
from repro.core.neighbors import _euclidean_distances, nearest_neighbors

finite_matrix = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 12), st.integers(1, 6)),
    elements=st.floats(-50, 50, allow_nan=False),
)


def paired_matrices(max_rows=10, max_cols=5):
    """Two float matrices sharing a column count (points, reference)."""
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.tuples(
            arrays(
                dtype=np.float64,
                shape=st.tuples(st.integers(1, max_rows), st.just(cols)),
                elements=st.floats(-50, 50, allow_nan=False),
            ),
            arrays(
                dtype=np.float64,
                shape=st.tuples(st.integers(1, max_rows), st.just(cols)),
                elements=st.floats(-50, 50, allow_nan=False),
            ),
        )
    )


class TestDistances:
    def test_zero_diagonal(self):
        data = np.random.default_rng(0).normal(size=(5, 3))
        distances = squared_distances(data)
        assert np.allclose(np.diag(distances), 0.0)

    def test_matches_naive(self):
        data = np.random.default_rng(0).normal(size=(6, 4))
        fast = squared_distances(data)
        for i in range(6):
            for j in range(6):
                naive = np.sum((data[i] - data[j]) ** 2)
                assert fast[i, j] == pytest.approx(naive, abs=1e-9)

    def test_cross_matches_square(self):
        data = np.random.default_rng(1).normal(size=(5, 3))
        assert np.allclose(
            cross_squared_distances(data, data), squared_distances(data)
        )

    def test_non_negative(self):
        data = np.random.default_rng(2).normal(size=(10, 2)) * 1000
        assert (squared_distances(data) >= 0).all()


class TestDistanceProperties:
    """Hypothesis properties for the distance kernels and the knn helper."""

    @given(finite_matrix)
    @settings(max_examples=40, deadline=None)
    def test_squared_distances_symmetric_nonneg_zero_diag(self, data):
        distances = squared_distances(data)
        assert np.allclose(distances, distances.T)
        assert (distances >= 0).all()
        assert np.allclose(np.diag(distances), 0.0, atol=1e-7)

    @given(paired_matrices())
    @settings(max_examples=40, deadline=None)
    def test_cross_squared_matches_naive(self, matrices):
        points, reference = matrices
        fast = cross_squared_distances(points, reference)
        naive = ((points[:, None, :] - reference[None, :, :]) ** 2).sum(
            axis=2
        )
        # The expansion trick loses precision relative to the naive
        # broadcast at large magnitudes; bound the absolute error by the
        # scale of the squared values involved.
        scale = max(float(naive.max()), 1.0)
        assert fast.shape == naive.shape
        assert np.allclose(fast, naive, atol=1e-8 * scale)

    @given(paired_matrices())
    # Two coincident rows of large magnitude: the expansion's squared
    # distance is a few ulps of |a|^2 off 0 (1.8e-12 where BLAS fuses the
    # multiply-add and einsum does not), and its root is 1.3e-6.  The
    # first row is as the flake was reported, the second has the digits
    # that reproduce it on an FMA host.
    @example((np.array([[36.1585815, 32, 42.5583488, 0, 0]]),) * 2)
    @example((np.array([[36.15858146516296, 32, 42.558348783995, 0, 0]]),) * 2)
    @settings(max_examples=40, deadline=None)
    def test_euclidean_distances_matches_naive_norm(self, matrices):
        points, reference = matrices
        fast = _euclidean_distances(points, reference)
        naive = np.linalg.norm(
            points[:, None, :] - reference[None, :, :], axis=2
        )
        assert (fast >= 0).all()
        scale = max(float(naive.max()), 1.0)
        # The squared distances are off by at most 1e-8 * scale**2
        # (test_cross_squared_matches_naive).  The root divides that by
        # fast + naive, so 1e-6 * scale holds from naive = 1e-2 * scale
        # up; nearer 0 all that bounds the root is the root of the error.
        near_zero = naive < 1e-2 * scale
        bound = np.where(near_zero, 1e-4 * scale, 1e-6 * scale)
        assert np.allclose(fast, naive, atol=bound)

    @given(finite_matrix)
    @settings(max_examples=40, deadline=None)
    def test_euclidean_self_distance_zero_diagonal(self, data):
        distances = _euclidean_distances(data, data)
        assert np.allclose(np.diag(distances), 0.0, atol=1e-5)

    @given(paired_matrices(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_nearest_neighbors_sorted_and_valid(self, matrices, k):
        points, reference = matrices
        indices, distances = nearest_neighbors(points, reference, k)
        k_eff = min(k, reference.shape[0])
        assert indices.shape == (points.shape[0], k_eff)
        assert distances.shape == (points.shape[0], k_eff)
        assert (indices >= 0).all()
        assert (indices < reference.shape[0]).all()
        assert (distances >= 0).all()
        # Neighbours come back nearest-first...
        assert (np.diff(distances, axis=1) >= 0).all()
        # ...each row's indices are distinct...
        for row in indices:
            assert len(set(row.tolist())) == k_eff
        # ...and the nearest reported distance is the true minimum,
        # pair by pair (quantized exactly as nearest_neighbors quantizes
        # for ties) — not the expansion trick's, which is ~1e-6 off near
        # zero at these magnitudes.
        brute = np.linalg.norm(
            points[:, None, :] - reference[None, :, :], axis=2
        )
        assert np.allclose(
            distances[:, 0], np.round(brute, decimals=9).min(axis=1)
        )

    def test_self_neighbors_find_themselves(self):
        data = np.random.default_rng(5).normal(size=(20, 4))
        indices, distances = nearest_neighbors(data, data, 1)
        assert np.array_equal(indices[:, 0], np.arange(20))
        # Exactly 0: the reported distance is recomputed pair by pair,
        # free of the expansion trick's ~1e-8 noise near zero.
        assert (distances[:, 0] == 0.0).all()


class TestKernelMatrix:
    def test_unit_diagonal(self):
        data = np.random.default_rng(0).normal(size=(8, 3))
        kernel = gaussian_kernel_matrix(data, tau=1.0)
        assert np.allclose(np.diag(kernel), 1.0)

    def test_symmetric(self):
        data = np.random.default_rng(0).normal(size=(8, 3))
        kernel = gaussian_kernel_matrix(data, tau=2.0)
        assert np.allclose(kernel, kernel.T)

    def test_values_in_unit_interval(self):
        data = np.random.default_rng(0).normal(size=(8, 3))
        kernel = gaussian_kernel_matrix(data, tau=0.5)
        assert (kernel > 0).all()
        assert (kernel <= 1).all()

    def test_identical_points_similarity_one(self):
        data = np.ones((4, 3))
        kernel = gaussian_kernel_matrix(data, tau=1.0)
        assert np.allclose(kernel, 1.0)

    def test_larger_tau_means_more_similar(self):
        data = np.random.default_rng(0).normal(size=(6, 3))
        narrow = gaussian_kernel_matrix(data, tau=0.1)
        wide = gaussian_kernel_matrix(data, tau=10.0)
        off_diag = ~np.eye(6, dtype=bool)
        assert (wide[off_diag] >= narrow[off_diag]).all()

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            gaussian_kernel_matrix(np.ones((3, 2)), tau=0.0)

    @given(finite_matrix)
    @settings(max_examples=40, deadline=None)
    def test_kernel_is_psd_with_unit_diagonal(self, data):
        """Property: Gaussian kernel matrices are symmetric PSD with 1s on
        the diagonal."""
        kernel = gaussian_kernel_matrix(data, tau=5.0)
        assert np.allclose(kernel, kernel.T)
        assert np.allclose(np.diag(kernel), 1.0)
        eigenvalues = np.linalg.eigvalsh(kernel)
        assert eigenvalues.min() >= -1e-8


class TestCrossKernel:
    def test_shape(self):
        train = np.random.default_rng(0).normal(size=(10, 4))
        new = np.random.default_rng(1).normal(size=(3, 4))
        cross = gaussian_kernel_cross(new, train, tau=1.0)
        assert cross.shape == (3, 10)

    def test_self_cross_matches_matrix(self):
        data = np.random.default_rng(0).normal(size=(7, 3))
        cross = gaussian_kernel_cross(data, data, tau=2.0)
        full = gaussian_kernel_matrix(data, tau=2.0)
        assert np.allclose(cross, full, atol=1e-12)


class TestScaleHeuristic:
    def test_distance_method_positive(self):
        data = np.random.default_rng(0).normal(size=(50, 5))
        tau = scale_factor_heuristic(data, 0.1)
        assert tau > 0

    def test_scales_with_fraction(self):
        data = np.random.default_rng(0).normal(size=(50, 5))
        assert scale_factor_heuristic(data, 0.2) == pytest.approx(
            2 * scale_factor_heuristic(data, 0.1)
        )

    def test_norm_variance_method(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(100, 3)) * rng.uniform(1, 100, size=(100, 1))
        tau = scale_factor_heuristic(data, 0.1, method="norm_variance")
        norms = np.linalg.norm(data, axis=1)
        assert tau == pytest.approx(0.1 * np.var(norms))

    def test_norm_variance_degenerate_falls_back(self):
        data = np.ones((10, 3))
        tau = scale_factor_heuristic(data, 0.1, method="norm_variance")
        assert tau > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            scale_factor_heuristic(np.ones((3, 2)), 0.1, method="magic")

    def test_single_point(self):
        assert scale_factor_heuristic(np.ones((1, 3)), 0.1) == 1.0

    def test_subsampling_large_inputs(self):
        data = np.random.default_rng(0).normal(size=(2000, 3))
        tau_big = scale_factor_heuristic(data, 0.1)
        tau_small = scale_factor_heuristic(data[:400], 0.1)
        assert tau_big == pytest.approx(tau_small, rel=0.3)
