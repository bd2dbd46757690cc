"""The end-to-end KCCA performance predictor (paper Figures 5 and 7).

Training (:meth:`KCCAPredictor.fit`):

1. optionally log-transform and standardise the query and performance
   feature matrices (kernel conditioning; predictions always come from the
   *raw* performance vectors);
2. build Gaussian kernel matrices with the paper's scale heuristic
   (fractions 0.1 / 0.2 of the norm variance);
3. run KCCA to obtain maximally correlated projections.

Prediction (:meth:`KCCAPredictor.predict`):

1. build the new query's feature vector and kernel row, project it onto
   the query projection;
2. find its k nearest training neighbours there (k = 3, Euclidean);
3. average the neighbours' raw performance vectors (equal weights) —
   the paper's answer to the kernel pre-image problem.

Because the prediction is an average of observed non-negative metric
vectors, it can never be negative — unlike the regression baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.base import (
    SerializableModel,
    checked_array,
    finite_input,
    register_model,
)
from repro.core.kcca import KCCA
from repro.core.kernels import (
    PERFORMANCE_SCALE_FRACTION,
    QUERY_SCALE_FRACTION,
    gaussian_kernel_cross,
    gaussian_kernel_matrix,
    scale_factor_heuristic,
)
from repro.core.neighbors import combine_neighbors, nearest_neighbors
from repro.errors import ModelError, NotFittedError
from repro.obs.seam import stage

__all__ = ["KCCAPredictor", "PredictionDetail"]


@dataclass(frozen=True)
class PredictionDetail:
    """Prediction plus the evidence behind it.

    Attributes:
        prediction: (n_metrics,) predicted performance vector.
        neighbor_indices: training-set indices of the k neighbours.
        neighbor_distances: distances in the query projection.
        confidence_distance: mean neighbour distance — larger means the
            query is far from anything seen in training (Section VII-C.3
            uses this to flag potentially anomalous predictions).
    """

    prediction: np.ndarray
    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    confidence_distance: float


class _Standardizer:
    """Optional log1p + z-score transform, fitted on training data."""

    def __init__(self, log_transform: bool, standardize: bool) -> None:
        self.log_transform = log_transform
        self.standardize = standardize
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if self.log_transform:
            data = np.log1p(np.maximum(data, 0.0))
        if self.standardize:
            self._mean = data.mean(axis=0)
            std = data.std(axis=0)
            self._std = np.where(std > 0, std, 1.0)
            data = (data - self._mean) / self._std
        return data

    def transform(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if self.log_transform:
            data = np.log1p(np.maximum(data, 0.0))
        if self.standardize:
            if self._mean is None:
                raise NotFittedError("standardizer is not fitted")
            data = (data - self._mean) / self._std
        return data

    def state_dict(self) -> dict:
        return {
            "log_transform": self.log_transform,
            "standardize": self.standardize,
            "mean": self._mean,
            "std": self._std,
        }

    def load_state_dict(self, state: dict, width: int) -> "_Standardizer":
        """Restore a :meth:`state_dict` export fitted on ``width`` columns."""
        self.__init__(state["log_transform"], state["standardize"])
        if self.standardize:
            self._mean = checked_array(state, "mean", width)
            self._std = checked_array(state, "std", width)
            if not (self._std > 0).all():
                raise ModelError("fitted array 'std' holds a non-positive value")
        return self


@register_model
class KCCAPredictor(SerializableModel):
    """Multi-metric query performance prediction via KCCA + k-NN.

    Args:
        n_components: KCCA canonical directions retained.
        regularization: KCCA ridge fraction.
        k_neighbors: neighbours used for prediction (paper: 3).
        distance_metric: ``euclidean`` (paper's choice) or ``cosine``.
        weighting: ``equal`` (paper's choice), ``ranked`` or ``distance``.
        approximation: KCCA fit path — ``exact`` (dense O(N^3) solve) or
            ``nystrom`` (landmark subspace solve, O(N * rank^2)).
        rank: Nyström landmark count; None picks the default (256,
            clamped to N).  ``rank == N`` reproduces the exact solve.
        landmark_seed: seed for the deterministic landmark subsample.
        query_tau / performance_tau: explicit Gaussian scale factors;
            derived from the paper's fraction heuristic when None.
        log_features / standardize_features: query-side conditioning.
        log_performance / standardize_performance: performance-side kernel
            conditioning (predictions still average raw vectors).
    """

    def __init__(
        self,
        n_components: int = 8,
        regularization: float = 1e-3,
        k_neighbors: int = 3,
        distance_metric: str = "euclidean",
        weighting: str = "equal",
        approximation: str = "exact",
        rank: Optional[int] = None,
        landmark_seed: int = 0,
        query_tau: Optional[float] = None,
        performance_tau: Optional[float] = None,
        query_scale_fraction: float = QUERY_SCALE_FRACTION,
        performance_scale_fraction: float = PERFORMANCE_SCALE_FRACTION,
        log_features: bool = True,
        standardize_features: bool = True,
        log_performance: bool = True,
        standardize_performance: bool = True,
    ) -> None:
        self.k_neighbors = k_neighbors
        self.distance_metric = distance_metric
        self.weighting = weighting
        self.query_tau = query_tau
        self.performance_tau = performance_tau
        self.query_scale_fraction = query_scale_fraction
        self.performance_scale_fraction = performance_scale_fraction
        self._kcca = KCCA(
            n_components=n_components,
            regularization=regularization,
            approximation=approximation,
            rank=rank,
            landmark_seed=landmark_seed,
        )
        self._x_scaler = _Standardizer(log_features, standardize_features)
        self._y_scaler = _Standardizer(log_performance, standardize_performance)
        self._train_features: Optional[np.ndarray] = None
        self._train_performance: Optional[np.ndarray] = None
        self._tau_x: Optional[float] = None

    # ------------------------------------------------------------------

    def fit(
        self, query_features: np.ndarray, performance: np.ndarray
    ) -> "KCCAPredictor":
        """Train from (n, p) query features and (n, m) performance vectors."""
        query_features = finite_input(query_features, "the plan features")
        performance = finite_input(performance, "the performance values")
        if query_features.ndim != 2 or performance.ndim != 2:
            raise ModelError("fit requires 2-D feature and performance arrays")
        if query_features.shape[0] != performance.shape[0]:
            raise ModelError("feature and performance row counts differ")
        if query_features.shape[0] <= self.k_neighbors:
            raise ModelError(
                "training set must exceed the neighbour count "
                f"({query_features.shape[0]} <= {self.k_neighbors})"
            )
        for name in ("query_tau", "performance_tau"):
            tau = getattr(self, name)
            if tau is not None and not (np.isfinite(tau) and tau > 0):
                raise ModelError(f"{name} must be a positive number, got {tau!r}")
        with stage("predictor.fit", n=query_features.shape[0]):
            fx = self._x_scaler.fit_transform(query_features)
            fy = self._y_scaler.fit_transform(performance)
            self._tau_x = (
                self.query_tau
                if self.query_tau is not None
                else scale_factor_heuristic(fx, self.query_scale_fraction)
            )
            tau_y = (
                self.performance_tau
                if self.performance_tau is not None
                else scale_factor_heuristic(fy, self.performance_scale_fraction)
            )
            with stage("predictor.kernels"):
                kx = gaussian_kernel_matrix(fx, self._tau_x)
                ky = gaussian_kernel_matrix(fy, tau_y)
            self._kcca.fit(kx, ky)
            self._train_features = fx
            self._train_performance = performance.copy()
        return self

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._train_features is None:
            raise NotFittedError("KCCAPredictor is not fitted")

    @property
    def query_projection(self) -> np.ndarray:
        """Training queries in the query projection (N x d)."""
        self._require_fitted()
        return self._kcca.x_projection

    @property
    def performance_projection(self) -> np.ndarray:
        """Training queries in the performance projection (N x d)."""
        self._require_fitted()
        return self._kcca.y_projection

    @property
    def canonical_correlations(self) -> np.ndarray:
        self._require_fitted()
        return self._kcca.correlations

    def project(self, query_features: np.ndarray) -> np.ndarray:
        """Coordinates of new queries in the query projection."""
        self._require_fitted()
        with stage("predictor.project"):
            features = np.atleast_2d(
                np.asarray(query_features, dtype=np.float64)
            )
            fx = self._x_scaler.transform(features)
            cross = gaussian_kernel_cross(
                fx, self._train_features, self._tau_x
            )
            return self._kcca.project_x(cross)

    def predict(self, query_features: np.ndarray) -> np.ndarray:
        """Predicted performance vectors, shape (m, n_metrics)."""
        return self.predict_batch(query_features)[0]

    def predict_batch(
        self, query_features: np.ndarray
    ) -> tuple[np.ndarray, list[PredictionDetail]]:
        """Batched predictions plus per-query neighbour details.

        One kernel-cross evaluation serves all queries; the details carry
        the neighbour distances downstream consumers (confidence scoring)
        need, so they never have to re-project.
        """
        details = self.predict_detailed(query_features)
        predictions = np.vstack([detail.prediction for detail in details])
        return predictions, details

    def predict_detailed(self, query_features: np.ndarray) -> list[PredictionDetail]:
        """Per-query predictions with neighbour evidence and confidence."""
        coords = self.project(query_features)
        with stage("predictor.knn", n=coords.shape[0], k=self.k_neighbors):
            indices, distances = nearest_neighbors(
                coords,
                self._kcca.x_projection,
                self.k_neighbors,
                metric=self.distance_metric,
            )
        details = []
        for i in range(coords.shape[0]):
            prediction = combine_neighbors(
                self._train_performance[indices[i]],
                distances[i],
                weighting=self.weighting,
            )
            details.append(
                PredictionDetail(
                    prediction=prediction,
                    neighbor_indices=indices[i].copy(),
                    neighbor_distances=distances[i].copy(),
                    confidence_distance=float(distances[i].mean()),
                )
            )
        return details

    # ------------------------------------------------------------------
    # Persistence (Model protocol)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Hyper-parameters plus (when fitted) the trained state."""
        fitted = None
        if self._train_features is not None:
            fitted = {
                "x_scaler": self._x_scaler.state_dict(),
                "y_scaler": self._y_scaler.state_dict(),
                "tau_x": self._tau_x,
                "train_features": self._train_features,
                "train_performance": self._train_performance,
                "kcca": self._kcca.state_dict(),
            }
        return {
            "config": {
                "n_components": self._kcca.n_components,
                "regularization": self._kcca.regularization,
                "approximation": self._kcca.approximation,
                "rank": self._kcca.rank,
                "landmark_seed": self._kcca.landmark_seed,
                "k_neighbors": self.k_neighbors,
                "distance_metric": self.distance_metric,
                "weighting": self.weighting,
                "query_tau": self.query_tau,
                "performance_tau": self.performance_tau,
                "query_scale_fraction": self.query_scale_fraction,
                "performance_scale_fraction": self.performance_scale_fraction,
                "log_features": self._x_scaler.log_transform,
                "standardize_features": self._x_scaler.standardize,
                "log_performance": self._y_scaler.log_transform,
                "standardize_performance": self._y_scaler.standardize,
            },
            "fitted": fitted,
        }

    def load_state_dict(self, state: dict) -> "KCCAPredictor":
        """Restore a :meth:`state_dict` export (inverse operation)."""
        self.__init__(**state["config"])
        fitted = state.get("fitted")
        if fitted is not None:
            self._train_features = checked_array(
                fitted, "train_features", None, None
            )
            n, width = self._train_features.shape
            self._train_performance = checked_array(
                fitted, "train_performance", n, None
            )
            self._x_scaler.load_state_dict(fitted["x_scaler"], width)
            self._y_scaler.load_state_dict(
                fitted["y_scaler"], self._train_performance.shape[1]
            )
            self._tau_x = float(checked_array(fitted, "tau_x"))
            if self._tau_x <= 0:
                raise ModelError(f"fitted scalar 'tau_x' is {self._tau_x}")
            self._kcca.load_state_dict(fitted["kcca"])
            checked_array(fitted["kcca"]["fitted"], "alpha", n, None)
        return self
