"""Least-squares linear regression baselines (paper Section V-A).

The paper's first attempt: fit one linear model per performance metric
from the query-plan covariates.  Reproduced faithfully — including its
failure modes: predictions that are orders of magnitude off and *negative*
elapsed times / record counts (Figures 3 and 4 call these out explicitly),
and per-metric models that zero different covariates, so the metrics can't
be unified into one model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError, NotFittedError

__all__ = ["LinearRegression", "MultiMetricRegression"]


class LinearRegression:
    """Ordinary least squares with an intercept, via lstsq.

    Attributes (after :meth:`fit`):
        coefficients: per-feature weights.
        intercept: bias term.
    """

    def __init__(self) -> None:
        self.coefficients: Optional[np.ndarray] = None
        self.intercept: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ModelError("fit requires X (n, p) and y (n,)")
        design = np.hstack([np.ones((x.shape[0], 1)), x])
        solution, _res, _rank, _sv = np.linalg.lstsq(design, y, rcond=None)
        self.intercept = float(solution[0])
        self.coefficients = solution[1:]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coefficients is None:
            raise NotFittedError("LinearRegression model is not fitted")
        x = np.asarray(x, dtype=np.float64)
        return self.intercept + x @ self.coefficients

    def zeroed_features(self, tolerance: float = 1e-9) -> np.ndarray:
        """Indices of covariates the fit effectively discarded.

        The paper notes regression assigned zero weight to covariates like
        the hash-group-by cardinality, and that the discarded set differed
        per metric — one of its arguments against regression.
        """
        if self.coefficients is None:
            raise NotFittedError("LinearRegression model is not fitted")
        return np.nonzero(np.abs(self.coefficients) <= tolerance)[0]


class MultiMetricRegression:
    """One independent :class:`LinearRegression` per performance metric."""

    def __init__(self, metric_names: tuple[str, ...]) -> None:
        if not metric_names:
            raise ModelError("metric_names must be non-empty")
        self.metric_names = tuple(metric_names)
        self._models: Optional[dict[str, LinearRegression]] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MultiMetricRegression":
        """Fit from X (n, p) and Y (n, n_metrics)."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != len(self.metric_names):
            raise ModelError(
                f"Y must have {len(self.metric_names)} columns, got {y.shape}"
            )
        self._models = {}
        for index, name in enumerate(self.metric_names):
            model = LinearRegression().fit(x, y[:, index])
            self._models[name] = model
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict all metrics; returns (n, n_metrics)."""
        if self._models is None:
            raise NotFittedError("MultiMetricRegression model is not fitted")
        columns = [self._models[name].predict(x) for name in self.metric_names]
        return np.column_stack(columns)

    def model_for(self, metric: str) -> LinearRegression:
        if self._models is None:
            raise NotFittedError("MultiMetricRegression model is not fitted")
        try:
            return self._models[metric]
        except KeyError:
            raise ModelError(f"unknown metric {metric!r}") from None

    def negative_prediction_counts(self, x: np.ndarray) -> dict[str, int]:
        """Per-metric count of physically impossible negative predictions.

        Reproduces the observation under Figures 3-4 (76 negative elapsed
        times, 105 negative record counts on the paper's training set).
        """
        predictions = self.predict(x)
        return {
            name: int((predictions[:, index] < 0).sum())
            for index, name in enumerate(self.metric_names)
        }
