"""Optimizer-cost calibration (paper Section VIII).

"The predictions can be used to custom-calibrate optimizer cost estimates
for a customer site" — i.e. learn a site-specific mapping from the
optimizer's unitless cost to wall-clock seconds from execution history.

The calibrator fits a log-log linear model ``log(time) = a·log(cost) + b``
(robust to the huge dynamic range) and reports goodness-of-fit, giving a
cheap single-number baseline to compare KCCA against: Figure 17's point
is precisely that even a *calibrated* cost estimate scatters 10x-100x,
while KCCA does not.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError, NotFittedError

__all__ = ["CostCalibrator"]

_FLOOR = 1e-9


class CostCalibrator:
    """Log-log linear mapping from optimizer cost units to seconds.

    Attributes (after :meth:`fit`):
        slope / intercept: parameters of
            ``log10(seconds) = slope * log10(cost) + intercept``.
        r_squared: training goodness of fit in log space.
    """

    def __init__(self) -> None:
        self.slope: Optional[float] = None
        self.intercept: Optional[float] = None
        self.r_squared: Optional[float] = None

    def fit(self, costs: np.ndarray, elapsed: np.ndarray) -> "CostCalibrator":
        costs = np.asarray(costs, dtype=float).ravel()
        elapsed = np.asarray(elapsed, dtype=float).ravel()
        if costs.shape != elapsed.shape or len(costs) < 3:
            raise ModelError("fit requires matching arrays of length >= 3")
        log_cost = np.log10(np.maximum(costs, _FLOOR))
        log_time = np.log10(np.maximum(elapsed, _FLOOR))
        slope, intercept = np.polyfit(log_cost, log_time, deg=1)
        fitted = slope * log_cost + intercept
        residual = ((log_time - fitted) ** 2).sum()
        total = ((log_time - log_time.mean()) ** 2).sum()
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.r_squared = float(1.0 - residual / total) if total > 0 else 0.0
        return self

    def predict_seconds(self, costs: np.ndarray) -> np.ndarray:
        """Calibrated elapsed-time estimates for optimizer costs."""
        if self.slope is None or self.intercept is None:
            raise NotFittedError("CostCalibrator is not fitted")
        costs = np.asarray(costs, dtype=float)
        log_cost = np.log10(np.maximum(costs, _FLOOR))
        return 10.0 ** (self.slope * log_cost + self.intercept)

    def scatter_factors(
        self, costs: np.ndarray, elapsed: np.ndarray
    ) -> np.ndarray:
        """Multiplicative deviation of each query from the calibration.

        A value of 10 means the query ran 10x longer or shorter than the
        calibrated cost predicted — the quantity Figure 17 annotates.
        """
        predicted = self.predict_seconds(costs)
        elapsed = np.maximum(np.asarray(elapsed, dtype=float), _FLOOR)
        predicted = np.maximum(predicted, _FLOOR)
        return np.maximum(predicted / elapsed, elapsed / predicted)
