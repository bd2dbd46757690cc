"""Classical (linear) Canonical Correlation Analysis (paper Section V-D).

CCA finds linear projections of two multivariate datasets with maximal
correlation.  The paper adopts its kernelised generalisation because plain
CCA's Euclidean-dot-product notion of similarity is too restrictive for
query features; classical CCA is kept as a baseline and as the linear
special case the KCCA tests compare against.

Implementation: standardise both views, whiten via regularised Cholesky
factors of the covariance matrices, and take the SVD of the whitened
cross-covariance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import finite_input
from repro.errors import ModelError, NotFittedError

__all__ = ["CCA"]


class CCA:
    """Linear CCA between two views of the same N samples.

    Attributes (after :meth:`fit`):
        x_weights / y_weights: p x d and q x d projection matrices.
        correlations: canonical correlations, descending.
    """

    def __init__(self, n_components: int = 2, regularization: float = 1e-6):
        if n_components < 1:
            raise ModelError("n_components must be >= 1")
        self.n_components = n_components
        self.regularization = regularization
        self.x_weights: Optional[np.ndarray] = None
        self.y_weights: Optional[np.ndarray] = None
        self.correlations: Optional[np.ndarray] = None
        self._x_mean: Optional[np.ndarray] = None
        self._y_mean: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "CCA":
        x = finite_input(x, "the x-view samples")
        y = finite_input(y, "the y-view samples")
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ModelError("CCA requires two 2-D arrays with equal rows")
        n = x.shape[0]
        if n < 3:
            raise ModelError("CCA needs at least three samples")
        self._x_mean = x.mean(axis=0)
        self._y_mean = y.mean(axis=0)
        xc = x - self._x_mean
        yc = y - self._y_mean

        cxx = (xc.T @ xc) / (n - 1)
        cyy = (yc.T @ yc) / (n - 1)
        cxy = (xc.T @ yc) / (n - 1)
        cxx += self.regularization * np.trace(cxx) / max(cxx.shape[0], 1) * np.eye(
            cxx.shape[0]
        ) + self.regularization * np.eye(cxx.shape[0])
        cyy += self.regularization * np.trace(cyy) / max(cyy.shape[0], 1) * np.eye(
            cyy.shape[0]
        ) + self.regularization * np.eye(cyy.shape[0])

        # The factors are feature-width, so the triangular systems go
        # through the general solver.
        try:
            lx = np.linalg.cholesky(cxx)
            ly = np.linalg.cholesky(cyy)
            whitened = np.linalg.solve(lx, cxy)
            whitened = np.linalg.solve(ly, whitened.T).T
            u, s, vt = np.linalg.svd(whitened, full_matrices=False)
            d = min(self.n_components, len(s))
            self.x_weights = np.linalg.solve(lx.T, u[:, :d])
            self.y_weights = np.linalg.solve(ly.T, vt[:d].T)
        except np.linalg.LinAlgError as error:
            raise ModelError(f"cannot fit CCA: {error}") from error
        self.correlations = np.clip(s[:d], 0.0, 1.0)
        return self

    def _require_fitted(self) -> None:
        if self.x_weights is None or self.y_weights is None:
            raise NotFittedError("CCA model is not fitted")

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        """Project X-view samples onto the canonical directions."""
        self._require_fitted()
        return (np.asarray(x, dtype=np.float64) - self._x_mean) @ self.x_weights

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        """Project Y-view samples onto the canonical directions."""
        self._require_fitted()
        return (np.asarray(y, dtype=np.float64) - self._y_mean) @ self.y_weights
