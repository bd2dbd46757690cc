"""Kernel Canonical Correlation Analysis (Section V-E / VI-A).

Finds projections of two kernel spaces with maximal correlation.  We use
the standard regularised formulation (Bach & Jordan, JMLR 2002): with
centred kernel matrices ``Kx`` and ``Ky`` and ridge ``r``, the canonical
directions solve

    (Kx + rI)^-1 Kx Ky (Ky + rI)^-1  —  top singular vectors,

which is algebraically equivalent to the generalised eigenproblem printed
in the paper but numerically far better behaved.  The dual coefficients
``alpha`` project kernel rows onto the *query projection* ``Kx @ alpha``,
all a forecast reads.  A fit also keeps, in memory only, the training
set's *performance projection* (read off a solve it makes anyway) and the
canonical correlations, for the Figure 6 diagnostics.

This is the dense solve: three N x N solves plus an N x N SVD, O(N^3) —
fine at the paper's ~1k-query training sets.

Regularisation is essential here: Gaussian kernel matrices are nearly
low-rank, and unregularised KCCA returns meaningless perfectly-correlated
directions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import checked_array, finite_input, settings
from repro.errors import ModelError, NotFittedError
from repro.obs.seam import stage

__all__ = [
    "KCCA",
    "center_kernel",
    "center_cross_kernel",
]


def center_kernel(kernel: np.ndarray) -> np.ndarray:
    """Double-centre a square kernel matrix (H K H)."""
    kernel = np.asarray(kernel, dtype=np.float64)
    row_means = kernel.mean(axis=0, keepdims=True)
    col_means = kernel.mean(axis=1, keepdims=True)
    total_mean = kernel.mean()
    return kernel - row_means - col_means + total_mean


def center_cross_kernel(
    cross: np.ndarray, train_col_means: np.ndarray, total_mean: float
) -> np.ndarray:
    """Centre new-vs-train kernel evaluations in the training feature space.

    ``cross`` is M x N (new points vs training points); centring uses the
    training kernel's 1 x N column means and grand mean so new points
    land in the same centred space the model was fitted in.
    """
    cross = np.asarray(cross, dtype=np.float64)
    new_row_means = cross.mean(axis=1, keepdims=True)  # M x 1
    return cross - new_row_means - train_col_means + total_mean


class KCCA:
    """Regularised KCCA over precomputed kernel matrices.

    Args:
        n_components: number of canonical directions retained.
        regularization: ridge fraction; the actual ridge added to each
            kernel is ``regularization * N`` (scaling with N keeps the
            effective smoothing comparable across training-set sizes).

    Attributes (after :meth:`fit` or :meth:`load_state_dict`):
        alpha: N x d dual coefficients for the X (query) side.
    """

    def __init__(
        self,
        n_components: int = 8,
        regularization: float = 1e-3,
    ):
        if n_components < 1:
            raise ModelError("n_components must be >= 1")
        if regularization <= 0:
            raise ModelError("regularization must be positive")
        self.n_components = n_components
        self.regularization = regularization
        self.alpha: Optional[np.ndarray] = None
        self._centering: Optional[tuple[np.ndarray, float]] = None
        self._x_proj: Optional[np.ndarray] = None
        # Read by no forecast: kept by a fit, never persisted.
        self._y_proj: Optional[np.ndarray] = None
        self._correlations: Optional[np.ndarray] = None

    # ------------------------------------------------------------------

    def fit(self, kx: np.ndarray, ky: np.ndarray) -> "KCCA":
        """Fit from two N x N kernel matrices over the same N points."""
        kx = finite_input(kx, "the query kernel entries")
        ky = finite_input(ky, "the performance kernel entries")
        if kx.shape != ky.shape or kx.shape[0] != kx.shape[1]:
            raise ModelError("kernel matrices must be square and same shape")
        n = kx.shape[0]
        if n < 2:
            raise ModelError("KCCA needs at least two training points")
        d = min(self.n_components, n - 1)

        with stage("kcca.fit", n=n):
            kx_c = center_kernel(kx)
            ky_c = center_kernel(ky)
            try:
                self.alpha, self._y_proj, self._correlations = self._solve(
                    kx_c, ky_c, self.regularization * n, d
                )
            except np.linalg.LinAlgError as error:
                raise ModelError(f"cannot fit KCCA: {error}") from error
            # All that prediction reads of the N x N kernels: the training
            # set's query projection, and the column means and grand mean
            # that centre a new query's kernel row.  The kernels themselves
            # are neither kept nor persisted.
            self._x_proj = kx_c @ self.alpha
            self._centering = (kx.mean(axis=0, keepdims=True), float(kx.mean()))
        return self

    def _solve(
        self, kx_c: np.ndarray, ky_c: np.ndarray, ridge: float, d: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``alpha``, the performance projection and the correlations."""
        n = kx_c.shape[0]
        ax = kx_c + ridge * np.eye(n)
        ay = ky_c + ridge * np.eye(n)

        # M = Ax^-1 Kx Ky Ay^-1, via two solves.
        px = np.linalg.solve(ax, kx_c)  # Ax^-1 Kx
        py = np.linalg.solve(ay, ky_c)  # Ay^-1 Ky
        m = px @ py.T
        u, s, vt = np.linalg.svd(m, full_matrices=False)

        # Ay and Ky are symmetric, so the performance projection
        # Ky Ay^-1 v is py.T @ v: it needs no solve of its own.
        y_proj = py.T @ vt[:d].T
        return np.linalg.solve(ax, u[:, :d]), y_proj, np.clip(s[:d], 0.0, 1.0)

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.alpha is None:
            raise NotFittedError("KCCA model is not fitted")

    def _fit_only(self, value: Optional[np.ndarray], name: str) -> np.ndarray:
        self._require_fitted()
        if value is None:
            raise ModelError(f"a loaded model has no {name}: an artifact "
                             "stores only what a forecast reads")
        return value

    @property
    def x_projection(self) -> np.ndarray:
        """Training points in the query projection (N x d)."""
        self._require_fitted()
        assert self._x_proj is not None
        return self._x_proj

    @property
    def y_projection(self) -> np.ndarray:
        """Training points in the performance projection (N x d), after a fit."""
        return self._fit_only(self._y_proj, "performance projection")

    @property
    def correlations(self) -> np.ndarray:
        """The d canonical correlations, descending, after a fit."""
        return self._fit_only(self._correlations, "canonical correlations")

    def project_x(self, cross_kernel: np.ndarray) -> np.ndarray:
        """Project new points given their M x N kernel against training X.

        Returns M x d coordinates in the query projection.
        """
        self._require_fitted()
        assert self._centering is not None and self.alpha is not None
        with stage("kcca.project", n=int(np.asarray(cross_kernel).shape[0])):
            centered = center_cross_kernel(cross_kernel, *self._centering)
            return centered @ self.alpha

    def state_dict(self) -> dict:
        """Constructor arguments plus what prediction reads of a fit."""
        fitted = None
        if self.alpha is not None:
            assert self._centering is not None
            fitted = {
                "alpha": self.alpha,
                "x_projection": self._x_proj,
                "kernel_column_means": self._centering[0],
                "kernel_mean": self._centering[1],
            }
        return {
            "config": {
                "n_components": self.n_components,
                "regularization": self.regularization,
            },
            "fitted": fitted,
        }

    def load_state_dict(self, state: dict) -> "KCCA":
        """Restore a :meth:`state_dict` export (inverse operation);
        ``ModelError`` when the fitted arrays disagree about N or d.  The
        performance side older builds also wrote is never read."""
        self.__init__(**settings(state["config"]))
        fitted = state.get("fitted")
        if fitted is not None:
            self.alpha = checked_array(fitted, "alpha", None, None)
            n, d = self.alpha.shape
            self._x_proj = checked_array(fitted, "x_projection", n, d)
            self._centering = (
                checked_array(fitted, "kernel_column_means", 1, n),
                float(checked_array(fitted, "kernel_mean")),
            )
        return self
