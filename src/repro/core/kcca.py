"""Kernel Canonical Correlation Analysis (Section V-E / VI-A).

Finds projections of two kernel spaces with maximal correlation.  We use
the standard regularised formulation (Bach & Jordan, JMLR 2002): with
centred kernel matrices ``Kx`` and ``Ky`` and ridge ``r``, the canonical
directions solve

    (Kx + rI)^-1 Kx Ky (Ky + rI)^-1  —  top singular vectors,

which is algebraically equivalent to the generalised eigenproblem printed
in the paper but numerically far better behaved.  The dual coefficient
matrices ``alpha`` and ``beta`` project kernel rows onto the *query
projection* ``Kx @ alpha`` and *performance projection* ``Ky @ beta``.

Two fit paths are implemented:

* ``approximation="exact"`` — the dense solve above: two symmetric
  N x N solves plus an N x N SVD, O(N^3).  Fine at the paper's ~1k-query
  corpora, prohibitive beyond.
* ``approximation="nystrom"`` — a low-rank Nyström solve in the subspace
  spanned by ``rank`` landmark rows (Bach & Jordan-style low-rank kernel
  approximation).  Each centred kernel is factored ``K ≈ Z Z^T`` with
  ``Z = K[:, L] W^{-1/2}`` (``W`` the landmark-landmark block), the
  push-through identity moves every inverse into the rank-r Gram space,
  and the SVD shrinks to r x r — O(N r^2) once the kernels exist.  With
  ``rank == N`` the factorisation is exact and the solve reproduces the
  dense path to numerical precision.

Regularisation is essential here: Gaussian kernel matrices are nearly
low-rank, and unregularised KCCA returns meaningless perfectly-correlated
directions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import checked_array, finite_input
from repro.errors import ModelError, NotFittedError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.seam import stage
from repro.rng import child_generator

__all__ = [
    "KCCA",
    "center_kernel",
    "center_cross_kernel",
    "APPROXIMATIONS",
    "DEFAULT_NYSTROM_RANK",
]

APPROXIMATIONS = ("exact", "nystrom")

#: Landmark count used when ``approximation="nystrom"`` and no explicit
#: ``rank`` is given (clamped to N).
DEFAULT_NYSTROM_RANK = 256

#: Relative eigenvalue cutoff when pseudo-inverting the landmark block.
_EIG_RTOL = 1e-10


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


def _nystrom_factor(kernel_c: np.ndarray, landmarks: np.ndarray) -> np.ndarray:
    """Low-rank factor ``Z`` with ``Z Z^T ≈ K`` from landmark columns.

    ``Z = C V Λ^{-1/2}`` where ``C = K[:, L]`` and ``V Λ V^T`` is the
    eigendecomposition of the landmark block ``W = K[L][:, L]``;
    eigenvalues below the relative cutoff are dropped (pseudo-inverse),
    so near-duplicate landmarks cannot blow the factor up.
    """
    columns = kernel_c[:, landmarks]
    block = columns[landmarks]
    eigenvalues, eigenvectors = np.linalg.eigh(block)
    cutoff = max(float(eigenvalues[-1]), 0.0) * _EIG_RTOL
    keep = eigenvalues > cutoff
    if not keep.any():
        # Degenerate (e.g. constant data): a single zero column keeps the
        # downstream algebra well-defined and yields zero projections.
        return np.zeros((kernel_c.shape[0], 1))
    basis = eigenvectors[:, keep] / np.sqrt(eigenvalues[keep])
    return columns @ basis


class KCCA:
    """Regularised KCCA over precomputed kernel matrices.

    Args:
        n_components: number of canonical directions retained.
        regularization: ridge fraction; the actual ridge added to each
            kernel is ``regularization * N`` (scaling with N keeps the
            effective smoothing comparable across training-set sizes).
        approximation: ``exact`` (dense O(N^3) solve) or ``nystrom``
            (landmark subspace solve, O(N * rank^2)).
        rank: landmark count for the Nyström path; default
            ``min(N, DEFAULT_NYSTROM_RANK)``.  ``rank == N`` reproduces
            the exact solve.
        landmark_seed: seed for the deterministic landmark subsample.

    Attributes (after :meth:`fit`):
        alpha: N x d dual coefficients for the X (query) side.
        beta: N x d dual coefficients for the Y (performance) side.
        correlations: the d canonical correlations, descending.
        landmarks: landmark row indices (Nyström fits), else None.
    """

    def __init__(
        self,
        n_components: int = 8,
        regularization: float = 1e-3,
        approximation: str = "exact",
        rank: Optional[int] = None,
        landmark_seed: int = 0,
    ):
        if n_components < 1:
            raise ModelError("n_components must be >= 1")
        if regularization <= 0:
            raise ModelError("regularization must be positive")
        if approximation not in APPROXIMATIONS:
            raise ModelError(
                f"unknown approximation {approximation!r}; "
                f"expected one of {APPROXIMATIONS}"
            )
        if rank is not None and rank < 1:
            raise ModelError("rank must be >= 1 (or None for the default)")
        self.n_components = n_components
        self.regularization = regularization
        self.approximation = approximation
        self.rank = rank
        self.landmark_seed = landmark_seed
        self.alpha: Optional[np.ndarray] = None
        self.beta: Optional[np.ndarray] = None
        self.correlations: Optional[np.ndarray] = None
        self.landmarks: Optional[np.ndarray] = None
        self._centering: Optional[tuple[np.ndarray, float]] = None
        self._x_proj: Optional[np.ndarray] = None
        self._y_proj: Optional[np.ndarray] = None

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

        with stage(
            "kcca.fit", n=n, approximation=self.approximation, rank=self.rank
        ):
            kx_c = center_kernel(kx)
            ky_c = center_kernel(ky)
            ridge = self.regularization * n
            use_nystrom = self.approximation == "nystrom"
            if use_nystrom and (self.rank or DEFAULT_NYSTROM_RANK) >= n:
                # At rank >= N the landmark subspace is the full space:
                # the factorisation reproduces the dense solve bitwise
                # but costs strictly more (PR 6's report, in git history,
                # measured ~2x slower at n=250, rank=250).  Take the exact path and count
                # the downgrade so operators notice a rank that buys
                # nothing at their corpus size.
                use_nystrom = False
                if metrics_enabled():
                    get_registry().counter(
                        "repro_kcca_nystrom_fallback_total",
                        "Nystrom fits downgraded to the exact solver "
                        "because rank >= n (approximation buys nothing)",
                    ).inc()
            try:
                if use_nystrom:
                    with stage("kcca.fit.nystrom"):
                        self._fit_nystrom(kx_c, ky_c, ridge, d)
                else:
                    with stage("kcca.fit.exact"):
                        self._fit_exact(kx_c, ky_c, ridge, d)
            except np.linalg.LinAlgError as error:
                raise ModelError(f"cannot fit KCCA: {error}") from error
            assert self.alpha is not None and self.beta is not None
            # All that prediction reads of the N x N kernels: the training
            # set's two projections, and the column means and grand mean
            # that centre a new query's kernel row.  The kernels themselves
            # are neither kept nor persisted.
            self._x_proj = kx_c @ self.alpha
            self._y_proj = ky_c @ self.beta
            self._centering = (kx.mean(axis=0, keepdims=True), float(kx.mean()))
        return self

    def _fit_exact(
        self, kx_c: np.ndarray, ky_c: np.ndarray, ridge: float, d: int
    ) -> None:
        n = kx_c.shape[0]
        ax = kx_c + ridge * np.eye(n)
        ay = ky_c + ridge * np.eye(n)

        # M = Ax^-1 Kx Ky Ay^-1, via two solves.
        px = np.linalg.solve(ax, kx_c)  # Ax^-1 Kx
        py = np.linalg.solve(ay, ky_c)  # Ay^-1 Ky
        m = px @ py.T
        u, s, vt = np.linalg.svd(m, full_matrices=False)

        self.alpha = np.linalg.solve(ax, u[:, :d])
        self.beta = np.linalg.solve(ay, vt[:d].T)
        self.correlations = np.clip(s[:d], 0.0, 1.0)
        self.landmarks = None

    def _fit_nystrom(
        self, kx_c: np.ndarray, ky_c: np.ndarray, ridge: float, d: int
    ) -> None:
        """Solve the same problem restricted to the landmark subspace.

        With ``K ≈ Z Z^T`` the push-through identity gives
        ``(K + rI)^-1 K = Z (G + rI)^-1 Z^T`` for the rank-r Gram matrix
        ``G = Z^T Z``, so ``M = Zx (Gx+rI)^-1 (Zx^T Zy) (Gy+rI)^-1 Zy^T``.
        Thin QR of each factor reduces the SVD to r x r, and Woodbury
        turns ``alpha = (Kx + rI)^-1 u`` into rank-r solves — no N x N
        linear algebra anywhere.
        """
        n = kx_c.shape[0]
        rank = min(self.rank or DEFAULT_NYSTROM_RANK, n)
        rng = child_generator(self.landmark_seed, "kcca-nystrom-landmarks")
        landmarks = np.sort(rng.permutation(n)[:rank])

        zx = _nystrom_factor(kx_c, landmarks)  # N x rx
        zy = _nystrom_factor(ky_c, landmarks)  # N x ry
        qx, rx = np.linalg.qr(zx)
        qy, ry = np.linalg.qr(zy)
        gx = zx.T @ zx + ridge * np.eye(zx.shape[1])
        gy = zy.T @ zy + ridge * np.eye(zy.shape[1])
        cross = zx.T @ zy  # rx x ry
        inner = np.linalg.solve(gx, cross)
        inner = np.linalg.solve(gy, inner.T).T
        small = rx @ inner @ ry.T
        u_s, s, vt_s = np.linalg.svd(small, full_matrices=False)

        d = min(d, s.shape[0])
        u = qx @ u_s[:, :d]
        v = qy @ vt_s[:d].T
        # Woodbury: (Z Z^T + rI)^-1 u = (u - Z (G + rI)^-1 Z^T u) / r.
        self.alpha = (u - zx @ np.linalg.solve(gx, zx.T @ u)) / ridge
        self.beta = (v - zy @ np.linalg.solve(gy, zy.T @ v)) / ridge
        self.correlations = np.clip(s[:d], 0.0, 1.0)
        self.landmarks = landmarks

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.alpha is None or self.beta is None:
            raise NotFittedError("KCCA model is not fitted")

    @property
    def x_projection(self) -> np.ndarray:
        """Training points in the query projection (N x d)."""
        self._require_fitted()
        assert self._x_proj is not None
        return self._x_proj

    @property
    def y_projection(self) -> np.ndarray:
        """Training points in the performance projection (N x d)."""
        self._require_fitted()
        assert self._y_proj is not None
        return self._y_proj

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
                "beta": self.beta,
                "correlations": self.correlations,
                "x_projection": self._x_proj,
                "y_projection": self._y_proj,
                "kernel_column_means": self._centering[0],
                "kernel_mean": self._centering[1],
            }
            if self.landmarks is not None:
                fitted["landmarks"] = self.landmarks
        return {
            "config": {
                "n_components": self.n_components,
                "regularization": self.regularization,
                "approximation": self.approximation,
                "rank": self.rank,
                "landmark_seed": self.landmark_seed,
            },
            "fitted": fitted,
        }

    def load_state_dict(self, state: dict) -> "KCCA":
        """Restore a :meth:`state_dict` export (inverse operation);
        ``ModelError`` when the fitted arrays disagree about N or d."""
        self.__init__(**state["config"])
        fitted = state.get("fitted")
        if fitted is not None:
            self.alpha = checked_array(fitted, "alpha", None, None)
            n, d = self.alpha.shape
            self.beta = checked_array(fitted, "beta", n, d)
            self.correlations = checked_array(fitted, "correlations", d)
            self._x_proj = checked_array(fitted, "x_projection", n, d)
            self._y_proj = checked_array(fitted, "y_projection", n, d)
            self._centering = (
                checked_array(fitted, "kernel_column_means", 1, n),
                float(checked_array(fitted, "kernel_mean")),
            )
            if fitted.get("landmarks") is not None:
                self.landmarks = np.asarray(fitted["landmarks"])
        return self

    def projection_correlation(self) -> np.ndarray:
        """Empirical per-component correlation of the two training
        projections (diagnostic; should track ``correlations``)."""
        self._require_fitted()
        xs = self.x_projection
        ys = self.y_projection
        corrs = []
        for i in range(xs.shape[1]):
            x, y = xs[:, i], ys[:, i]
            denom = x.std() * y.std()
            corrs.append(float(np.mean((x - x.mean()) * (y - y.mean())) / denom)
                         if denom > 0 else 0.0)
        return np.array(corrs)
