"""Nearest-neighbour search and neighbour combination (Section VI-E).

Prediction maps a new query's projection coordinates to the performance
vectors of its k nearest training neighbours.  The paper evaluates three
design choices, all implemented here:

1. the distance metric — Euclidean vs cosine (Table I; Euclidean wins);
2. the number of neighbours k in 3..7 (Table II; negligible difference,
   k = 3 chosen);
3. the weighting of neighbours — equal, 3:2:1, or inverse-distance
   (Table III; no consistent winner, equal chosen).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import cross_squared_distances
from repro.errors import ModelError

__all__ = [
    "nearest_neighbors",
    "combine_neighbors",
    "DISTANCE_METRICS",
    "WEIGHTING_SCHEMES",
]

DISTANCE_METRICS = ("euclidean", "cosine")
WEIGHTING_SCHEMES = ("equal", "ranked", "distance")

_EPSILON = 1e-12

#: Neighbour distances are compared, and returned, rounded to this many
#: decimals (see :func:`nearest_neighbors`).
_QUANTUM_DECIMALS = 9
_QUANTUM = 10.0**-_QUANTUM_DECIMALS

#: Bound on the all-pairs distance forms' rounding error: a few hundred
#: ulps of ``|a|^2 + |b|^2`` on a squared Euclidean distance, of 1 on a
#: cosine.
_ROUGH_RELATIVE_NOISE = 1e-13


def _euclidean_distances(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b keeps the working set at
    # (m, n) instead of materialising the (m, n, d) broadcast tensor.
    distances = cross_squared_distances(points, reference)
    return np.sqrt(distances, out=distances)


def _cosine_distances(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    point_norms = np.linalg.norm(points, axis=1, keepdims=True)
    ref_norms = np.linalg.norm(reference, axis=1, keepdims=True)
    cosine = (points @ reference.T) / (
        np.maximum(point_norms, _EPSILON) * np.maximum(ref_norms.T, _EPSILON)
    )
    return 1.0 - np.clip(cosine, -1.0, 1.0)


def _pair_distances(
    points: np.ndarray, shortlist: np.ndarray, metric: str
) -> np.ndarray:
    """Distance from ``points[i]`` to each of ``shortlist[i]`` — shapes
    (m, d) and (m, w, d) — every pair reduced on its own, so a pair's
    value does not depend on m or w."""
    if metric == "euclidean":
        difference = shortlist - points[:, None, :]
        return np.sqrt((difference * difference).sum(axis=2))
    dots = (shortlist * points[:, None, :]).sum(axis=2)
    point_norms = np.sqrt((points * points).sum(axis=1))[:, None]
    shortlist_norms = np.sqrt((shortlist * shortlist).sum(axis=2))
    cosine = dots / (
        np.maximum(point_norms, _EPSILON) * np.maximum(shortlist_norms, _EPSILON)
    )
    return 1.0 - np.clip(cosine, -1.0, 1.0)


def nearest_neighbors(
    points: np.ndarray,
    reference: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest ``reference`` rows for each row of ``points``.

    Returns:
        (indices, distances), each of shape (n_points, k), neighbours
        ordered nearest first.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64)
    if metric not in DISTANCE_METRICS:
        raise ModelError(f"unknown distance metric {metric!r}")
    if k < 1:
        raise ModelError("k must be >= 1")
    if reference.ndim != 2 or reference.shape[0] == 0:
        raise ModelError("reference set must be a non-empty 2-D array")
    k = min(k, reference.shape[0])
    # Shortlist on the fast all-pairs distances, then rank the shortlist
    # on distances recomputed pair by pair.  The all-pairs forms (a
    # matrix product) carry cancellation noise that depends on the batch
    # shape — near zero the square root blows it up to ~1e-8 — so a
    # query that coincides with several training rows (duplicate plans
    # project to one point) would otherwise keep a different k of them
    # batched than alone.  A pair's own ``((ref - p)**2).sum()`` does not
    # depend on what else is in the batch.
    if metric == "euclidean":
        rough = _euclidean_distances(points, reference)
        # The error scales with |a|^2 + |b|^2, and |b| <= |a| + d(a, b):
        # bounded from what is already computed, reference norms unread.
        norms = np.sqrt(np.einsum("ij,ij->i", points, points))
        scale = norms**2 + (norms + rough.max(axis=1)) ** 2
        noise = np.sqrt(_ROUGH_RELATIVE_NOISE * scale)
    else:
        rough = _cosine_distances(points, reference)
        noise = _ROUGH_RELATIVE_NOISE
    n_reference = reference.shape[0]
    rows = np.arange(points.shape[0])[:, None]
    candidate = np.argpartition(rough, kth=k - 1, axis=1)[:, :k]
    # Everything that could still rank among the k nearest once exact:
    # within the noise, plus two quanta, of the k-th rough distance.
    reach = rough[rows, candidate].max(axis=1) + noise + 2.0 * _QUANTUM
    width = int((rough <= reach[:, None]).sum(axis=1).max())
    if width >= n_reference:
        candidate = np.broadcast_to(np.arange(n_reference), rough.shape)
    elif width > k:
        candidate = np.argpartition(rough, kth=width - 1, axis=1)[:, :width]
    exact = _pair_distances(points, reference[candidate], metric)
    # Rank on quantized distances with index tie-breaking: the same
    # query projects to coordinates that differ in the last ulp between
    # batched and single-query BLAS paths, and duplicates must resolve
    # to the same neighbours whatever the batch size.
    quantized = np.round(exact, decimals=_QUANTUM_DECIMALS)
    order = np.lexsort((candidate, quantized), axis=1)[:, :k]
    return candidate[rows, order], quantized[rows, order]


def combine_neighbors(
    neighbor_values: np.ndarray,
    distances: np.ndarray,
    weighting: str = "equal",
) -> np.ndarray:
    """Blend the k neighbours' performance vectors into one prediction.

    Args:
        neighbor_values: (k, n_metrics) raw neighbour performance vectors,
            nearest first.
        distances: (k,) distances to the neighbours.
        weighting: ``equal``, ``ranked`` (k:k-1:...:1, the paper's 3:2:1
            for k = 3), or ``distance`` (inverse-distance).
    """
    neighbor_values = np.asarray(neighbor_values, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    if neighbor_values.ndim != 2:
        raise ModelError("neighbor_values must be (k, n_metrics)")
    k = neighbor_values.shape[0]
    if distances.shape != (k,):
        raise ModelError("distances must have one entry per neighbour")
    if weighting == "equal":
        weights = np.ones(k)
    elif weighting == "ranked":
        weights = np.arange(k, 0, -1, dtype=np.float64)
    elif weighting == "distance":
        weights = 1.0 / np.maximum(distances, _EPSILON)
    else:
        raise ModelError(f"unknown weighting scheme {weighting!r}")
    weights = weights / weights.sum()
    return weights @ neighbor_values
