"""Hash partitioning of rows across the disks/nodes of the parallel system.

The simulated system, like HP Neoview, hash-partitions every table across
all disks.  Partition *counts* drive the skew factor in the timing model:
elapsed time of a parallel operator is governed by its most loaded
partition, not the average.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hash_partition", "partition_counts", "skew_factor"]

_INT64_MIN = np.float64(-(2.0**63))


def hash_partition(keys: np.ndarray, n_partitions: int) -> np.ndarray:
    """Assign each row to a partition by hashing its key.

    Works for integer, float and string keys; the integer path uses a
    cheap multiplicative hash (Knuth) so that sequential surrogate keys
    spread evenly rather than striping.  A float key hashes by its
    integer part.

    Returns:
        int64 array of partition ids in ``[0, n_partitions)``.
    """
    if n_partitions <= 0:
        raise ValueError("n_partitions must be positive")
    if n_partitions == 1:
        return np.zeros(len(keys), dtype=np.int64)
    if np.issubdtype(keys.dtype, np.integer):
        wide = keys.view(np.uint64) if keys.dtype.itemsize == 8 else keys.astype(np.uint64)
        hashed = wide * np.uint64(2654435761)
        hashed &= np.uint64(0xFFFFFFFF)
        hashed %= np.uint64(n_partitions)
        return hashed.view(np.int64)
    if np.issubdtype(keys.dtype, np.floating):
        # A key int64 cannot hold (NaN, +-inf, |x| >= 2**63) has no defined
        # cast; it hashes as int64's minimum, which x86 casts it to.
        in_range = (keys >= _INT64_MIN) & (keys < -_INT64_MIN)
        whole = np.where(in_range, keys, _INT64_MIN).astype(np.int64)
        return np.abs(whole) % n_partitions
    # String keys: stable per-value hash via vectorised lookup.
    values, inverse = np.unique(keys, return_inverse=True)
    value_hash = np.array(
        [_string_hash(v) % n_partitions for v in values], dtype=np.int64
    )
    return value_hash[inverse]


def _string_hash(value: str) -> int:
    """FNV-1a hash of a string, independent of Python hash randomisation."""
    h = 2166136261
    for ch in str(value).encode("utf-8"):
        h ^= ch
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def partition_counts(
    keys: np.ndarray, n_partitions: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Rows per partition after hash partitioning ``keys``, where key ``i``
    stands for ``weights[i]`` rows (one each by default)."""
    parts = hash_partition(keys, n_partitions)
    return np.bincount(parts, weights, minlength=n_partitions).astype(np.int64)


def skew_factor(counts: np.ndarray) -> float:
    """Ratio of the largest partition to the average partition.

    A perfectly balanced partitioning yields 1.0.  The timing model
    multiplies per-operator work by this factor, because the slowest node
    gates a parallel operator's completion.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        return 1.0
    mean = counts.mean()
    if mean <= 0:
        return 1.0
    return float(counts.max() / mean)
