"""Seeded inputs: statement streams, arrival schedules, digests.

Everything here is a pure function of its arguments, so the same
``--seed`` replays the same requests.  The program under test only ever
sees the generated SQL text.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.rng import child_generator
from repro.workloads.generator import generate_pool


def statements(workload: str, n: int, seed: int) -> list[str]:
    """``n`` statements rendered from a built-in workload spec."""
    return [query.sql for query in generate_pool(n, seed=seed, workload=workload)]


def mixed_statements(
    shares: Sequence[tuple[str, float]], n: int, seed: int
) -> list[str]:
    """``n`` statements drawn from several specs in the given shares.

    Each spec contributes a contiguous seeded pool; a seeded permutation
    interleaves them so every chunk of the stream sees the whole mix.
    """
    merged: list[str] = []
    for index, (workload, share) in enumerate(shares):
        last = index == len(shares) - 1
        count = n - len(merged) if last else int(round(n * share))
        merged.extend(statements(workload, count, seed))
    order = child_generator(seed, "bench.mix").permutation(len(merged))
    return [merged[i] for i in order]


def arrival_offsets(rate_per_s: float, seconds: float, seed: int) -> list[float]:
    """Poisson arrivals over ``seconds``, conditioned on their count.

    A Poisson process observed to have ``n`` arrivals in a window places
    them as ``n`` sorted uniform draws; fixing ``n = rate * seconds``
    keeps the offered rate the same for every seed while the gaps stay
    exponential-like, so runs differ in burst pattern and not in load.
    """
    n = max(1, int(round(rate_per_s * seconds)))
    draws = child_generator(seed, "bench.arrivals").uniform(0.0, seconds, n)
    return sorted(float(value) for value in draws)


def zipf_indices(n: int, hot_set: int, exponent: float, seed: int) -> list[int]:
    """``n`` draws from a Zipf(``exponent``) law over ``hot_set`` ranks."""
    weights = 1.0 / np.arange(1, hot_set + 1) ** exponent
    weights /= weights.sum()
    rng = child_generator(seed, "bench.zipf")
    return [int(i) for i in rng.choice(hot_set, size=n, p=weights)]


def digest(stream: Iterable[str]) -> str:
    """sha256 over a statement stream (order-sensitive)."""
    sha = hashlib.sha256()
    for statement in stream:
        sha.update(statement.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()
