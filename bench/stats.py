"""Order statistics shared by the benchmark's workloads, tools and tests."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * q / 100.0 - 1e-9)
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def supported_tail(n_samples: int) -> float:
    """The highest percentile that ``n_samples`` supports.

    A percentile counts as supported when at least
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it, so one stall cannot
    set the reported tail on its own.
    """
    for q in TAIL_PERCENTILES:
        beyond_per_mille = round((100.0 - q) * 10)  # exact: no float drift
        if n_samples * beyond_per_mille >= MIN_SAMPLES_BEYOND * 1000:
            return q
    return TAIL_PERCENTILES[-1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the gate computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


@dataclass
class Op:
    """One measured operation: a request, a chunk, a forecast.

    ``weight`` is what the operation completes towards throughput (one
    request, or the statements in a chunk).
    """

    start: float
    done: float
    ok: bool
    latency_ms: float
    weight: int = 1


def quiet_summary(ops: Sequence[Op], n_windows: int, slo_ms: float) -> dict:
    """Windowed, interference-resistant summary of one measured interval.

    The interval is cut into ``n_windows`` equal windows by completion
    time and every statistic is taken per window first.  On a shared VM a
    neighbour only ever makes a window *worse* (here by 10-50 % for
    seconds at a time), so, as ``timeit`` advises for the same reason,
    the reported latency is the lowest window median and the throughput
    the highest window rate: what the code does when the machine lets
    it, which is the part a code change moves.  The SLO share is the
    median window's share.  Pooled values over the whole interval are
    returned alongside, for reading, not for gating.
    """
    if not ops:
        raise ValueError("no operations to summarise")
    begin = min(op.start for op in ops)
    end = max(op.done for op in ops)
    width = max(end - begin, 1e-9) / n_windows
    windows: list[list[Op]] = [[] for _ in range(n_windows)]
    for op in ops:
        windows[min(n_windows - 1, int((op.done - begin) / width))].append(op)
    medians, rates, shares = [], [], []
    for window in windows:
        good = [op.latency_ms for op in window if op.ok]
        if window:
            # over the time the window's operations took, not over its
            # width: a whole number of chunks per width would quantise
            # the rate in steps of several per cent
            busy = max(op.done for op in window) - min(op.start for op in window)
            rates.append(sum(op.weight for op in window if op.ok) / max(busy, 1e-9))
        if good:
            medians.append(median(good))
        if window:
            within = sum(1 for op in window if op.ok and op.latency_ms <= slo_ms)
            shares.append(within / len(window))
    pooled = [op.latency_ms for op in ops if op.ok]
    if not pooled:
        raise ValueError("no operation succeeded")
    tail = supported_tail(len(pooled))
    return {
        "latency_p50_ms": min(medians),
        "throughput_per_s": max(rates),
        "slo_met_share": median(shares),
        "windows": {"latency_p50_ms": medians, "throughput_per_s": rates},
        "pooled": {
            "samples": len(pooled),
            "interval_s": end - begin,
            "latency_p50_ms": percentile(pooled, 50),
            "tail_percentile": tail,
            "latency_tail_ms": percentile(pooled, tail),
            "throughput_per_s": sum(op.weight for op in ops if op.ok) / (end - begin),
            "slo_met_share": sum(
                1 for op in ops if op.ok and op.latency_ms <= slo_ms
            ) / len(ops),
        },
    }
