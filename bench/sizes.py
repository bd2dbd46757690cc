"""Every size the benchmark uses, in one place.

``full()`` is what the gate runs; ``smoke()`` shrinks everything so the
benchmark's own tests can drive all four workloads in under a minute.
The sizes are part of the benchmark's definition: changing one changes
what the numbers mean, and the baseline must be measured again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

#: The training corpus is a fixed data set (like the paper's 1027
#: measured queries): a handful of "problem" templates take seconds each
#: and dominate a corpus build, so a pool drawn afresh from every
#: ``--seed`` would swing training time by 5x from seed to seed and drown
#: any change to the code.  ``--seed`` drives everything the trained
#: model is then *asked*: statement streams, arrival times, hot sets and
#: held-out statements.
TRAIN_SEED = 7
TRAIN_WORKLOAD = "tpcds"


def cpu_budget() -> int:
    """Worker processes / sender threads the benchmark may use."""
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Sizes:
    train_queries: int = 300
    train_scale: float = 0.05
    setup_repeats: int = 3
    warmup_requests: int = 100
    warmup_statements: int = 1000
    open_rate_per_s: float = 60.0
    slo_ms: float = 25.0
    hot_set: int = 256
    zipf_exponent: float = 1.1
    closed_stream_per_s: int = 1500
    chunk: int = 64
    batch_stream_per_s: int = 5000
    chunk_slo_ms: float = 250.0
    forecasts_per_cycle: int = 250
    # 200 held-out statements put within20_elapsed anywhere from 0.80 to
    # 0.93 depending on the seed; 600 keep it within 0.84-0.92.
    heldout: int = 600
    # The paper's headline (elapsed time within 20 % for >= 85 % of test
    # queries) less slack for the small training set used here.
    within20_floor: float = 0.80
    check_statements: int = 50
    windows: int = 20
    # traced runs
    trace_seconds_share: float = 0.3
    decompose_chunks: int = 12
    # The layers' pieces must add up to the whole forecast_many call.
    coverage_floor: float = 0.90
    engine_sample: int = 150
    floor_probes: int = 100
    ladder_rates: tuple = (100.0, 200.0, 300.0)
    ladder_seconds: float = 2.0
    ladder_p99_limit_ms: float = 15.0
    trace_deadline_ms: float = 30000.0


def full() -> Sizes:
    return Sizes()


def smoke() -> Sizes:
    return replace(
        Sizes(),
        train_queries=60,
        train_scale=0.02,
        setup_repeats=1,
        warmup_requests=10,
        warmup_statements=64,
        forecasts_per_cycle=50,
        heldout=20,
        within20_floor=0.5,
        check_statements=5,
        windows=4,
        decompose_chunks=2,
        coverage_floor=0.5,
        engine_sample=20,
        floor_probes=10,
        ladder_seconds=0.3,
    )
