"""Component benchmark harness: seven ratio sections, one JSON report.

End-to-end speed (corpus build, forecast latency, served latency under
load) is measured by the gate benchmark, ``python3 bench/run.py`` (see
``BENCHMARK.json`` and docs/PERFORMANCE.md).  This module keeps the
comparisons *inside* one component that nothing else measures: worker
attach vs rebuild, exact vs Nyström fit, and what tracing, fault sites,
plan lint and tracked locks cost when off and on, plus per-family
accuracy of the spec-driven workloads.

``python scripts/bench.py`` runs every section in :data:`SECTIONS` and
prints a summary; ``--quick`` shrinks them for CI smoke coverage.  All
numbers are wall-clock from ``time.perf_counter`` on the reporting
machine; the report embeds the CPU count and library versions.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.kcca import KCCA
from repro.core.kernels import gaussian_kernel_matrix, scale_factor_heuristic
from repro.core.predictor import KCCAPredictor
from repro.engine.system import research_4node
from repro.experiments.corpus import build_corpus
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.workloads.generator import generate_pool
from repro.workloads.tpcds import build_tpcds_catalog

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SECTIONS",
    "machine_info",
    "bench_data_plane",
    "bench_kcca_fit",
    "bench_observability_overhead",
    "bench_fault_site_overhead",
    "bench_plan_lint_overhead",
    "bench_workload_families",
    "bench_sanitizer_overhead",
    "run_benchmarks",
    "format_report",
]

#: Bump when the report layout changes incompatibly.
#: v2: corpus-build runs gained ``effective_jobs``/``oversubscribed``
#: (worker counts are now clamped to the machine's CPUs) and the report
#: gained the ``workloads`` per-family accuracy section.
#: v3: corpus-build gained ``scaling_valid`` (1-CPU boxes cannot measure
#: scaling, only overhead) and the report gained the ``data_plane``
#: section (attach-vs-rebuild worker init, chunked task overhead, warm
#: pool reuse).
#: v4: the report gained the ``serving`` section — seeded load drills
#: against the live HTTP daemon at several micro-batch sizes, reporting
#: p50/p99 request latency, the request→batch collapse factor and
#: rejected/dropped counts (docs/SERVING.md).
#: v5: serving rows gained ``degraded``/``degrade_tier`` and the drill
#: gained a forced tier-2 (lean) run, so the report shows what the
#: degradation ladder buys in p99 when the daemon sheds work.
#: v6: the report gained the ``sanitizer`` section — per-op cost of the
#: tracked-lock wrappers (raw vs disabled vs enabled) and serving
#: p50/p99 with the runtime concurrency sanitizer off vs on, plus the
#: measured acquire count per request and the estimated disabled-mode
#: p99 overhead (budget: < 1%).
#: v7: ``corpus_build``, ``predict_latency``, ``serving`` and
#: ``data_plane.scaling`` are gone — the gate benchmark reports build
#: throughput and parallel efficiency, forecast latency and served
#: latency under load, with output checks.
BENCH_SCHEMA_VERSION = 7


def machine_info() -> dict:
    """The environment the numbers were measured on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
    }


def _synthetic_training_data(
    n: int, seed: int = 0, n_features: int = 12, n_metrics: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """Corpus-shaped synthetic data: log-normal cardinality-like features
    and positive, feature-correlated performance metrics."""
    rng = np.random.default_rng(seed)
    features = rng.lognormal(mean=3.0, sigma=1.5, size=(n, n_features))
    weights = rng.uniform(0.2, 1.0, size=(n_features, n_metrics))
    performance = np.log1p(features) @ weights
    performance *= rng.lognormal(0.0, 0.1, size=performance.shape)
    return features, performance


# ----------------------------------------------------------------------
# Shared-memory data plane
# ----------------------------------------------------------------------


def _bench_chunk_noop(instances: Sequence[object]) -> int:
    """Module-level no-op chunk task (pure submission-overhead probe)."""
    return len(instances)


def bench_data_plane(
    scale_factor: float = 1.0,
    n_tasks: int = 512,
    chunk_size: int = 32,
    init_repeats: int = 5,
    n_queries: int = 48,
    seed: int = 7,
) -> dict:
    """Measure the three data-plane wins in isolation.

    * **worker init**: unpickle-and-rebuild the full catalog (the
      pre-data-plane worker initializer) vs. attach the published
      shared-memory plane — the per-worker, per-pool-spinup cost of
      catalog acquisition (optimizer/executor construction is paid
      identically on both sides and kept off the clock).
    * **task submission**: per-query overhead of one-task-per-query vs.
      chunked submission, measured with no-op tasks on a live 2-worker
      pool so only the IPC/bookkeeping is on the clock.
    * **warm pool**: a second identical ``build_corpus`` with the warm
      pool enabled vs. back-to-back cold builds.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from repro.engine import Executor
    from repro.optimizer import Optimizer
    from repro.storage.shared import attach_catalog, share_catalog

    catalog = build_tpcds_catalog(scale_factor=scale_factor, seed=seed)
    for name in catalog.table_names:
        catalog.stats(name)  # publisher-side stats, like build_corpus
    config = research_4node()
    pickled = pickle.dumps(catalog)

    # -- worker init: rebuild (unpickle) vs attach ---------------------
    # The clock covers catalog *acquisition* only — the part the data
    # plane changes.  Optimizer/Executor construction is paid
    # identically on both sides (verified outside the clock below) and
    # would only dilute the measured delta.
    rebuild_samples = []
    rebuilt_keep = []  # hold every copy: each worker allocates fresh
    for _ in range(init_repeats):
        start = time.perf_counter()
        rebuilt = pickle.loads(pickled)
        rebuild_samples.append(time.perf_counter() - start)
        Optimizer(rebuilt, config)
        Executor(rebuilt, config)
        # Keeping the copies alive stops the allocator recycling the
        # previous iteration's pages — a real worker unpickles into a
        # freshly forked process and never gets that discount.
        rebuilt_keep.append(rebuilt)
    del rebuilt_keep
    shared = share_catalog(catalog)
    descriptor_blob = pickle.dumps(shared.descriptor)
    attach_samples = []
    try:
        for _ in range(init_repeats):
            start = time.perf_counter()
            attached = attach_catalog(pickle.loads(descriptor_blob))
            attach_samples.append(time.perf_counter() - start)
            Optimizer(attached.catalog, config)
            Executor(attached.catalog, config)
            attached.close()
    finally:
        shared.close()
    # Best-of, not median: scheduler noise only ever *adds* time, and
    # the attach side is sub-millisecond, where one preemption is
    # enough to halve the measured ratio.  run_benchmarks also runs
    # this section first, before the memory-heavy sections warm the
    # allocator and make the 27 MB unpickle look cheaper than a real
    # worker's first one.
    rebuild_ms = float(np.min(rebuild_samples)) * 1e3
    attach_ms = float(np.min(attach_samples)) * 1e3
    worker_init = {
        "catalog_pickle_mb": len(pickled) / 1e6,
        "descriptor_kb": len(descriptor_blob) / 1e3,
        "rebuild_ms": rebuild_ms,
        "attach_ms": attach_ms,
        "speedup": rebuild_ms / attach_ms,
    }

    # -- task submission: singles vs chunks on a live pool -------------
    items = list(range(n_tasks))
    with ProcessPoolExecutor(max_workers=2) as workers:
        list(workers.map(_bench_chunk_noop, [[0]]))  # spin up outside clock
        start = time.perf_counter()
        singles = [workers.submit(_bench_chunk_noop, [i]) for i in items]
        for future in singles:
            future.result()
        single_s = time.perf_counter() - start
        chunks = [
            items[i:i + chunk_size] for i in range(0, n_tasks, chunk_size)
        ]
        start = time.perf_counter()
        futures = [workers.submit(_bench_chunk_noop, c) for c in chunks]
        for future in futures:
            future.result()
        chunked_s = time.perf_counter() - start
    task_submission = {
        "n_tasks": n_tasks,
        "chunk_size": chunk_size,
        "per_query_us_single": single_s / n_tasks * 1e6,
        "per_query_us_chunked": chunked_s / n_tasks * 1e6,
        "overhead_ratio": single_s / chunked_s,
    }

    # -- warm pool: repeated builds over the same catalog --------------
    from repro.experiments.workerpool import warmed_pool

    pool = generate_pool(n_queries, seed=seed)
    small_catalog = build_tpcds_catalog(scale_factor=0.05, seed=seed)
    start = time.perf_counter()
    build_corpus(small_catalog, config, pool, jobs=2)
    cold_s = time.perf_counter() - start
    with warmed_pool():
        build_corpus(small_catalog, config, pool, jobs=2)  # pay spin-up
        start = time.perf_counter()
        build_corpus(small_catalog, config, pool, jobs=2)
        warm_s = time.perf_counter() - start
    warm_pool_section = {
        "n_queries": n_queries,
        "cold_build_s": cold_s,
        "warm_build_s": warm_s,
        "speedup": cold_s / warm_s,
    }

    return {
        "scale_factor": scale_factor,
        "worker_init": worker_init,
        "task_submission": task_submission,
        "warm_pool": warm_pool_section,
    }


# ----------------------------------------------------------------------
# KCCA fit: exact vs. Nyström
# ----------------------------------------------------------------------


def bench_kcca_fit(
    sizes: Sequence[int] = (250, 1000, 2000),
    rank: int = 256,
    n_components: int = 8,
    seed: int = 0,
) -> list[dict]:
    """Time the exact and Nyström fits on identical kernel matrices.

    Kernel construction is shared (both paths need it) and timed
    separately; the fit numbers isolate the solve itself.  The
    ``correlation_gap`` column is the largest absolute difference in
    canonical correlations — a cheap fidelity check on each point.
    """
    results = []
    for n in sizes:
        features, performance = _synthetic_training_data(n, seed=seed)
        fx = np.log1p(features)
        fy = np.log1p(performance)
        start = time.perf_counter()
        kx = gaussian_kernel_matrix(fx, scale_factor_heuristic(fx, 0.1))
        ky = gaussian_kernel_matrix(fy, scale_factor_heuristic(fy, 0.2))
        kernel_s = time.perf_counter() - start

        start = time.perf_counter()
        exact = KCCA(n_components=n_components).fit(kx, ky)
        exact_s = time.perf_counter() - start

        start = time.perf_counter()
        nystrom = KCCA(
            n_components=n_components, approximation="nystrom", rank=rank
        ).fit(kx, ky)
        nystrom_s = time.perf_counter() - start

        width = min(
            exact.correlations.shape[0], nystrom.correlations.shape[0]
        )
        gap = float(
            np.abs(
                exact.correlations[:width] - nystrom.correlations[:width]
            ).max()
        )
        results.append(
            {
                "n": n,
                "rank": min(rank, n),
                "kernel_seconds": kernel_s,
                "exact_seconds": exact_s,
                "nystrom_seconds": nystrom_s,
                "speedup": exact_s / nystrom_s,
                "correlation_gap": gap,
            }
        )
    return results


# ----------------------------------------------------------------------
# Observability overhead
# ----------------------------------------------------------------------


def bench_observability_overhead(
    n_train: int = 800,
    batch: int = 16,
    repeats: int = 50,
    seed: int = 3,
) -> dict:
    """Predict latency with observability off vs. fully on.

    The obs layer's contract is "safe to leave in the hot path": the
    disabled cost is one flag check per instrumented call site.  This
    measures both sides of that claim — the *disabled* overhead is what
    the acceptance criterion bounds (p95 within 5 % of the pre-obs
    baseline), and the *enabled* column documents the price of turning
    tracing + metrics on (spans are drained every iteration so the trace
    tree cannot grow across repeats).
    """
    features, performance = _synthetic_training_data(
        n_train + batch, seed=seed
    )
    pipeline_model = KCCAPredictor().fit(
        features[:n_train], performance[:n_train]
    )
    queries = features[n_train:n_train + batch]

    def measure() -> tuple[float, float]:
        pipeline_model.predict(queries)  # warm
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            pipeline_model.predict(queries)
            samples.append(time.perf_counter() - start)
            _obs_trace.drain_trace()
        p50, p95 = np.percentile(samples, [50, 95])
        return float(p50) * 1e3, float(p95) * 1e3

    was_tracing = _obs_trace.tracing_enabled()
    was_metrics = _obs_metrics.metrics_enabled()
    try:
        _obs_trace.disable_tracing()
        _obs_metrics.disable_metrics()
        off_p50, off_p95 = measure()
        _obs_trace.enable_tracing()
        _obs_metrics.enable_metrics()
        on_p50, on_p95 = measure()
    finally:
        if not was_tracing:
            _obs_trace.disable_tracing()
        if not was_metrics:
            _obs_metrics.disable_metrics()
        _obs_trace.drain_trace()
    return {
        "n_train": n_train,
        "batch": batch,
        "repeats": repeats,
        "disabled": {"p50_ms": off_p50, "p95_ms": off_p95},
        "enabled": {"p50_ms": on_p50, "p95_ms": on_p95},
        # Overhead is judged at the median: with ~ms iterations and tens
        # of repeats, a single preemption owns the p95 on a small box,
        # and the tail then measures the machine rather than the
        # instrumentation.  Both percentiles stay reported above.
        "enabled_overhead_pct": (on_p50 / off_p50 - 1.0) * 100.0,
    }


# ----------------------------------------------------------------------
# Resilience: disarmed fault-site overhead
# ----------------------------------------------------------------------


def bench_fault_site_overhead(
    n_queries: int = 24,
    scale_factor: float = 0.1,
    repeats: int = 5,
    seed: int = 7,
) -> dict:
    """Query-execution latency with fault injection disarmed vs armed-idle.

    The resilience layer's contract mirrors the obs layer's: sites live
    permanently in the hot path (``corpus.execute``, ``engine.operator``,
    ``optimizer.optimize``) and the *disarmed* cost is one module-global
    load + None check per site.  The armed-idle column arms a plan whose
    specs never fire (rate 0) — the price of counting invocations —
    to show the gap between "machinery present" and "machinery engaged".
    """
    from repro.engine import Executor
    from repro.optimizer import Optimizer
    from repro.resilience.faults import FaultPlan, armed

    catalog = build_tpcds_catalog(scale_factor=scale_factor, seed=seed)
    config = research_4node()
    pool = generate_pool(n_queries, seed=seed)
    optimizer = Optimizer(catalog, config)
    executor = Executor(catalog, config)
    plans = [optimizer.optimize(q.sql).plan for q in pool]

    def measure() -> tuple[float, float]:
        samples = []
        for _ in range(repeats):
            for plan in plans:
                start = time.perf_counter()
                executor.execute(plan)
                samples.append(time.perf_counter() - start)
        p50, p95 = np.percentile(samples, [50, 95])
        return float(p50) * 1e3, float(p95) * 1e3

    measure()  # warm caches outside the timed regions
    off_p50, off_p95 = measure()
    idle = FaultPlan(seed=0).on("engine.operator", mode="raise", rate=0.0)
    with armed(idle):
        on_p50, on_p95 = measure()
    return {
        "n_queries": n_queries,
        "repeats": repeats,
        "disarmed": {"p50_ms": off_p50, "p95_ms": off_p95},
        "armed_idle": {"p50_ms": on_p50, "p95_ms": on_p95},
        "armed_idle_overhead_pct": (on_p95 / off_p95 - 1.0) * 100.0,
    }


# ----------------------------------------------------------------------
# Static analysis: plan-lint overhead inside optimize()
# ----------------------------------------------------------------------


def bench_plan_lint_overhead(
    n_queries: int = 48,
    scale_factor: float = 0.1,
    repeats: int = 5,
    seed: int = 7,
) -> dict:
    """Cost of the Pack-B plan lint relative to the optimize() call that
    hosts it.

    ``Optimizer.optimize`` runs :func:`repro.analysis.lint_plan` on every
    compiled plan before returning it, so the lint is a permanent tax on
    plan compilation.  The acceptance bound is <5 % of optimize()
    wall-clock: the lint is a single plan-tree walk with arithmetic
    checks, while optimize() does parsing, join enumeration, and costing.
    Both sides are timed on the same query pool — optimize() end-to-end
    (lint included) and ``lint_plan`` alone on the compiled plans.
    """
    from repro.analysis import lint_plan
    from repro.optimizer import Optimizer

    catalog = build_tpcds_catalog(scale_factor=scale_factor, seed=seed)
    config = research_4node()
    pool = generate_pool(n_queries, seed=seed)
    optimizer = Optimizer(catalog, config)
    plans = [optimizer.optimize(q.sql).plan for q in pool]  # warm caches

    optimize_samples = []
    for _ in range(repeats):
        for query in pool:
            start = time.perf_counter()
            optimizer.optimize(query.sql)
            optimize_samples.append(time.perf_counter() - start)
    lint_samples = []
    for _ in range(repeats):
        for plan in plans:
            start = time.perf_counter()
            lint_plan(plan)
            lint_samples.append(time.perf_counter() - start)
    optimize_p50, optimize_p95 = np.percentile(optimize_samples, [50, 95])
    lint_p50, lint_p95 = np.percentile(lint_samples, [50, 95])
    optimize_mean = float(np.mean(optimize_samples))
    lint_mean = float(np.mean(lint_samples))
    return {
        "n_queries": n_queries,
        "repeats": repeats,
        "optimize": {
            "p50_ms": float(optimize_p50) * 1e3,
            "p95_ms": float(optimize_p95) * 1e3,
            "mean_ms": optimize_mean * 1e3,
        },
        "lint": {
            "p50_us": float(lint_p50) * 1e6,
            "p95_us": float(lint_p95) * 1e6,
            "mean_us": lint_mean * 1e6,
        },
        "lint_pct_of_optimize": lint_mean / optimize_mean * 100.0,
    }


# ----------------------------------------------------------------------
# Spec-driven workloads: per-family accuracy
# ----------------------------------------------------------------------


def bench_workload_families(
    workloads: Optional[Sequence[str]] = None,
    n_queries: int = 96,
    scale: float = 0.05,
    seed: int = 29,
) -> dict:
    """Train and evaluate each spec-driven workload, reported per family.

    This is an accuracy benchmark, not a latency one: for every workload
    spec it generates a pool, executes it, fits the standard pipeline on
    a family-stratified split, and reports the paper's within-20%
    elapsed-time fraction both overall and per family, plus the
    wall-clock cost of the whole train-and-evaluate cycle.
    """
    from repro.experiments.experiments import (
        WORKLOAD_FAMILY_SUITE,
        workload_family_accuracy,
    )

    names = tuple(workloads) if workloads is not None else WORKLOAD_FAMILY_SUITE
    rows = []
    for name in names:
        start = time.perf_counter()
        result = workload_family_accuracy(
            name, n_queries=n_queries, scale=scale, seed=seed
        )
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "workload": result.workload,
                "seconds": elapsed,
                "n_train": result.n_train,
                "n_test": result.n_test,
                "within_20pct_elapsed": result.within_20pct_elapsed,
                "families": {
                    family: {
                        "n": row["n"],
                        "within_20pct_elapsed": row["within_tolerance"][
                            "elapsed_time"
                        ],
                    }
                    for family, row in result.families.items()
                },
            }
        )
    return {"n_queries": n_queries, "scale": scale, "workloads": rows}



# ----------------------------------------------------------------------
# Runtime sanitizer: tracked-lock overhead, off vs on
# ----------------------------------------------------------------------


def bench_sanitizer_overhead(
    n_requests: int = 120,
    n_train: int = 120,
    scale: float = 0.05,
    seed: int = 31,
    max_workers: int = 16,
    lock_ops: int = 200_000,
) -> dict:
    """What the ``make_lock`` migration costs with the sanitizer off/on.

    Two measurements:

    * a lock microbenchmark — acquire/release pairs on a raw
      ``threading.Lock``, a tracked lock with the sanitizer disabled
      (the path production always pays: one module-global flag load and
      branch per operation), and a tracked lock with the sanitizer
      enabled (full edge/lockset recording);
    * a serving drill — the same seeded schedule replayed against a
      fresh daemon with the sanitizer off and again with it on,
      reporting p50/p99 for both.  The enabled run also counts tracked
      acquires, so the disabled-mode per-request cost can be *estimated*
      from measured numbers: ``acquires/request x disabled per-op
      penalty`` as a fraction of the off-mode p99.  That estimate is the
      ``< 1%`` acceptance budget for leaving tracked locks in
      production permanently.
    """
    import threading

    from repro.analysis.sanitizer import (
        disable_sanitizer,
        enable_sanitizer,
        make_lock,
        reset_sanitizer,
        sanitizer_acquire_count,
        sanitizer_enabled,
    )
    from repro.api import QueryPerformancePredictor
    from repro.serve import PredictionDaemon, ServeConfig, generate_load, run_load

    was_enabled = sanitizer_enabled()

    def per_op_ns(lock, ops: int) -> float:
        start = time.perf_counter()
        for _ in range(ops):
            lock.acquire()
            lock.release()
        return (time.perf_counter() - start) / ops * 1e9

    disable_sanitizer()
    reset_sanitizer()
    raw_ns = per_op_ns(threading.Lock(), lock_ops)
    tracked_off_ns = per_op_ns(make_lock("bench.sanitizer.off"), lock_ops)
    enable_sanitizer()
    tracked_on_ns = per_op_ns(make_lock("bench.sanitizer.on"), lock_ops)
    disable_sanitizer()
    reset_sanitizer()

    service = QueryPerformancePredictor.train_on_workload(
        n_queries=n_train, scale=scale, seed=seed
    )
    schedule = generate_load(n_requests, seed=seed)

    def drill() -> dict:
        config = ServeConfig(max_batch=8, metrics=False)
        daemon = PredictionDaemon(service=service, config=config)
        address = daemon.start()
        try:
            report = run_load(address, schedule, max_workers=max_workers)
        finally:
            daemon.stop()
        return {
            "requests": report.total,
            "ok": report.ok,
            "dropped": report.dropped,
            "p50_ms": report.percentile_ms(50),
            "p99_ms": report.percentile_ms(99),
        }

    off = drill()
    enable_sanitizer()
    reset_sanitizer()
    on = drill()
    acquires = sanitizer_acquire_count()
    reset_sanitizer()
    if was_enabled:
        enable_sanitizer()
    else:
        disable_sanitizer()

    acquires_per_request = acquires / max(on["requests"], 1)
    disabled_penalty_ns = max(tracked_off_ns - raw_ns, 0.0)
    estimated_pct = (
        acquires_per_request * disabled_penalty_ns
        / (off["p99_ms"] * 1e6)
        * 100.0
    )
    return {
        "lock_microbench": {
            "ops": lock_ops,
            "raw_ns_per_op": round(raw_ns, 2),
            "tracked_disabled_ns_per_op": round(tracked_off_ns, 2),
            "tracked_enabled_ns_per_op": round(tracked_on_ns, 2),
            "disabled_penalty_ns_per_op": round(disabled_penalty_ns, 2),
        },
        "serving_off": off,
        "serving_on": on,
        "enabled_p99_overhead_pct": round(
            (on["p99_ms"] / off["p99_ms"] - 1.0) * 100.0, 2
        ),
        "acquires_per_request": round(acquires_per_request, 1),
        "disabled_p99_overhead_pct_estimate": round(estimated_pct, 4),
        "disabled_p99_budget_pct": 1.0,
    }


# ----------------------------------------------------------------------
# Section table, driver and text report
# ----------------------------------------------------------------------


def _format_data_plane(section: dict) -> list[str]:
    init = section["worker_init"]
    tasks = section["task_submission"]
    warm = section["warm_pool"]
    return [
        f"data plane (catalog scale {section['scale_factor']}):",
        f"  worker init  rebuild {init['rebuild_ms']:8.2f}ms  "
        f"attach {init['attach_ms']:8.2f}ms  {init['speedup']:6.1f}x "
        f"(catalog {init['catalog_pickle_mb']:.1f}MB pickled, "
        f"descriptor {init['descriptor_kb']:.1f}KB)",
        f"  task overhead  single {tasks['per_query_us_single']:8.1f}"
        f"us/query  chunked({tasks['chunk_size']}) "
        f"{tasks['per_query_us_chunked']:8.1f}us/query  "
        f"{tasks['overhead_ratio']:6.1f}x",
        f"  warm pool  cold {warm['cold_build_s']:7.2f}s  "
        f"warm {warm['warm_build_s']:7.2f}s  "
        f"{warm['speedup']:6.2f}x  ({warm['n_queries']} queries)",
    ]


def _format_kcca_fit(rows: list[dict]) -> list[str]:
    return ["KCCA fit (exact vs nystrom):"] + [
        f"  N={row['n']:<5} rank={row['rank']:<4} "
        f"exact {row['exact_seconds']:7.3f}s  "
        f"nystrom {row['nystrom_seconds']:7.3f}s  "
        f"{row['speedup']:6.1f}x  corr gap {row['correlation_gap']:.2e}"
        for row in rows
    ]


def _format_observability(section: dict) -> list[str]:
    off, on = section["disabled"], section["enabled"]
    return [
        f"observability overhead (batch={section['batch']}, predict):",
        f"  disabled  p50 {off['p50_ms']:7.2f}ms  p95 {off['p95_ms']:7.2f}ms",
        f"  enabled   p50 {on['p50_ms']:7.2f}ms  p95 {on['p95_ms']:7.2f}ms  "
        f"(+{section['enabled_overhead_pct']:.1f}% p95)",
    ]


def _format_resilience(section: dict) -> list[str]:
    off, on = section["disarmed"], section["armed_idle"]
    return [
        f"fault-site overhead ({section['n_queries']} queries, execute):",
        f"  disarmed    p50 {off['p50_ms']:7.2f}ms  p95 {off['p95_ms']:7.2f}ms",
        f"  armed idle  p50 {on['p50_ms']:7.2f}ms  p95 {on['p95_ms']:7.2f}ms  "
        f"(+{section['armed_idle_overhead_pct']:.1f}% p95)",
    ]


def _format_static_analysis(section: dict) -> list[str]:
    optimize, lint = section["optimize"], section["lint"]
    return [
        f"plan-lint overhead ({section['n_queries']} queries, optimize):",
        f"  optimize  p50 {optimize['p50_ms']:7.2f}ms"
        f"  p95 {optimize['p95_ms']:7.2f}ms",
        f"  lint      p50 {lint['p50_us']:7.2f}us  p95 {lint['p95_us']:7.2f}us"
        f"  ({section['lint_pct_of_optimize']:.2f}% of optimize)",
    ]


def _format_workloads(section: dict) -> list[str]:
    lines = [
        f"workload families ({section['n_queries']} queries, "
        f"scale {section['scale']}, within-20% elapsed):"
    ]
    for row in section["workloads"]:
        lines.append(
            f"  {row['workload']:<12} overall "
            f"{row['within_20pct_elapsed']:.2f}  "
            f"({row['n_train']} train / {row['n_test']} test, "
            f"{row['seconds']:.1f}s)"
        )
        lines.extend(
            f"    {family:<14} n={stats['n']:<3} "
            f"within-20% {stats['within_20pct_elapsed']:.2f}"
            for family, stats in row["families"].items()
        )
    return lines


def _format_sanitizer(section: dict) -> list[str]:
    micro = section["lock_microbench"]
    off, on = section["serving_off"], section["serving_on"]
    return [
        "concurrency sanitizer (tracked locks):",
        f"  lock op  raw {micro['raw_ns_per_op']:7.1f}ns  "
        f"disabled {micro['tracked_disabled_ns_per_op']:7.1f}ns  "
        f"enabled {micro['tracked_enabled_ns_per_op']:7.1f}ns",
        f"  serving  off p50 {off['p50_ms']:7.2f}ms p99 {off['p99_ms']:7.2f}ms"
        f"   on p50 {on['p50_ms']:7.2f}ms p99 {on['p99_ms']:7.2f}ms "
        f"({section['enabled_p99_overhead_pct']:+.1f}% p99)",
        f"  disabled-mode p99 overhead estimate "
        f"{section['disabled_p99_overhead_pct_estimate']:.4f}% "
        f"({section['acquires_per_request']:.0f} acquires/request; "
        f"budget {section['disabled_p99_budget_pct']:.0f}%)",
    ]


#: Every section, in run and report order, as ``(report key, function,
#: keyword overrides of --quick, renderer of its block in format_report)``.
#: ``data_plane`` is first: its worker-init comparison unpickles 27 MB,
#: which reads artificially fast once the other sections have warmed
#: the allocator.
SECTIONS: tuple[tuple[str, Callable[..., object], dict, Callable], ...] = (
    (
        "data_plane", bench_data_plane,
        dict(scale_factor=0.15, n_tasks=64, chunk_size=16, init_repeats=3,
             n_queries=12),
        _format_data_plane,
    ),
    (
        "kcca_fit", bench_kcca_fit, dict(sizes=(120, 240), rank=64),
        _format_kcca_fit,
    ),
    (
        "observability", bench_observability_overhead,
        dict(n_train=200, batch=16, repeats=10), _format_observability,
    ),
    (
        "resilience", bench_fault_site_overhead,
        dict(n_queries=8, scale_factor=0.05, repeats=3), _format_resilience,
    ),
    (
        "static_analysis", bench_plan_lint_overhead,
        dict(n_queries=8, scale_factor=0.05, repeats=3),
        _format_static_analysis,
    ),
    (
        "workloads", bench_workload_families,
        dict(workloads=("tpcds", "oltp"), n_queries=32), _format_workloads,
    ),
    (
        "sanitizer", bench_sanitizer_overhead,
        dict(n_requests=40, n_train=60, max_workers=8, lock_ops=20_000),
        _format_sanitizer,
    ),
)


def run_benchmarks(
    quick: bool = False,
    label: str = "pr2",
    out: Optional[Path] = None,
) -> dict:
    """Run every section of :data:`SECTIONS` and (optionally) write the
    JSON report.

    ``quick`` shrinks every section to CI-smoke size; the full run is
    sized for a dev box and takes on the order of a minute.
    """
    report = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_info(),
    }
    for name, run, quick_kwargs, _ in SECTIONS:
        report[name] = run(**(quick_kwargs if quick else {}))
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_benchmarks` report."""
    lines = [
        f"bench {report['label']}  "
        f"({report['machine']['cpus']} cpu, numpy {report['machine']['numpy']}"
        f"{', quick' if report['quick'] else ''})",
    ]
    for name, _, _, render in SECTIONS:
        lines.append("")
        lines.extend(render(report[name]))
    return "\n".join(lines)
