"""Performance benchmark harness for the train/serve hot path.

Three benchmarks, one machine-readable JSON report:

* **corpus build** — end-to-end optimize+execute throughput of
  :func:`~repro.experiments.corpus.build_corpus`, serial vs. a
  ``jobs=N`` process fan-out, with a bitwise-identity check between the
  two corpora (the parallel path must be a pure speedup, never a
  different measurement);
* **KCCA fit** — the exact dense O(N^3) solve vs. the low-rank Nyström
  solve at several training-set sizes;
* **predict latency** — ``predict_many`` wall-clock percentiles (p50 /
  p95) at serving-representative batch sizes.

``python scripts/bench.py`` runs all three and writes ``BENCH_pr2.json``;
every future PR reruns it to extend the perf trajectory.  ``--quick``
shrinks the workload for CI smoke coverage.  All numbers are wall-clock
seconds from ``time.perf_counter`` on the reporting machine; the report
embeds the CPU count and library versions so runs are comparable.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional, Sequence

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
    "machine_info",
    "bench_corpus_build",
    "bench_data_plane",
    "bench_kcca_fit",
    "bench_predict_latency",
    "bench_observability_overhead",
    "bench_fault_site_overhead",
    "bench_plan_lint_overhead",
    "bench_workload_families",
    "bench_serving",
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
BENCH_SCHEMA_VERSION = 6


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
# Corpus-build throughput
# ----------------------------------------------------------------------


def bench_corpus_build(
    n_queries: int = 96,
    scale_factor: float = 0.15,
    seed: int = 7,
    jobs_list: Sequence[int] = (1, 4),
    noise_seed: int = 1,
) -> dict:
    """Time ``build_corpus`` at each worker count on one shared pool.

    The serial run is the reference: every parallel corpus is checked for
    bitwise equality against it, and speedups are relative to it.

    Worker counts are clamped to the machine's CPU count: timing jobs=4
    on a 1-CPU box measures scheduler churn, not the fan-out, and would
    report it as a parallel data point.  Each run records both the
    requested ``jobs`` and the ``effective_jobs`` actually used, with an
    ``oversubscribed`` flag when the request exceeded the hardware.
    """
    catalog = build_tpcds_catalog(scale_factor=scale_factor, seed=seed)
    config = research_4node()
    pool = generate_pool(n_queries, seed=seed)
    cpus = os.cpu_count() or 1
    runs = []
    reference = None
    for jobs in jobs_list:
        effective_jobs = max(1, min(jobs, cpus))
        start = time.perf_counter()
        corpus = build_corpus(
            catalog, config, pool, noise_seed=noise_seed, jobs=effective_jobs
        )
        elapsed = time.perf_counter() - start
        identical = None
        if reference is None:
            reference = corpus
        else:
            identical = bool(
                np.array_equal(
                    corpus.feature_matrix(), reference.feature_matrix()
                )
                and np.array_equal(
                    corpus.performance_matrix(),
                    reference.performance_matrix(),
                )
                and np.array_equal(
                    corpus.optimizer_costs(), reference.optimizer_costs()
                )
            )
        runs.append(
            {
                "jobs": jobs,
                "effective_jobs": effective_jobs,
                "oversubscribed": jobs > cpus,
                "seconds": elapsed,
                "queries_per_second": n_queries / elapsed,
                "identical_to_serial": identical,
            }
        )
    serial_s = runs[0]["seconds"]
    # One CPU cannot run two workers at once: every "parallel" number on
    # such a box measures scheduler churn, and reporting it as a speedup
    # would be dishonest.  The flag lets renderers (and downstream
    # trajectory tooling) treat those runs as identity checks only.
    scaling_valid = cpus > 1 and runs[-1]["effective_jobs"] > 1
    result = {
        "n_queries": n_queries,
        "scale_factor": scale_factor,
        "runs": runs,
        "scaling_valid": scaling_valid,
        "speedup_at_max_jobs": serial_s / runs[-1]["seconds"],
    }
    if not scaling_valid:
        result["scaling_invalid_reason"] = (
            f"machine has {cpus} cpu(s); parallel runs only verify "
            "bitwise identity, not scaling"
        )
    return result


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
    * **scaling**: the jobs=N curve, only meaningful with >= 4 CPUs; on
      smaller boxes the overhead metrics above stand in and the
      subsection carries ``valid: false``.
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

    # -- scaling curve (needs real cores) ------------------------------
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        scaling_pool = generate_pool(max(n_queries * 4, 96), seed=seed)
        serial_start = time.perf_counter()
        reference = build_corpus(small_catalog, config, scaling_pool)
        serial_s = time.perf_counter() - serial_start
        runs = [{"jobs": 1, "seconds": serial_s, "identical_to_serial": None}]
        for jobs in (2, 4):
            start = time.perf_counter()
            corpus = build_corpus(
                small_catalog, config, scaling_pool, jobs=jobs
            )
            elapsed = time.perf_counter() - start
            runs.append(
                {
                    "jobs": jobs,
                    "seconds": elapsed,
                    "identical_to_serial": bool(
                        np.array_equal(
                            corpus.performance_matrix(),
                            reference.performance_matrix(),
                        )
                    ),
                }
            )
        scaling = {
            "valid": True,
            "runs": runs,
            "speedup_at_max_jobs": serial_s / runs[-1]["seconds"],
        }
    else:
        scaling = {
            "valid": False,
            "reason": (
                f"machine has {cpus} cpu(s) (< 4); worker-init and "
                "task-submission overhead metrics stand in for the "
                "scaling curve"
            ),
        }

    return {
        "scale_factor": scale_factor,
        "worker_init": worker_init,
        "task_submission": task_submission,
        "warm_pool": warm_pool_section,
        "scaling": scaling,
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
# Serving latency
# ----------------------------------------------------------------------


def bench_predict_latency(
    n_train: int = 800,
    batch_sizes: Sequence[int] = (1, 16, 128),
    repeats: int = 50,
    seed: int = 3,
) -> dict:
    """``predict`` wall-clock percentiles per batch size on a fitted model."""
    features, performance = _synthetic_training_data(
        n_train + max(batch_sizes), seed=seed
    )
    model = KCCAPredictor().fit(features[:n_train], performance[:n_train])
    held_out = features[n_train:]
    batches = []
    for batch in batch_sizes:
        queries = held_out[:batch]
        model.predict(queries)  # warm caches outside the timed region
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            model.predict(queries)
            samples.append(time.perf_counter() - start)
        p50, p95 = np.percentile(samples, [50, 95])
        batches.append(
            {
                "batch": batch,
                "p50_ms": float(p50) * 1e3,
                "p95_ms": float(p95) * 1e3,
                "p50_us_per_query": float(p50) / batch * 1e6,
            }
        )
    return {"n_train": n_train, "repeats": repeats, "batches": batches}


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
# Serving daemon: batch-size vs latency tradeoff
# ----------------------------------------------------------------------


def bench_serving(
    n_requests: int = 120,
    batch_sizes: Sequence[int] = (1, 8, 32),
    n_train: int = 120,
    scale: float = 0.05,
    seed: int = 31,
    max_workers: int = 16,
) -> dict:
    """Measure the serving daemon's micro-batching tradeoff.

    One service is trained once; for each ``max_batch`` a fresh daemon
    is started on an ephemeral port and the *same* seeded request
    schedule (:func:`repro.serve.generate_load`) is replayed against it
    unpaced through ``max_workers`` concurrent clients.  Reported per
    batch size: p50/p99 request latency, how many kernel-cross batches
    the requests collapsed into, and rejected/dropped counts (a healthy
    drill drops nothing).  ``max_batch=1`` is the no-batching baseline.

    The final row replays the same schedule with the degradation ladder
    pinned at tier 2 ("lean": no plan lint, regression fallback floor)
    so the report quantifies what stepping down buys in p99 relative to
    the full-fidelity tier-0 rows.
    """
    from repro.api import QueryPerformancePredictor
    from repro.serve import PredictionDaemon, ServeConfig, generate_load, run_load

    service = QueryPerformancePredictor.train_on_workload(
        n_queries=n_train, scale=scale, seed=seed
    )
    schedule = generate_load(n_requests, seed=seed)
    rows = []

    def drill(max_batch: int, force_tier: Optional[int]) -> dict:
        config = ServeConfig(
            max_batch=max_batch,
            metrics=False,
            degrade=force_tier is not None,
            degrade_force_tier=force_tier,
        )
        daemon = PredictionDaemon(service=service, config=config)
        address = daemon.start()
        try:
            report = run_load(address, schedule, max_workers=max_workers)
            stats = daemon.batcher.stats()
        finally:
            daemon.stop()
        batches = stats["batches"]
        return {
            "max_batch": max_batch,
            "degraded": force_tier is not None,
            "degrade_tier": force_tier if force_tier is not None else 0,
            "requests": report.total,
            "ok": report.ok,
            "rejected": report.rejected,
            "dropped": report.dropped,
            "batches": batches,
            "mean_batch_size": stats["mean_batch_size"],
            "collapse_factor": (
                round(report.total / batches, 3) if batches else None
            ),
            "p50_ms": report.percentile_ms(50),
            "p99_ms": report.percentile_ms(99),
        }

    for max_batch in batch_sizes:
        rows.append(drill(max_batch, force_tier=None))
    rows.append(drill(max(batch_sizes), force_tier=2))
    return {
        "n_requests": n_requests,
        "n_train": n_train,
        "scale": scale,
        "max_workers": max_workers,
        "rows": rows,
    }


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
# Driver
# ----------------------------------------------------------------------


def run_benchmarks(
    quick: bool = False,
    jobs: int = 4,
    label: str = "pr2",
    out: Optional[Path] = None,
) -> dict:
    """Run every benchmark and (optionally) write the JSON report.

    ``quick`` shrinks all three benchmarks to CI-smoke size (a couple of
    seconds total); the full run is sized for a dev box and takes on the
    order of a minute.
    """
    # data_plane runs first: its worker-init microbenchmark compares a
    # 27 MB unpickle against a shared-memory attach, and the unpickle
    # side reads artificially fast once the other sections have warmed
    # the allocator.
    if quick:
        data_plane = bench_data_plane(
            scale_factor=0.15, n_tasks=64, chunk_size=16,
            init_repeats=3, n_queries=12,
        )
        corpus = bench_corpus_build(
            n_queries=16, scale_factor=0.05, jobs_list=(1, jobs)
        )
        kcca = bench_kcca_fit(sizes=(120, 240), rank=64)
        predict = bench_predict_latency(
            n_train=200, batch_sizes=(1, 16), repeats=10
        )
        observability = bench_observability_overhead(
            n_train=200, batch=16, repeats=10
        )
        resilience = bench_fault_site_overhead(
            n_queries=8, scale_factor=0.05, repeats=3
        )
        static_analysis = bench_plan_lint_overhead(
            n_queries=8, scale_factor=0.05, repeats=3
        )
        workload_families = bench_workload_families(
            workloads=("tpcds", "oltp"), n_queries=32
        )
        serving = bench_serving(
            n_requests=40, batch_sizes=(1, 8), n_train=60, max_workers=8
        )
        sanitizer = bench_sanitizer_overhead(
            n_requests=40, n_train=60, max_workers=8, lock_ops=20_000
        )
    else:
        data_plane = bench_data_plane()
        corpus = bench_corpus_build(jobs_list=(1, jobs))
        kcca = bench_kcca_fit()
        predict = bench_predict_latency()
        observability = bench_observability_overhead()
        resilience = bench_fault_site_overhead()
        static_analysis = bench_plan_lint_overhead()
        workload_families = bench_workload_families()
        serving = bench_serving()
        sanitizer = bench_sanitizer_overhead()
    report = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_info(),
        "corpus_build": corpus,
        "data_plane": data_plane,
        "kcca_fit": kcca,
        "predict_latency": predict,
        "observability": observability,
        "resilience": resilience,
        "static_analysis": static_analysis,
        "workloads": workload_families,
        "serving": serving,
        "sanitizer": sanitizer,
    }
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
    return report


def format_report(report: dict) -> str:
    """Human-readable summary of a :func:`run_benchmarks` report."""
    lines = [
        f"bench {report['label']}  "
        f"({report['machine']['cpus']} cpu, numpy {report['machine']['numpy']}"
        f"{', quick' if report['quick'] else ''})",
        "",
        "corpus build "
        f"({report['corpus_build']['n_queries']} queries, "
        f"scale {report['corpus_build']['scale_factor']}):",
    ]
    for run in report["corpus_build"]["runs"]:
        identical = run["identical_to_serial"]
        note = "" if identical is None else (
            "  bitwise-identical" if identical else "  MISMATCH"
        )
        effective = run.get("effective_jobs", run["jobs"])
        if run.get("oversubscribed"):
            note += (
                f"  (requested {run['jobs']}, clamped to {effective} cpu)"
            )
        lines.append(
            f"  jobs={effective:<3} {run['seconds']:8.2f}s  "
            f"{run['queries_per_second']:7.1f} q/s{note}"
        )
    if report["corpus_build"].get("scaling_valid", True):
        lines.append(
            f"  speedup at max jobs: "
            f"{report['corpus_build']['speedup_at_max_jobs']:.2f}x"
        )
    else:
        lines.append(
            "  scaling not measurable on this machine "
            f"({report['corpus_build'].get('scaling_invalid_reason', '')})"
        )
    data_plane = report.get("data_plane")
    if data_plane is not None:
        lines.append("")
        lines.append(
            f"data plane (catalog scale {data_plane['scale_factor']}):"
        )
        init = data_plane["worker_init"]
        lines.append(
            f"  worker init  rebuild {init['rebuild_ms']:8.2f}ms  "
            f"attach {init['attach_ms']:8.2f}ms  "
            f"{init['speedup']:6.1f}x "
            f"(catalog {init['catalog_pickle_mb']:.1f}MB pickled, "
            f"descriptor {init['descriptor_kb']:.1f}KB)"
        )
        tasks = data_plane["task_submission"]
        lines.append(
            f"  task overhead  single {tasks['per_query_us_single']:8.1f}"
            f"us/query  chunked({tasks['chunk_size']}) "
            f"{tasks['per_query_us_chunked']:8.1f}us/query  "
            f"{tasks['overhead_ratio']:6.1f}x"
        )
        warm = data_plane["warm_pool"]
        lines.append(
            f"  warm pool  cold {warm['cold_build_s']:7.2f}s  "
            f"warm {warm['warm_build_s']:7.2f}s  "
            f"{warm['speedup']:6.2f}x  ({warm['n_queries']} queries)"
        )
        scaling = data_plane["scaling"]
        if scaling["valid"]:
            lines.append(
                f"  scaling  speedup at max jobs "
                f"{scaling['speedup_at_max_jobs']:.2f}x"
            )
        else:
            lines.append(f"  scaling  not measured: {scaling['reason']}")
    lines.append("")
    lines.append("KCCA fit (exact vs nystrom):")
    for row in report["kcca_fit"]:
        lines.append(
            f"  N={row['n']:<5} rank={row['rank']:<4} "
            f"exact {row['exact_seconds']:7.3f}s  "
            f"nystrom {row['nystrom_seconds']:7.3f}s  "
            f"{row['speedup']:6.1f}x  corr gap {row['correlation_gap']:.2e}"
        )
    lines.append("")
    predict = report["predict_latency"]
    lines.append(f"predict latency (n_train={predict['n_train']}):")
    for row in predict["batches"]:
        lines.append(
            f"  batch={row['batch']:<4} p50 {row['p50_ms']:7.2f}ms  "
            f"p95 {row['p95_ms']:7.2f}ms  "
            f"{row['p50_us_per_query']:8.1f}us/query"
        )
    observability = report.get("observability")
    if observability is not None:
        lines.append("")
        lines.append(
            f"observability overhead "
            f"(batch={observability['batch']}, predict):"
        )
        lines.append(
            f"  disabled  p50 {observability['disabled']['p50_ms']:7.2f}ms  "
            f"p95 {observability['disabled']['p95_ms']:7.2f}ms"
        )
        lines.append(
            f"  enabled   p50 {observability['enabled']['p50_ms']:7.2f}ms  "
            f"p95 {observability['enabled']['p95_ms']:7.2f}ms  "
            f"(+{observability['enabled_overhead_pct']:.1f}% p95)"
        )
    resilience = report.get("resilience")
    if resilience is not None:
        lines.append("")
        lines.append(
            f"fault-site overhead "
            f"({resilience['n_queries']} queries, execute):"
        )
        lines.append(
            f"  disarmed    p50 {resilience['disarmed']['p50_ms']:7.2f}ms  "
            f"p95 {resilience['disarmed']['p95_ms']:7.2f}ms"
        )
        lines.append(
            f"  armed idle  p50 {resilience['armed_idle']['p50_ms']:7.2f}ms  "
            f"p95 {resilience['armed_idle']['p95_ms']:7.2f}ms  "
            f"(+{resilience['armed_idle_overhead_pct']:.1f}% p95)"
        )
    static_analysis = report.get("static_analysis")
    if static_analysis is not None:
        lines.append("")
        lines.append(
            f"plan-lint overhead "
            f"({static_analysis['n_queries']} queries, optimize):"
        )
        lines.append(
            f"  optimize  p50 {static_analysis['optimize']['p50_ms']:7.2f}ms"
            f"  p95 {static_analysis['optimize']['p95_ms']:7.2f}ms"
        )
        lines.append(
            f"  lint      p50 {static_analysis['lint']['p50_us']:7.2f}us"
            f"  p95 {static_analysis['lint']['p95_us']:7.2f}us  "
            f"({static_analysis['lint_pct_of_optimize']:.2f}% of optimize)"
        )
    workloads = report.get("workloads")
    if workloads is not None:
        lines.append("")
        lines.append(
            f"workload families "
            f"({workloads['n_queries']} queries, scale {workloads['scale']}, "
            f"within-20% elapsed):"
        )
        for row in workloads["workloads"]:
            lines.append(
                f"  {row['workload']:<12} overall "
                f"{row['within_20pct_elapsed']:.2f}  "
                f"({row['n_train']} train / {row['n_test']} test, "
                f"{row['seconds']:.1f}s)"
            )
            for family, stats in row["families"].items():
                lines.append(
                    f"    {family:<14} n={stats['n']:<3} "
                    f"within-20% {stats['within_20pct_elapsed']:.2f}"
                )
    serving = report.get("serving")
    if serving is not None:
        lines.append("")
        lines.append(
            f"serving daemon ({serving['n_requests']} requests, "
            f"{serving['max_workers']} concurrent clients, seeded load):"
        )
        for row in serving["rows"]:
            collapse = row["collapse_factor"]
            tier = (
                f" [degraded tier {row['degrade_tier']}]"
                if row.get("degraded")
                else ""
            )
            lines.append(
                f"  max_batch={row['max_batch']:<4} "
                f"p50 {row['p50_ms']:7.2f}ms  p99 {row['p99_ms']:7.2f}ms  "
                f"{row['requests']} req -> {row['batches']} batches "
                f"({collapse if collapse is not None else '?'}x collapse, "
                f"{row['rejected']} rejected, {row['dropped']} dropped)"
                f"{tier}"
            )
    sanitizer = report.get("sanitizer")
    if sanitizer is not None:
        micro = sanitizer["lock_microbench"]
        lines.append("")
        lines.append("concurrency sanitizer (tracked locks):")
        lines.append(
            f"  lock op  raw {micro['raw_ns_per_op']:7.1f}ns  "
            f"disabled {micro['tracked_disabled_ns_per_op']:7.1f}ns  "
            f"enabled {micro['tracked_enabled_ns_per_op']:7.1f}ns"
        )
        lines.append(
            f"  serving  off p50 {sanitizer['serving_off']['p50_ms']:7.2f}ms "
            f"p99 {sanitizer['serving_off']['p99_ms']:7.2f}ms   "
            f"on p50 {sanitizer['serving_on']['p50_ms']:7.2f}ms "
            f"p99 {sanitizer['serving_on']['p99_ms']:7.2f}ms "
            f"({sanitizer['enabled_p99_overhead_pct']:+.1f}% p99)"
        )
        lines.append(
            f"  disabled-mode p99 overhead estimate "
            f"{sanitizer['disabled_p99_overhead_pct_estimate']:.4f}% "
            f"({sanitizer['acquires_per_request']:.0f} acquires/request; "
            f"budget {sanitizer['disabled_p99_budget_pct']:.0f}%)"
        )
    return "\n".join(lines)
