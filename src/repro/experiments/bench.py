"""Component benchmark harness: two ratio sections, one JSON report.

End-to-end speed (corpus build, forecast latency, served latency under
load) and the per-layer costs of kernel + KCCA fit, tracing and plan
lint are measured by the gate benchmark, ``python3 bench/run.py`` (see
``BENCHMARK.json`` and docs/PERFORMANCE.md).  This module keeps the two
comparisons no gate row carries yet: what fault sites and tracked locks
cost when off and on.

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
from typing import Callable, Optional

import numpy as np

from repro.engine.system import research_4node
from repro.workloads.generator import generate_pool
from repro.workloads.tpcds import build_tpcds_catalog

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SECTIONS",
    "machine_info",
    "bench_fault_site_overhead",
    "bench_sanitizer_overhead",
    "run_benchmarks",
    "format_report",
]

#: Bump when the report layout changes incompatibly.
BENCH_SCHEMA_VERSION = 8


def machine_info() -> dict:
    """The environment the numbers were measured on."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 1,
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
        config = ServeConfig(max_batch=8)
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


def _format_resilience(section: dict) -> list[str]:
    off, on = section["disarmed"], section["armed_idle"]
    return [
        f"fault-site overhead ({section['n_queries']} queries, execute):",
        f"  disarmed    p50 {off['p50_ms']:7.2f}ms  p95 {off['p95_ms']:7.2f}ms",
        f"  armed idle  p50 {on['p50_ms']:7.2f}ms  p95 {on['p95_ms']:7.2f}ms  "
        f"(+{section['armed_idle_overhead_pct']:.1f}% p95)",
    ]


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
SECTIONS: tuple[tuple[str, Callable[..., object], dict, Callable], ...] = (
    (
        "resilience", bench_fault_site_overhead,
        dict(n_queries=8, scale_factor=0.05, repeats=3), _format_resilience,
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
