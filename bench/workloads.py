"""The four workloads: set-up, measured interval, output checks.

Two serve a daemon over HTTP (an open and a closed loop), two run in
process (batch forecasting and training).  Each leaves what a traced run
needs next on the :class:`Context` - the artifact, a reference service,
its statements, and the daemon when it has one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.api import QueryPerformancePredictor

from bench import checks as ck
from bench import inputs, loadgen
from bench.served import DaemonProcess, child_env, peak_rss_mb
from bench.sizes import TRAIN_SEED, TRAIN_WORKLOAD, Sizes
from bench.spans import Tracer
from bench.stats import Op, median, percentile, quiet_summary

BATCH_MIX = (("tpcds", 0.5), ("analytics", 0.25), ("oltp", 0.25))


@dataclass
class Context:
    """One run's arguments and the resources it holds open."""

    workload: str
    seed: int
    seconds: float
    sizes: Sizes
    jobs: int
    senders: int
    workdir: Path
    tracer: Tracer
    stack: ExitStack
    checks: ck.Checks = field(default_factory=ck.Checks)
    artifact: Optional[Path] = None
    reference: Optional[QueryPerformancePredictor] = None
    statements: Sequence[str] = ()
    daemon: Optional[DaemonProcess] = None
    outcomes: Sequence[loadgen.Outcome] = ()


@dataclass
class Measured:
    """What a workload hands back for reporting."""

    setup_s: list
    summary: dict
    attempted: int
    failed: int
    peak_rss_mb: float
    within20_elapsed: float
    inputs_digest: str
    detail: dict


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


def train_model(ctx: Context) -> QueryPerformancePredictor:
    """The one model every workload uses (fixed corpus, see ``sizes``)."""
    return QueryPerformancePredictor.train_on_workload(
        TRAIN_WORKLOAD,
        n_queries=ctx.sizes.train_queries,
        scale=ctx.sizes.train_scale,
        seed=TRAIN_SEED,
        jobs=ctx.jobs,
    )


def train_and_save(ctx: Context, artifact: Path) -> QueryPerformancePredictor:
    with ctx.tracer.span("api.train_and_save"):
        trained = train_model(ctx)
        trained.save(artifact)
    return trained


def _fresh_artifact(ctx: Context) -> Path:
    directory = Path(tempfile.mkdtemp(prefix="artifact-", dir=ctx.workdir))
    return directory / "model.npz"


def heldout_statements(ctx: Context, n: int) -> list[str]:
    return inputs.statements(TRAIN_WORKLOAD, n, ctx.seed + 2)


def _check_quality(ctx: Context, predicted_elapsed, statements) -> float:
    share = ck.within20_elapsed(predicted_elapsed, ctx.reference, statements)
    ctx.checks.add(
        "within20_elapsed >= floor",
        share >= ctx.sizes.within20_floor,
        f"{share:.4f} on {len(statements)} held-out statements "
        f"(floor {ctx.sizes.within20_floor})",
    )
    return share


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------


def _serving_setup(ctx: Context) -> tuple[list, list]:
    """Clean directory -> artifact -> daemon ready -> warmed up, several
    times over; the last daemon stays up for the measured interval."""
    warm = inputs.statements(TRAIN_WORKLOAD, ctx.sizes.warmup_requests, ctx.seed + 1)
    times = []
    for repeat in range(ctx.sizes.setup_repeats):
        started = time.perf_counter()
        artifact = _fresh_artifact(ctx)
        train_and_save(ctx, artifact)
        daemon = DaemonProcess(artifact)
        ctx.stack.callback(daemon.stop)
        clients = [daemon.client() for _ in range(ctx.senders)]
        warmed = loadgen.closed_loop(clients, warm)
        times.append(time.perf_counter() - started)
        if not all(outcome.ok for outcome in warmed):
            raise RuntimeError("warm-up request failed")
        if repeat + 1 < ctx.sizes.setup_repeats:
            daemon.stop()
            shutil.rmtree(artifact.parent)
    ctx.artifact, ctx.daemon = artifact, daemon
    ctx.reference = QueryPerformancePredictor.load(artifact)
    return clients, times


def _serving_result(ctx, outcomes, setup_times, summary, digest, detail) -> Measured:
    """Checks and bookkeeping shared by the two serving workloads.

    Served forecasts must equal in-process ones bit for bit; the same
    responses give the served model's accuracy on held-out statements.
    """
    ctx.outcomes = outcomes
    sizes = ctx.sizes
    counts = loadgen.tally(outcomes)
    peak = ctx.daemon.peak_rss_mb()
    client = ctx.daemon.client()
    held = heldout_statements(ctx, sizes.heldout)
    served = [client.forecast(sql)["forecast"] for sql in held]
    ck.check_accounting(
        ctx.checks, counts,
        sent=sizes.warmup_requests + len(outcomes) + len(held),
        daemon=client.status()["requests"],
    )
    probe = held[: sizes.check_statements]
    ck.check_identical(
        ctx.checks,
        "served forecast == in-process forecast",
        served[: len(probe)],
        ck.payloads(ctx.reference, probe, batched=False),
    )
    ck.check_batch_equals_single(ctx.checks, ctx.reference, probe)
    within20 = _check_quality(
        ctx, [payload["metrics"]["elapsed_time"] for payload in served], held
    )
    detail.update(counts=counts, model_version=ctx.daemon.model_version)
    return Measured(
        setup_s=setup_times,
        summary=summary,
        attempted=counts["attempted"],
        failed=counts["attempted"] - counts["ok"],
        peak_rss_mb=peak,
        within20_elapsed=within20,
        inputs_digest=digest,
        detail=detail,
    )


def _request_ops(outcomes) -> list[Op]:
    return [Op(o.due, o.done, o.ok, o.latency_ms) for o in outcomes]


def serve_open(ctx: Context) -> Measured:
    """Open loop: seeded Poisson arrivals of near-unique statements."""
    sizes = ctx.sizes
    offsets = inputs.arrival_offsets(sizes.open_rate_per_s, ctx.seconds, ctx.seed)
    ctx.statements = inputs.statements(TRAIN_WORKLOAD, len(offsets), ctx.seed)
    clients, setup_times = _serving_setup(ctx)
    outcomes = loadgen.open_loop(
        clients, ctx.statements, offsets,
        deadline_ms=sizes.trace_deadline_ms if ctx.tracer.enabled else None,
        tracer=ctx.tracer,
    )
    summary = quiet_summary(_request_ops(outcomes), sizes.windows, sizes.slo_ms)
    # The offered rate is fixed, so the rate achieved is the pooled one:
    # a per-window rate would only echo the Poisson bursts.
    summary["throughput_per_s"] = summary["pooled"]["throughput_per_s"]
    late = [outcome.late_ms for outcome in outcomes]
    detail = {
        "loop": f"open, {sizes.open_rate_per_s:g} req/s, {ctx.senders} senders",
        "distinct_share": len(set(ctx.statements)) / len(ctx.statements),
        "late_ms_p50": percentile(late, 50),
        "late_ms_p99": percentile(late, 99),
    }
    return _serving_result(
        ctx, outcomes, setup_times, summary, inputs.digest(ctx.statements), detail
    )


def hot_statements(ctx: Context) -> list[str]:
    """The closed loop's hot set: distinct statements, half ``oltp`` and
    half ``tpcds``, interleaved so the popular ranks hold both kinds."""
    half = ctx.sizes.hot_set // 2

    def distinct(workload: str) -> list[str]:
        pool = inputs.statements(workload, half * 8, ctx.seed)
        unique = list(dict.fromkeys(pool))
        if len(unique) < half:
            raise RuntimeError(f"{workload} renders < {half} distinct statements")
        return unique[:half]

    pairs = zip(distinct("oltp"), distinct(TRAIN_WORKLOAD))
    return [statement for pair in pairs for statement in pair]


def serve_closed(ctx: Context) -> Measured:
    """Closed loop: saturating clients re-sending a Zipf-hot statement set."""
    sizes = ctx.sizes
    hot = hot_statements(ctx)
    draws = inputs.zipf_indices(
        int(ctx.seconds * sizes.closed_stream_per_s) + 1,
        len(hot), sizes.zipf_exponent, ctx.seed,
    )
    ctx.statements = [hot[i] for i in draws]
    clients, setup_times = _serving_setup(ctx)
    outcomes = loadgen.closed_loop(
        clients, ctx.statements, ctx.seconds,
        deadline_ms=sizes.trace_deadline_ms if ctx.tracer.enabled else None,
        tracer=ctx.tracer,
    )
    summary = quiet_summary(_request_ops(outcomes), sizes.windows, sizes.slo_ms)
    sent = [ctx.statements[outcome.index] for outcome in outcomes]
    detail = {
        "loop": f"closed, {ctx.senders} clients, zero think time",
        "distinct_share": len(set(sent)) / len(sent),
    }
    return _serving_result(
        ctx, outcomes, setup_times, summary, inputs.digest(ctx.statements), detail
    )


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


def _timed_ops(operation: Callable, items, weight: Callable, stop_at: float) -> list[Op]:
    """Run ``operation(item)`` over ``items`` until ``stop_at``; one Op each."""
    ops = []
    for item in items:
        started = time.perf_counter()
        if started >= stop_at:
            break
        ok = ck.succeeds(operation, item)
        done = time.perf_counter()
        ops.append(Op(started, done, ok, (done - started) * 1e3, weight(item)))
    return ops


def batch_forecast(ctx: Context) -> Measured:
    """One thread, ``forecast_many`` over chunks of an all-distinct mix."""
    sizes = ctx.sizes
    stream = inputs.mixed_statements(
        BATCH_MIX, int(ctx.seconds * sizes.batch_stream_per_s), ctx.seed
    )
    ctx.statements = stream
    warm = inputs.mixed_statements(BATCH_MIX, sizes.warmup_statements, ctx.seed + 1)
    setup_times = []
    for _ in range(sizes.setup_repeats):
        started = time.perf_counter()
        artifact = _fresh_artifact(ctx)
        train_and_save(ctx, artifact)
        service = QueryPerformancePredictor.load(artifact)
        for chunk in _chunks(warm, sizes.chunk):
            service.forecast_many(chunk)
        setup_times.append(time.perf_counter() - started)
    ctx.artifact, ctx.reference = artifact, service

    with ctx.tracer.span("workload.measure"):
        ops = _timed_ops(
            lambda chunk: _traced_forecast_many(ctx, service, chunk),
            _chunks(stream, sizes.chunk), len,
            time.perf_counter() + ctx.seconds,
        )
    summary = quiet_summary(ops, sizes.windows, sizes.chunk_slo_ms)
    peak = peak_rss_mb()

    held = heldout_statements(ctx, sizes.heldout)
    probe = held[: sizes.check_statements]
    ck.check_batch_equals_single(ctx.checks, service, probe)
    forecasts = service.forecast_many(held)
    within20 = _check_quality(
        ctx, [forecast.metrics.elapsed_time for forecast in forecasts], held
    )
    done = sum(op.weight for op in ops)
    return Measured(
        setup_s=setup_times,
        summary=summary,
        attempted=len(ops),
        failed=sum(1 for op in ops if not op.ok),
        peak_rss_mb=peak,
        within20_elapsed=within20,
        inputs_digest=inputs.digest(stream),
        detail={
            "loop": f"in process, 1 thread, chunks of {sizes.chunk}",
            "statements_done": done,
            "stream_exhausted": done >= len(stream),
            "distinct_share": len(set(stream[:done])) / max(done, 1),
        },
    )


def _traced_forecast_many(ctx: Context, service, chunk):
    with ctx.tracer.span("api.forecast_many", n=len(chunk)):
        return service.forecast_many(chunk)


def _chunks(statements: Sequence[str], size: int):
    for start in range(0, len(statements), size):
        yield list(statements[start:start + size])


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the public API."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.api"], env=child_env(), check=True
    )
    return time.perf_counter() - started


def train(ctx: Context) -> Measured:
    """Corpus build -> fit -> save -> load -> first forecast, repeatedly;
    after each cycle the same held-out statements are forecast one by
    one, so the bursts of forecasts are spread over the whole interval
    and compare like for like."""
    sizes = ctx.sizes
    held = heldout_statements(ctx, max(sizes.forecasts_per_cycle, sizes.heldout))
    ctx.statements = held
    setup_times = [import_seconds() for _ in range(sizes.setup_repeats)]

    cycles: list[Op] = []
    bursts: list[list[Op]] = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        artifact = _fresh_artifact(ctx)
        with ctx.tracer.span("workload.train_cycle"):
            trained = train_and_save(ctx, artifact)
            loaded = QueryPerformancePredictor.load(artifact)
            loaded.forecast(held[0])
        done = time.perf_counter()
        cycles.append(Op(started, done, True, (done - started) * 1e3, sizes.train_queries))
        bursts.append(_timed_ops(
            loaded.forecast, held[: sizes.forecasts_per_cycle], lambda _: 1, float("inf")
        ))
        if time.perf_counter() - begin >= ctx.seconds:
            break
    ctx.artifact, ctx.reference = artifact, loaded
    walls = [op.latency_ms / 1e3 for op in cycles]

    forecasts = [op for burst in bursts for op in burst]
    summary = quiet_summary(forecasts, sizes.windows, sizes.slo_ms)
    # One training cycle, with its burst of forecasts, is one window:
    # queries trained per second in the quietest cycle and the median
    # forecast of the quietest burst, like every other number here.
    summary["throughput_per_s"] = sizes.train_queries / min(walls)
    summary["latency_p50_ms"] = min(
        median([op.latency_ms for op in burst if op.ok])
        for burst in bursts if any(op.ok for op in burst)
    )
    peak = peak_rss_mb()

    probe = held[: sizes.check_statements]
    ck.check_identical(
        ctx.checks,
        "save -> load predictions identical",
        ck.payloads(trained, probe, batched=True),
        ck.payloads(loaded, probe, batched=True),
    )
    ck.check_batch_equals_single(ctx.checks, loaded, probe)
    scored = held[: sizes.heldout]
    within20 = _check_quality(
        ctx,
        [f.metrics.elapsed_time for f in loaded.forecast_many(scored)],
        scored,
    )
    ops = cycles + forecasts
    return Measured(
        setup_s=setup_times,
        summary=summary,
        attempted=len(ops),
        failed=sum(1 for op in ops if not op.ok),
        peak_rss_mb=peak,
        within20_elapsed=within20,
        inputs_digest=inputs.digest(held),
        detail={
            "loop": f"in process, corpus build on {ctx.jobs} workers",
            "train_cycles": len(cycles),
            "train_wall_s": min(walls),
            "train_wall_s_all": walls,
            "distinct_share": len(set(held)) / len(held),
        },
    )


WORKLOADS: dict[str, Callable[[Context], Measured]] = {
    "serve_open": serve_open,
    "serve_closed": serve_closed,
    "batch_forecast": batch_forecast,
    "train": train,
}
