"""Per-layer numbers for a traced run, taken from outside the program.

Every number here comes from timing a call into a layer's *public*
function from this file, or from a public response field; nothing under
``src/`` is instrumented for it.  The layers are the repo's packages.
Each ``measure_*`` function fills part of one flat ``{name: value}``
dict; ``BENCHMARK.json`` lists every name with its unit.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Sequence

import numpy as np

from repro import api
from repro.analysis.planlint import lint_plan
from repro.api import Forecast, QueryPerformancePredictor
from repro.core.features import plan_feature_matrix
from repro.core.kcca import KCCA
from repro.core.kernels import (
    PERFORMANCE_SCALE_FRACTION,
    QUERY_SCALE_FRACTION,
    gaussian_kernel_matrix,
    scale_factor_heuristic,
)
from repro.core.neighbors import nearest_neighbors
from repro.engine import PerformanceMetrics
from repro.errors import ReproError, SQLError
from repro.experiments.corpus import build_corpus
from repro.serve import PredictionDaemon
from repro.sql.parser import parse
from repro.workloads.categories import categorize
from repro.workloads.generator import generate_pool
from repro.workloads.spec import build_catalog_for, resolve_workload

from bench import inputs, loadgen
from bench.served import HOST, DaemonProcess
from bench.sizes import TRAIN_SEED, TRAIN_WORKLOAD
from bench.stats import median, percentile
from bench.workloads import Context, _chunks, import_seconds


def measure_all(ctx: Context, measured_detail: dict) -> dict:
    values: dict = {}
    measure_training_layers(ctx, values)
    in_process_overhead = measure_forecast_layers(ctx, values)
    served_overhead = measure_serving_layers(ctx, values)
    # Tracing costs what it adds to this workload's own operation.
    values["trace.overhead_share"] = (
        served_overhead if ctx.daemon is not None else in_process_overhead
    )
    values["api.train_wall_s"] = median(ctx.tracer.durations_ms("api.train_and_save")) / 1e3
    values["workloads.distinct_share"] = measured_detail["distinct_share"]
    values["cli.import_s"] = import_seconds()
    return values


# ----------------------------------------------------------------------
# storage, workloads, engine, experiments, core (fit), pipeline (artifact)
# ----------------------------------------------------------------------


def measure_training_layers(ctx: Context, values: dict) -> None:
    """The training path, one public call per layer, on the fixed corpus."""
    tracer, sizes = ctx.tracer, ctx.sizes
    compiled = resolve_workload(TRAIN_WORKLOAD)
    with tracer.span("storage.build_catalog") as span:
        catalog = build_catalog_for(
            compiled.spec, scale=sizes.train_scale, seed=TRAIN_SEED
        )
    values["storage.catalog_build_s"] = _seconds(span)
    values["storage.catalog_rows"] = sum(
        catalog.table(name).n_rows for name in catalog.table_names
    )

    with tracer.span("workloads.generate_pool") as span:
        pool = generate_pool(sizes.train_queries, seed=TRAIN_SEED, workload=compiled)
    values["workloads.generate_pool_ms_per_stmt"] = _seconds(span) * 1e3 / len(pool)

    service = QueryPerformancePredictor(catalog)
    sample = pool[: sizes.engine_sample]
    errors = 0
    sample_started = time.perf_counter()
    for query in sample:
        plan = service.optimizer.optimize(query.sql).plan
        try:
            with tracer.span("engine.execute", request_id=query.query_id):
                service.executor.execute(plan)
        except ReproError:
            errors += 1
    sample_s = time.perf_counter() - sample_started
    executions = tracer.durations_ms("engine.execute")
    values["engine.execute_ms_per_query_p50"] = percentile(executions, 50)
    values["engine.execute_ms_per_query_p99"] = percentile(executions, 99)
    values["engine.execute_count"] = len(executions)
    values["engine.execute_errors"] = errors

    with tracer.span("experiments.build_corpus", jobs=ctx.jobs) as span:
        corpus = build_corpus(catalog, service.config, pool, jobs=ctx.jobs)
    build_s = _seconds(span)
    values["experiments.build_corpus_s"] = build_s
    values["experiments.build_corpus_queries_per_s"] = len(pool) / build_s
    # Useful work per worker: the parallel rate over what the workers
    # would reach if each ran at the serial sample's rate.
    values["experiments.parallel_efficiency"] = (len(pool) / build_s) / (
        ctx.jobs * len(sample) / sample_s
    )

    with tracer.span("api.fit_corpus"):
        service.fit_corpus(corpus)
    features = np.log1p(corpus.feature_matrix())
    performance = np.log1p(corpus.performance_matrix())
    with tracer.span("core.kernel_matrix") as span:
        kx = gaussian_kernel_matrix(
            features, scale_factor_heuristic(features, QUERY_SCALE_FRACTION)
        )
        ky = gaussian_kernel_matrix(
            performance, scale_factor_heuristic(performance, PERFORMANCE_SCALE_FRACTION)
        )
    values["core.kernel_matrix_s"] = _seconds(span)
    with tracer.span("core.kcca_fit") as span:
        KCCA().fit(kx, ky)
    values["core.kcca_fit_s"] = _seconds(span)

    artifact = ctx.workdir / "layers-model.npz"
    with tracer.span("pipeline.save") as span:
        service.save(artifact)
    values["pipeline.save_s"] = _seconds(span)
    values["pipeline.artifact_bytes"] = artifact.stat().st_size
    with tracer.span("pipeline.load") as span:
        QueryPerformancePredictor.load(artifact, catalog=catalog, config=service.config)
    values["pipeline.load_s"] = _seconds(span)


# ----------------------------------------------------------------------
# sql, optimizer, analysis, core (predict), pipeline (score), api
# ----------------------------------------------------------------------


def measure_forecast_layers(ctx: Context, values: dict) -> float:
    """``forecast_many`` whole, then its pieces one public call at a time,
    on this workload's own statements; the pieces must sum to the whole.
    Returns the share a span adds to one ``forecast_many`` call."""
    tracer, sizes = ctx.tracer, ctx.sizes
    service = ctx.reference
    chunks = list(
        itertools.islice(_chunks(ctx.statements, sizes.chunk), sizes.decompose_chunks)
    )
    service.forecast_many(chunks[0])  # warm: first call pays lazy set-up

    scorer = service.pipeline.scorer
    coverage, overhead, features = [], [], []
    for number, chunk in enumerate(chunks):
        request_id = f"chunk{number}"

        def whole() -> float:
            with tracer.span("api.forecast_many", request_id=request_id, n=len(chunk)) as span:
                service.forecast_many(chunk)
            return _seconds(span)

        def pieces() -> float:
            with tracer.span("api.forecast_many.pieces", request_id=request_id) as span:
                span["features"] = _forecast_in_pieces(ctx, service, chunk)
            features.append(span.pop("features"))
            return _seconds(span)

        def bare() -> float:
            started = time.perf_counter()
            service.forecast_many(chunk)
            return time.perf_counter() - started

        # Each ratio pairs two timings taken back to back, and the order
        # flips from chunk to chunk, so neither the VM's drift nor
        # whatever the first call leaves warm leans on one side.
        coverage.append(_ratio(pieces, whole, flip=number % 2 == 1))
        overhead.append(_ratio(whole, bare, flip=number % 2 == 0))

        # What score_many spends inside core, called directly: not a
        # piece, it is already inside score_many's time.
        with tracer.span("core.project", request_id=request_id):
            coordinates = scorer.project(features[-1])
        with tracer.span("core.knn", request_id=request_id):
            nearest_neighbors(
                coordinates, scorer.query_projection, scorer.k_neighbors,
                metric=scorer.distance_metric,
            )

    for sql in itertools.islice(ctx.statements, sizes.floor_probes):
        with tracer.span("api.forecast"):
            service.forecast(sql)

    def per_statement(name: str) -> float:
        return median(
            [(s["end"] - s["start"]) * 1e3 / s["n"] for s in tracer.named(name)]
        )

    values["sql.parse_ms_per_stmt"] = median(tracer.durations_ms("sql.parse"))
    values["sql.parse_count"] = tracer.count("sql.parse")
    values["sql.parse_errors"] = len(tracer.named("sql.parse_error"))
    values["optimizer.plan_ms_per_stmt"] = median(tracer.durations_ms("optimizer.optimize"))
    values["optimizer.plan_count"] = tracer.count("optimizer.optimize")
    lints = tracer.named("analysis.lint_plan")
    values["analysis.planlint_ms_per_stmt"] = median(tracer.durations_ms("analysis.lint_plan"))
    values["analysis.planlint_warnings_per_stmt"] = (
        sum(span["warnings"] for span in lints) / len(lints)
    )
    values["core.featurize_ms_per_stmt"] = per_statement("core.featurize")
    values["core.project_ms_per_batch"] = median(tracer.durations_ms("core.project"))
    values["core.knn_ms_per_batch"] = median(tracer.durations_ms("core.knn"))
    values["pipeline.score_ms_per_batch"] = median(tracer.durations_ms("pipeline.score_many"))
    values["api.forecast_single_ms_p50"] = median(tracer.durations_ms("api.forecast"))
    values["api.forecast_many_ms_per_stmt"] = per_statement("api.forecast_many")
    values["api.assemble_ms_per_stmt"] = per_statement("api.assemble")
    values["api.layer_coverage_share"] = median(coverage)
    return median(overhead) - 1.0


def _forecast_in_pieces(ctx: Context, service, chunk: Sequence[str]) -> np.ndarray:
    """What ``forecast_many`` does, one layer's public function at a time;
    returns the feature matrix it built on the way."""
    tracer = ctx.tracer
    vocabulary = service.pipeline.metadata.get("operator_vocabulary")
    parsed = []
    for sql in chunk:
        try:
            with tracer.span("sql.parse"):
                parsed.append(parse(sql))
        except SQLError:
            with tracer.span("sql.parse_error"):
                pass
    optimized = []
    for query in parsed:
        with tracer.span("optimizer.optimize"):
            optimized.append(service.optimizer.optimize(query, lint=False))
    for plan in optimized:
        with tracer.span("analysis.lint_plan") as span:
            span["warnings"] = len(lint_plan(plan.plan, vocabulary))
    with tracer.span("core.featurize", n=len(optimized)):
        features = plan_feature_matrix([plan.plan for plan in optimized])
    costs = np.array([plan.cost for plan in optimized])
    with tracer.span("pipeline.score_many"):
        scored = service.pipeline.score_many(features, optimizer_costs=costs)
    with tracer.span("api.assemble", n=len(optimized)):
        for plan, score in zip(optimized, scored):
            metrics = PerformanceMetrics.from_vector(score.prediction)
            Forecast(
                metrics=metrics,
                category=categorize(metrics.elapsed_time).value,
                confidence=score.confidence,
                optimizer_cost=plan.cost,
                served_by=score.stage,
            )
    return features


def _ratio(numerator, denominator, flip: bool) -> float:
    """``numerator() / denominator()``, the denominator first when ``flip``."""
    if flip:
        below = denominator()
        return numerator() / below
    above = numerator()
    return above / denominator()


# ----------------------------------------------------------------------
# serve, loadgen, cli
# ----------------------------------------------------------------------


def measure_serving_layers(ctx: Context, values: dict) -> float:
    """The serving path from outside: public response fields, floors timed
    directly, ``/admin/status`` counts and a short rate ladder.  Returns
    the share tracing adds to one served request."""
    tracer, sizes = ctx.tracer, ctx.sizes
    daemon = ctx.daemon
    if daemon is None:
        # An in-process workload: serve its statements once, traced, so
        # the serving layers are still reported for them.
        daemon = DaemonProcess(ctx.artifact)
        ctx.stack.callback(daemon.stop)
        loadgen.closed_loop(
            [daemon.client()], _take(ctx.statements, 2 * sizes.floor_probes),
            deadline_ms=sizes.trace_deadline_ms, tracer=tracer,
        )
    values["cli.spawn_to_ready_s"] = daemon.spawn_to_ready_s
    probes = _take(ctx.statements, sizes.floor_probes)
    client = daemon.client()

    requests = [
        span for span in tracer.named("serve.client_request") if span.get("server")
    ]
    client_ms = [(span["end"] - span["start"]) * 1e3 for span in requests]
    server_ms = [span["server"]["elapsed_ms"] for span in requests]
    values["serve.client_ms_p50"] = median(client_ms)
    values["serve.server_elapsed_ms_p50"] = median(server_ms)
    values["serve.transport_ms_p50"] = median(
        [c - s for c, s in zip(client_ms, server_ms)]
    )
    for stage, name in (("queue", "queue_wait"), ("optimize", "optimize"),
                        ("featurize", "featurize"), ("predict", "predict")):
        values[f"serve.{name}_ms_p50"] = median(
            [span["server"]["stage_ms"].get(stage, 0.0) for span in requests]
        )
    # Server time that no stage accounts for: handler wake-up after the
    # batch, admission review, building the payload.
    values["serve.unattributed_ms_p50"] = median(
        [span["server"]["elapsed_ms"] - sum(span["server"]["stage_ms"].values())
         for span in requests]
    )
    values["serve.response_bytes_p50"] = median(
        [span["response_bytes"] for span in requests]
    )

    connects, healths = [], []
    for _ in probes:
        started = time.perf_counter()
        socket.create_connection((HOST, daemon.port), timeout=5).close()
        connects.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        client.health()
        healths.append((time.perf_counter() - started) * 1e3)
    values["serve.connect_ms_p50"] = median(connects)
    values["serve.healthz_ms_p50"] = median(healths)

    metrics_were_on = api.metrics_enabled()
    with PredictionDaemon(service=ctx.reference) as inproc:
        for sql in probes:
            with tracer.span("serve.dispatch_inproc"):
                inproc.dispatch_forecast([sql], "bench")
    api.set_metrics(metrics_were_on)  # starting a daemon switches them on
    values["serve.dispatch_inproc_ms_p50"] = median(
        tracer.durations_ms("serve.dispatch_inproc")
    )
    overhead = _served_overhead(ctx, client, probes)

    status = client.status()
    values["serve.batches"] = status["batcher"]["batches"]
    values["serve.mean_batch_size"] = status["batcher"]["mean_batch_size"]
    values["serve.largest_batch"] = status["batcher"]["largest_batch"]
    values["serve.requests_rejected"] = status["requests"]["rejected"]
    values["serve.requests_failed"] = status["requests"]["failed"]
    values["serve.requests_expired"] = status["requests"]["expired"]

    rungs = _rate_ladder(ctx, daemon)
    best = 0.0
    for rate, rung in rungs.items():
        values[f"serve.p99_ms_at_{rate:g}"] = rung["p99_ms"]
        if rung["p99_ms"] <= sizes.ladder_p99_limit_ms and not rung["backlog_grows"]:
            best = max(best, rate)
    values["serve.max_rate_in_slo_per_s"] = best

    # How late the generator itself ran: on this workload's own open loop
    # when it has one, else on the ladder's first rung.
    open_loop = ctx.outcomes if ctx.workload == "serve_open" else rungs[
        sizes.ladder_rates[0]
    ]["outcomes"]
    late = [outcome.late_ms for outcome in open_loop]
    values["loadgen.late_ms_p50"] = percentile(late, 50)
    values["loadgen.late_ms_p99"] = percentile(late, 99)
    values["loadgen.achieved_rate_per_s"] = len(open_loop) / (
        max(o.done for o in open_loop) - min(o.due for o in open_loop)
    )
    return overhead


def _served_overhead(ctx: Context, client, probes: Sequence[str]) -> float:
    """One client, a plain request paired with a traced one (span
    recorded, deadline attached, stage breakdown in the response)."""
    scratch = type(ctx.tracer)(enabled=True)
    ratios = []
    for index, sql in enumerate(probes):
        def plain() -> float:
            outcome = loadgen.send(client, index, sql, None, None, None)
            return outcome.done - outcome.sent

        def traced() -> float:
            outcome = loadgen.send(
                client, index, sql, None, ctx.sizes.trace_deadline_ms, scratch
            )
            return outcome.done - outcome.sent

        ratios.append(_ratio(traced, plain, flip=index % 2 == 0))
    return median(ratios) - 1.0


def _rate_ladder(ctx: Context, daemon: DaemonProcess) -> dict:
    """Open loop at a few fixed rates: tail latency and whether the
    generator's backlog kept growing while the rung ran."""
    sizes = ctx.sizes
    clients = [daemon.client() for _ in range(ctx.senders)]
    rungs = {}
    for rate in sizes.ladder_rates:
        offsets = inputs.arrival_offsets(rate, sizes.ladder_seconds, ctx.seed)
        outcomes = loadgen.open_loop(
            clients, _take(ctx.statements, len(offsets)), offsets
        )
        quarter = max(1, len(outcomes) // 4)
        early = median([o.late_ms for o in outcomes[:quarter]])
        final = median([o.late_ms for o in outcomes[-quarter:]])
        rungs[rate] = {
            "p99_ms": percentile([o.latency_ms for o in outcomes], 99),
            "backlog_grows": final > early + 5.0,
            "outcomes": outcomes,
        }
    return rungs


def _take(statements: Sequence[str], n: int) -> list[str]:
    """``n`` statements, cycling when the workload has fewer."""
    return list(itertools.islice(itertools.cycle(statements), n))


def _seconds(span: dict) -> float:
    return span["end"] - span["start"]
