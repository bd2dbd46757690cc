"""Command-line interface: train, persist, predict and measure queries.

Usage (after ``pip install -e .``)::

    python -m repro train --save model.npz --queries 300
    python -m repro predict --model model.npz "SELECT ..."
    python -m repro forecast --model model.npz --batch workload.sql
    python -m repro explain "SELECT count(*) FROM store_sales ss"
    python -m repro plan "SELECT ..."
    python -m repro pools --queries 300

Commands:

* ``train``    — train a predictor and save it as a versioned artifact;
* ``plan``     — print the optimizer's physical plan with estimates;
* ``predict``  — forecast one query (from ``--model`` or by training);
* ``explain``  — like predict, plus confidence and optimizer cost;
* ``forecast`` — batch forecasts for many statements in one model pass;
* ``lint``     — plan-lint statements without executing or predicting
  (see docs/STATIC_ANALYSIS.md; exit 1 when any warning fires);
* ``measure``  — actually run the query on the simulated system;
* ``pools``    — run a workload and print the Figure 2 pool table;
* ``serve``    — run the long-lived prediction daemon: HTTP/JSON,
  micro-batched forecasts, prediction-driven admission control, hot
  reload on SIGHUP; ``--supervised`` adds crash recovery on a shared
  socket, and ``--default-deadline-ms`` end-to-end deadline budgets
  (see docs/SERVING.md);
* ``workload`` — inspect declarative workload specs:
  ``validate`` (schema + vocabulary checks, exit 1 on errors),
  ``describe`` (families, weights, templates) and ``sample``
  (print generated query instances).

All commands build the selected workload's database deterministically
(``--workload``, ``--scale``, ``--seed``), so output is reproducible.
Parallel training builds (``--jobs N``) share the catalog with workers
through a shared-memory data plane (see docs/PERFORMANCE.md).
``--workload`` accepts a built-in spec name (``tpcds``, ``oltp``,
``analytics``, ``tpcds_skew``, ``customer``) or a path to a spec file
(see docs/WORKLOADS.md).  Within one process, trained services are
cached, so repeated :func:`main` calls (tests, notebooks) don't retrain
for every subcommand.

Observability: the global ``--trace-out FILE`` flag enables hot-path
tracing for any command but ``serve`` and writes the resulting span tree
as JSON (``-`` for a pretty rendering on stderr); ``--metrics`` turns on the
metrics registry and dumps it after the command.  See
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.api import QueryPerformancePredictor, resolve_artifact
from repro.engine.system import production_32node, research_4node
from repro.errors import ReproError, WorkloadSpecError
from repro.optimizer import Optimizer
from repro.serve.config import ServeConfig

__all__ = ["main", "build_parser"]

#: Trained services keyed by (workload, scale, seed, system, queries,
#: two_step) so one process invoking several subcommands trains at most
#: once per setup.
_service_cache: dict[tuple, QueryPerformancePredictor] = {}

_NO_ARTIFACT_HINT = (
    "hint: no --model artifact given; training a fresh model for this "
    "call. Train once with `repro train --save model.npz` and reuse it "
    "via `--model model.npz`."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Predict query performance before execution (ICDE'09).",
    )
    parser.add_argument(
        "--scale", type=float, default=0.2,
        help="TPC-DS-like scale factor (default 0.2)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="generation seed (default 7)"
    )
    parser.add_argument(
        "--workload", default="tpcds", metavar="NAME_OR_PATH",
        help="workload spec: a built-in name (tpcds, oltp, analytics, "
             "tpcds_skew, customer) or a path to a spec file "
             "(default tpcds; see docs/WORKLOADS.md)",
    )
    parser.add_argument(
        "--system", choices=["research", "prod4", "prod8", "prod16", "prod32"],
        default="research", help="system configuration (default research)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for training-workload execution "
             "(default serial, -1 = one per CPU); results are bitwise "
             "identical to a serial run",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="enable hot-path tracing and write the span tree as JSON "
             "to FILE ('-' prints a pretty tree to stderr instead)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="enable the metrics registry and print it (Prometheus text) "
             "to stderr after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser(
        "train", help="train a predictor and save the artifact"
    )
    train.add_argument(
        "--save", required=True, metavar="ARTIFACT",
        help="where to write the model artifact (.npz)",
    )
    _add_training_options(train)

    plan = sub.add_parser("plan", help="show the optimizer's physical plan")
    plan.add_argument("sql")

    for name, help_text in (
        ("predict", "forecast the query (train or load --model)"),
        ("explain", "forecast with confidence and optimizer cost"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("sql")
        cmd.add_argument(
            "--model", metavar="ARTIFACT",
            help="load a saved artifact instead of training",
        )
        _add_training_options(cmd)

    forecast = sub.add_parser(
        "forecast", help="batch forecasts in one model pass"
    )
    forecast.add_argument(
        "sql", nargs="?",
        help="a SQL statement (or use --batch for a file)",
    )
    forecast.add_argument(
        "--model", metavar="ARTIFACT",
        help="load a saved artifact instead of training",
    )
    forecast.add_argument(
        "--batch", metavar="FILE",
        help="file of ';'-separated SQL statements",
    )
    _add_training_options(
        forecast,
        queries="training workload size when no --model (default 200)",
    )

    lint = sub.add_parser(
        "lint", help="plan-lint statements before running them"
    )
    lint.add_argument(
        "sql", nargs="*",
        help="SQL statements (';'-separated; or use --batch)",
    )
    lint.add_argument(
        "--batch", metavar="FILE",
        help="file of ';'-separated SQL statements",
    )
    lint.add_argument(
        "--model", metavar="ARTIFACT",
        help="trained artifact; adds the operator-vocabulary "
             "extrapolation check (PL005) against its training corpus",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default text)",
    )
    lint.add_argument(
        "--concurrency", metavar="TREE", nargs="?", const="",
        default=None,
        help="run static Pack C (CC001-CC008) over a source tree "
             "instead of plan-linting SQL; TREE defaults to the "
             "installed repro package; exits 1 on any finding",
    )

    measure = sub.add_parser("measure", help="run the query (ground truth)")
    measure.add_argument("sql")

    pools = sub.add_parser("pools", help="categorise a generated workload")
    pools.add_argument(
        "--queries", type=int, default=200, help="workload size"
    )

    serve = sub.add_parser(
        "serve", help="run the prediction serving daemon (docs/SERVING.md)"
    )
    # Every serving default comes from ServeConfig itself, so the daemon
    # the CLI starts is the daemon ``ServeConfig()`` describes.  Only the
    # port differs: a fixed one for operators, where the library binds
    # an ephemeral one.
    defaults = ServeConfig()
    serve.add_argument(
        "--model", metavar="ARTIFACT",
        help="model artifact to serve (hot-reloadable via SIGHUP or "
             "/admin/reload); omit to train an in-memory model first",
    )
    serve.add_argument(
        "--host", default=defaults.host,
        help="bind address (default %(default)s)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks an ephemeral port (default 8765)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=defaults.max_batch,
        help="micro-batch size cap (default %(default)s)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=defaults.max_queue,
        help="queued-statement cap before shedding 503s "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=defaults.quota_rate,
        metavar="PRED_S_PER_S",
        help="per-client admission quota in predicted seconds of query "
             "work per wall second (default: quotas off)",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=defaults.quota_burst,
        help="per-client quota burst (default 60x the rate)",
    )
    serve.add_argument(
        "--heavy-seconds", type=float, default=defaults.heavy_seconds,
        help="predicted elapsed time above which a query is a bowling "
             "ball eligible for shedding under load (default: off)",
    )
    serve.add_argument(
        "--shed-inflight", type=int, default=defaults.shed_inflight,
        help="shed bowling balls while more requests than this are in "
             "flight (default %(default)s)",
    )
    serve.add_argument(
        "--slo-p99-ms", type=float, default=defaults.slo_p99_ms,
        help="p99 latency target reported at /admin/status",
    )
    _add_training_options(
        serve,
        queries="training workload size when no --model (default 200)",
        two_step="use type-specific two-step models when training in-memory",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float,
        default=defaults.default_deadline_ms,
        help="deadline budget for requests that carry none; spent "
             "budgets answer 504 (default: unbounded)",
    )
    serve.add_argument(
        "--supervised", action="store_true",
        help="run the daemon as a supervised child: crash -> restart "
             "with backoff on the same socket, crash loops give up "
             "with a journal (docs/SERVING.md)",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=5,
        help="supervised restarts tolerated per window before giving "
             "up (default 5)",
    )
    serve.add_argument(
        "--restart-window-s", type=float, default=30.0,
        help="crash-loop detection window in seconds (default 30)",
    )
    serve.add_argument(
        "--crash-journal", metavar="PATH", default=None,
        help="JSONL crash journal the supervisor appends spawn/exit/"
             "restart/give-up events to",
    )

    workload = sub.add_parser(
        "workload", help="validate, describe or sample workload specs"
    )
    wsub = workload.add_subparsers(dest="workload_command", required=True)
    validate = wsub.add_parser(
        "validate",
        help="check spec files (schema, strategies, SQL vocabulary); "
             "exit 1 on errors",
    )
    validate.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="spec files or directories of specs (*.yaml, *.yml, *.json)",
    )
    describe = wsub.add_parser(
        "describe", help="print families, mix weights and templates"
    )
    describe.add_argument(
        "ref", nargs="?", default=None, metavar="NAME_OR_PATH",
        help="workload to describe (default: the global --workload)",
    )
    sample = wsub.add_parser(
        "sample", help="print generated query instances from a spec"
    )
    sample.add_argument(
        "ref", nargs="?", default=None, metavar="NAME_OR_PATH",
        help="workload to sample (default: the global --workload)",
    )
    sample.add_argument(
        "--queries", type=int, default=10,
        help="number of instances to generate (default 10)",
    )
    return parser


def _add_training_options(
    cmd: argparse.ArgumentParser,
    queries: str = "training workload size (default 200)",
    two_step: str = "use type-specific two-step models",
) -> None:
    """``--queries`` / ``--two-step``, which :func:`_train` reads; a
    command whose help says more passes its own text."""
    cmd.add_argument("--queries", type=int, default=200, help=queries)
    cmd.add_argument("--two-step", action="store_true", help=two_step)


def _config(name: str):
    if name == "research":
        return research_4node()
    return production_32node(int(name.removeprefix("prod")))


def _catalog(args):
    """The database catalog for the selected ``--workload``."""
    from repro.workloads.spec import build_catalog_for, resolve_workload

    spec = resolve_workload(args.workload).spec
    return build_catalog_for(spec, scale=args.scale, seed=args.seed)


def _train(args, config) -> QueryPerformancePredictor:
    """A service trained on the selected workload, once per setup."""
    key = (args.workload, args.scale, args.seed, args.system, args.queries,
           args.two_step)
    if key not in _service_cache:
        # The CLI process is single-threaded; the cache cannot race.
        _service_cache[key] = QueryPerformancePredictor.train_on_workload(  # repro: allow[CC003]
            args.workload,
            n_queries=args.queries,
            scale=args.scale,
            seed=args.seed,
            config=config,
            two_step=args.two_step,
            jobs=args.jobs,
        )
    return _service_cache[key]


def _service(args, config) -> QueryPerformancePredictor:
    """A trained service: loaded from ``--model``, cached, or trained."""
    if args.model:
        # Fingerprint-validated: a retrain that overwrote the file is
        # picked up instead of serving the stale cached model.
        return resolve_artifact(Path(args.model))[1]
    print(_NO_ARTIFACT_HINT, file=sys.stderr)
    return _train(args, config)


#: A ``;`` between statements (group 1), or a stretch that may hold one
#: that is not: a string literal or a ``--`` comment.
_SEPARATOR = re.compile(r"'[^']*'|--[^\n]*|(;)")


def _split_statements(text: str) -> list[str]:
    """The ``;``-separated statements of ``text``, blank ones dropped."""
    parts, start = [], 0
    for match in _SEPARATOR.finditer(text):
        if match.group(1):
            parts.append(text[start:match.start()])
            start = match.end()
    parts.append(text[start:])
    return [part.strip() for part in parts if part.strip()]


def _write_trace(destination: str) -> None:
    """Dump the recorded trace: pretty to stderr for ``-``, else JSON."""
    if destination == "-":
        rendering = obs.pretty_trace()
        if rendering:
            print(rendering, file=sys.stderr)
        obs.drain_trace()
        return
    payload = obs.export_trace(drain=True)
    Path(destination).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"trace written to {destination}", file=sys.stderr)


def _concurrency_lint_command(args) -> int:
    """``repro lint --concurrency``: static Pack C over a source tree."""
    from repro.analysis.concurrency import CONCURRENCY_RULES
    from repro.analysis.engine import findings_to_report, lint_package

    if args.concurrency:
        package_root = Path(args.concurrency)
    else:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    if not package_root.is_dir():
        print(f"error: {package_root} is not a directory", file=sys.stderr)
        return 2
    findings = lint_package(package_root, rules=CONCURRENCY_RULES)
    if args.format == "json":
        print(json.dumps(findings_to_report(findings), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        label = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"concurrency lint ({package_root}): {label}")
    return 1 if findings else 0


def _lint_command(args, config) -> int:
    """``repro lint``: plan-lint statements; exit 1 when warnings fire."""
    from repro.analysis.findings import LINT_SCHEMA_VERSION

    if args.concurrency is not None:
        return _concurrency_lint_command(args)
    statements: list[str] = []
    for chunk in args.sql:
        statements.extend(_split_statements(chunk))
    if args.batch:
        statements.extend(_split_statements(Path(args.batch).read_text()))
    if not statements:
        print("error: lint needs SQL arguments or --batch FILE",
              file=sys.stderr)
        return 2
    if args.model:
        service = resolve_artifact(Path(args.model))[1]
    else:
        service = QueryPerformancePredictor(_catalog(args), config)
    results = [(sql, service.lint(sql)) for sql in statements]
    total = sum(len(warnings) for _, warnings in results)
    if args.format == "json":
        payload = {
            "schema_version": LINT_SCHEMA_VERSION,
            "total_warnings": total,
            "statements": [
                {
                    "sql": sql,
                    "warnings": [w.as_dict() for w in warnings],
                }
                for sql, warnings in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for index, (sql, warnings) in enumerate(results):
            label = "ok" if not warnings else f"{len(warnings)} warning(s)"
            print(f"-- statement {index}: {label}")
            for warning in warnings:
                print(f"   {warning.render()}")
    return 1 if total else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace_out and args.command == "serve":
        # A daemon records its spans on handler and collector threads,
        # which a trace written at exit never sees.
        print("error: --trace-out does not apply to serve; a running "
              "daemon reports through /metrics and /admin/status",
              file=sys.stderr)
        return 2
    config = _config(args.system)
    if args.trace_out:
        obs.enable_tracing()
    if args.metrics:
        obs.enable_metrics()
    try:
        return _dispatch(args, config)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.  Point
        # stdout at devnull so the interpreter's exit-time flush of the
        # dead pipe cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        if args.trace_out:
            _write_trace(args.trace_out)
        if args.metrics:
            text = obs.get_registry().render_prometheus()
            if text:
                print(text, file=sys.stderr, end="")


def _workload_command(args) -> int:
    """``repro workload validate|describe|sample``."""
    from repro.workloads.generator import generate_pool
    from repro.workloads.spec import describe_workload, load_workload_spec

    if args.workload_command == "validate":
        spec_paths: list[Path] = []
        for raw in args.paths:
            path = Path(raw)
            if path.is_dir():
                spec_paths.extend(
                    p for p in sorted(path.iterdir())
                    if p.suffix.lower() in (".yaml", ".yml", ".json")
                )
            else:
                spec_paths.append(path)
        if not spec_paths:
            print("error: no spec files found", file=sys.stderr)
            return 2
        failed = 0
        for path in spec_paths:
            try:
                spec = load_workload_spec(path)
            except WorkloadSpecError as error:
                failed += 1
                print(f"FAIL {path}")
                for message in (error.errors or (str(error),)):
                    print(f"     {message}")
                continue
            print(
                f"ok   {path}  ({spec.name}: {len(spec.templates)} "
                f"templates, {len(spec.families)} families, "
                f"{len(spec.tables)} tables)"
            )
        print(f"{len(spec_paths) - failed}/{len(spec_paths)} specs valid")
        return 1 if failed else 0
    ref = args.ref if args.ref is not None else args.workload
    if args.workload_command == "describe":
        print(describe_workload(ref))
        return 0
    # sample
    for query in generate_pool(args.queries, seed=args.seed, workload=ref):
        print(f"-- {query.query_id}  [{query.family}]")
        print(query.sql)
    return 0


def _serve_config(args) -> ServeConfig:
    """The :class:`ServeConfig` a parsed ``repro serve`` line describes."""
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        heavy_seconds=args.heavy_seconds,
        shed_inflight=args.shed_inflight,
        slo_p99_ms=args.slo_p99_ms,
        default_deadline_ms=args.default_deadline_ms,
    )


def _serve_command(args, config) -> int:
    """``repro serve``: run the prediction daemon until interrupted."""
    import threading

    from repro.serve import PredictionDaemon, Supervisor, SupervisorConfig

    serve_config = _serve_config(args)

    def build_daemon() -> PredictionDaemon:
        if args.model:
            return PredictionDaemon(
                artifact=Path(args.model), config=serve_config
            )
        return PredictionDaemon(
            service=_service(args, config), config=serve_config
        )

    if args.supervised:
        supervisor = Supervisor(
            build_daemon,
            serve_config,
            SupervisorConfig(
                max_restarts=args.max_restarts,
                restart_window_s=args.restart_window_s,
                crash_journal=(
                    Path(args.crash_journal) if args.crash_journal else None
                ),
            ),
        )
        host, port = supervisor.start()
        banner = (f"supervising on http://{host}:{port}  "
                  f"(child pid {supervisor.child_pid})")
        note = (
            "crashes restart with backoff on the same socket; "
            f"> {args.max_restarts} restarts/"
            f"{args.restart_window_s:g}s gives up"
            + (f"; journal: {args.crash_journal}" if args.crash_journal else "")
        )
        farewell = "stopping supervisor and child..."
        stop = supervisor.stop
    else:
        daemon = build_daemon()
        host, port = daemon.start()
        banner = f"serving on http://{host}:{port}  (model {daemon.model_version})"
        note = ("endpoints: /healthz /metrics /admin/status /v1/forecast "
                "/v1/forecast_batch /admin/reload; SIGHUP reloads the artifact")
        farewell = "draining and shutting down..."
        stop = partial(daemon.stop, drain=True)
    # Handlers go in before the banner: anyone scripting the CLI treats
    # the banner as "ready", and ready must include "a SIGTERM from here
    # on drains instead of killing mid-batch".
    stop_event = threading.Event()
    _install_stop_handlers(stop_event)
    print(banner)
    print(note, file=sys.stderr)
    try:
        with suppress(KeyboardInterrupt):
            stop_event.wait()
        print(farewell, file=sys.stderr)
    finally:
        stop()
    return 0


def _install_stop_handlers(stop_event: "threading.Event") -> None:
    """SIGTERM/SIGINT → set ``stop_event`` so the foreground serve loop
    drains and exits 0 instead of dying mid-batch.

    A bare ``threading.Event().wait()`` is uninterruptible by SIGTERM on
    some platforms (CC008): nothing ever sets an anonymous event, and
    the default handler kills the process with the batcher mid-flight.
    Keeping a reference and setting it from the shared
    ``install_signal_handler`` chokepoint mirrors the supervisor's own
    child shutdown path.
    """
    from repro.serve.supervisor import install_signal_handler

    def _on_stop(signum, frame) -> None:
        stop_event.set()

    for signame in ("SIGTERM", "SIGINT"):
        install_signal_handler(signame, _on_stop)


def _dispatch(args, config) -> int:
    if args.command == "serve":
        return _serve_command(args, config)
    if args.command == "workload":
        return _workload_command(args)
    if args.command == "plan":
        optimized = Optimizer(_catalog(args), config).optimize(args.sql)
        print(optimized.plan.pretty())
        print(f"\nestimated rows : {optimized.estimated_rows:,.0f}")
        print(f"optimizer cost : {optimized.cost:,.1f} (abstract units)")
        return 0
    if args.command == "measure":
        service = QueryPerformancePredictor(_catalog(args), config)
        metrics = service.measure(args.sql)
        print(f"elapsed time     : {metrics.elapsed_time:.2f}s")
        print(f"records accessed : {metrics.records_accessed:,}")
        print(f"records used     : {metrics.records_used:,}")
        print(f"disk I/Os        : {metrics.disk_ios:,}")
        print(f"message count    : {metrics.message_count:,}")
        print(f"message bytes    : {metrics.message_bytes:,}")
        return 0
    if args.command == "train":
        path = Path(args.save)
        _train(args, config).save(path)
        print(f"trained on {args.queries} queries; artifact: {path}")
        return 0
    if args.command in ("predict", "explain"):
        predictor = _service(args, config)
        if args.command == "explain":
            print(predictor.explain(args.sql))
        else:
            metrics = predictor.predict(args.sql)
            print(f"predicted elapsed time : {metrics.elapsed_time:.2f}s")
            print(f"predicted records used : {metrics.records_used:,}")
            print(f"predicted disk I/Os    : {metrics.disk_ios:,}")
        return 0
    if args.command == "forecast":
        if args.batch:
            sqls = _split_statements(Path(args.batch).read_text())
        elif args.sql:
            sqls = _split_statements(args.sql)
        else:
            print("error: forecast needs a SQL argument or --batch FILE",
                  file=sys.stderr)
            return 2
        if not sqls:
            print("error: no SQL statements to forecast", file=sys.stderr)
            return 2
        predictor = _service(args, config)
        forecasts = predictor.forecast_many(sqls)
        linted = any(fc.warnings for fc in forecasts)
        header = (
            f"{'#':>3}  {'elapsed':>9}  {'category':<13}"
            f"{'disk I/Os':>10}  {'cost':>10}  conf"
        )
        if linted:
            header += "  lint"
        print(header)
        print("-" * len(header))
        for i, fc in enumerate(forecasts):
            if fc.confidence is None:
                conf = "n/a"
            else:
                conf = "LOW" if fc.confidence.anomalous else "ok"
            row = (
                f"{i:>3}  {fc.metrics.elapsed_time:>8.2f}s  "
                f"{fc.category:<13}{fc.metrics.disk_ios:>10,}  "
                f"{fc.optimizer_cost:>10,.1f}  {conf:<4}"
            )
            if linted:
                ids = ",".join(
                    sorted({w.rule_id for w in fc.warnings})
                ) or "-"
                row += f"  {ids}"
            print(row)
        return 0
    if args.command == "lint":
        return _lint_command(args, config)
    if args.command == "pools":
        from repro.experiments.corpus import build_corpus
        from repro.experiments.experiments import fig2_query_pools
        from repro.experiments.report import format_pool_table
        from repro.workloads.generator import generate_pool

        catalog = _catalog(args)
        pool = generate_pool(
            args.queries, seed=args.seed, workload=args.workload
        )
        corpus = build_corpus(catalog, config, pool, jobs=args.jobs)
        print(format_pool_table(fig2_query_pools(corpus)))
        return 0
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
