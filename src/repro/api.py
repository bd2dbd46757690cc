"""High-level public API: train a predictor, predict SQL performance.

This is the façade a downstream user (a workload manager, a capacity
planner) would embed: give it a catalog + system configuration and a
training workload, then ask it what any new SQL statement will cost —
before running it.

Example::

    from repro.api import QueryPerformancePredictor

    predictor = QueryPerformancePredictor.train_on_tpcds(n_queries=300)
    forecast = predictor.predict(
        "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30"
    )
    print(forecast.elapsed_time, forecast.disk_ios)
    print(predictor.explain("SELECT ..."))

    predictor.save("model.npz")                       # train once...
    loaded = QueryPerformancePredictor.load("model.npz")  # ...serve many
    loaded.forecast_many([sql_a, sql_b, sql_c])       # batched scoring

Observability (off by default; see docs/OBSERVABILITY.md)::

    from repro import api, obs

    api.set_tracing(True)
    predictor.forecast(sql)
    print(obs.pretty_trace())     # optimize → featurize → project → knn
    api.set_metrics(True)
    predictor.forecast_many(sqls)
    print(api.get_metrics())      # registry snapshot (latencies, totals)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.analysis.findings import PlanWarning
from repro.analysis.planlint import corpus_vocabulary, vocabulary_warnings
from repro.core.base import artifact_digest, restoring
from repro.core.confidence import ConfidenceReport
from repro.core.features import plan_feature_matrix, plan_feature_vector
from repro.core.predictor import KCCAPredictor
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import PerformanceMetrics
from repro.engine.system import SystemConfig, research_4node
from repro.errors import ModelError
from repro.lru import StampedLRU, text_bytes
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.obs.seam import boundary, stage
from repro.optimizer.optimizer import OptimizedQuery, Optimizer
from repro.pipeline.pipeline import PredictionPipeline
from repro.storage.catalog import Catalog
from repro.workloads.categories import categorize

if TYPE_CHECKING:  # what training, generating and executing import, on use
    from repro.engine.executor import Executor
    from repro.experiments.corpus import Corpus
    from repro.workloads.generator import QueryInstance
    from repro.workloads.spec import WorkloadRef

__all__ = [
    "QueryPerformancePredictor",
    "Forecast",
    "PlanWarning",
    "set_tracing",
    "trace_enabled",
    "set_metrics",
    "metrics_enabled",
    "get_metrics",
    "get_metrics_text",
    "artifact_fingerprint",
    "resolve_artifact",
    "clear_artifact_cache",
]


# ----------------------------------------------------------------------
# Observability façade (thin wrappers so embedders need only repro.api)
# ----------------------------------------------------------------------


def set_tracing(enabled: bool) -> None:
    """Turn span recording on or off process-wide."""
    if enabled:
        _obs_trace.enable_tracing()
    else:
        _obs_trace.disable_tracing()


def trace_enabled() -> bool:
    """Whether hot-path spans are currently being recorded."""
    return _obs_trace.tracing_enabled()


def set_metrics(enabled: bool) -> None:
    """Turn metric recording on or off process-wide."""
    if enabled:
        _obs_metrics.enable_metrics()
    else:
        _obs_metrics.disable_metrics()


def metrics_enabled() -> bool:
    """Whether hot-path metrics are currently being recorded."""
    return _obs_metrics.metrics_enabled()


def get_metrics() -> dict:
    """Snapshot of every recorded metric (``{name: state}``)."""
    return _obs_metrics.get_registry().snapshot()


def get_metrics_text() -> str:
    """Prometheus text exposition of the metrics registry."""
    return _obs_metrics.get_registry().render_prometheus()


@dataclass(frozen=True)
class Forecast:
    """A pre-execution performance forecast for one SQL statement.

    Attributes:
        confidence: kernel-space anomaly report.
        served_by: always None: no stage other than the fitted model
            answers.  Kept because ``bench/layers.py`` sets it; the
            benchmark's next revision may drop it.
        warnings: plan-lint warnings (docs/STATIC_ANALYSIS.md, Pack B):
            structural hazards found in the physical plan plus, for
            trained services, operators outside the training corpus's
            vocabulary — i.e. this forecast is an extrapolation.
    """

    metrics: PerformanceMetrics
    category: str
    confidence: ConfidenceReport
    optimizer_cost: float
    served_by: Optional[str] = None
    warnings: tuple[PlanWarning, ...] = ()


#: Statement-memo bounds: entries, and bytes of one statement (a longer one
#: is compiled, not retained); their product bounds the text held.  No knob.
_MEMO_ENTRIES = 1024
_MEMO_STATEMENT_BYTES = 4096


def _warnings(
    optimized: OptimizedQuery, pipeline: Optional[PredictionPipeline]
) -> tuple[PlanWarning, ...]:
    """``optimized``'s plan-lint warnings plus, given a fitted pipeline,
    PL005 for operators outside its training corpus's vocabulary."""
    vocabulary = pipeline and pipeline.metadata.get("operator_vocabulary")
    if not vocabulary:
        return optimized.warnings
    return optimized.warnings + tuple(
        vocabulary_warnings(optimized.plan, vocabulary)
    )


def _rows(
    spec: dict, pipeline: PredictionPipeline, source: str
) -> Callable[[], Catalog]:
    """A call generating the catalog an artifact's recipe ``spec`` describes,
    rows and all, and checking it against the artifact's fingerprint.  The
    recipe's arguments are checked now; the rows are made when called."""
    kind, seed = spec["kind"], int(spec["seed"])
    scale = float(spec["scale_factor"] if kind == "tpcds" else spec.get("scale", 1.0))

    def generate() -> Catalog:
        if kind == "tpcds":
            from repro.workloads.tpcds import build_tpcds_catalog

            catalog = build_tpcds_catalog(scale_factor=scale, seed=seed)
        else:
            from repro.workloads.customer import build_customer_catalog

            catalog = build_customer_catalog(seed=seed, scale=scale)
        pipeline.check_environment(catalog, None, source)
        return catalog

    return generate


class StatementMemo(StampedLRU):
    """Bounded LRU: statement text -> ``(feature row, optimizer cost,
    warnings, last forecast)``.

    The first three are what compiling yields: pure functions of the
    text, the catalog statistics and the fitted pipeline's vocabulary;
    no plan tree or AST is kept.  The forecast is such a function too
    (the mean of the k nearest training queries' metrics, given the
    feature row and the fitted model), so a repeat is answered with
    it.  Callers pass the
    ``stamp`` (statistics version, pipeline) they run under: a new one
    empties the memo, and what was computed under an old one is not
    stored.
    """

    def __init__(self) -> None:
        super().__init__("api.statement_memo", _MEMO_ENTRIES,
                         "repro_forecast_memo", "statement-memo")

    def store(self, stamp: object, entries: dict) -> None:
        """Retain ``entries`` of at most ``_MEMO_STATEMENT_BYTES`` of text."""
        super().store(stamp, {sql: entry for sql, entry in entries.items()
                              if text_bytes(sql) <= _MEMO_STATEMENT_BYTES})

    def _stats_locked(self) -> dict:
        return {
            **super()._stats_locked(),
            "bytes": sum(text_bytes(sql) for sql in self._entries),
            "max_bytes": self.max_entries * _MEMO_STATEMENT_BYTES,
        }


class QueryPerformancePredictor:
    """Trainable, explainable query performance prediction service.

    Internally everything flows through one
    :class:`~repro.pipeline.PredictionPipeline` (model → confidence,
    scoring plan-feature rows), which is also what :meth:`save` persists
    and :meth:`load` restores — train once, serve from the artifact.

    Args:
        catalog: the database the queries run against.
        config: the system configuration being modelled.
        two_step: use the paper's two-step type-specific models
            (Experiment 3) instead of one global model.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[SystemConfig] = None,
        two_step: bool = False,
        **predictor_kwargs,
    ) -> None:
        self.catalog = catalog
        self.config = config or research_4node()
        self.optimizer = Optimizer(self.catalog, self.config)
        self._executor: Optional[Executor] = None
        self.two_step = two_step
        self._predictor_kwargs = predictor_kwargs
        self._pipeline: Optional[PredictionPipeline] = None
        self._corpus: Optional[Corpus] = None
        self._catalog_spec: Optional[dict] = None
        #: Generates the catalog with rows that a statistics-only one (see
        #: :meth:`load`) stands for; None when ``catalog`` holds the rows.
        self._rows: Optional[Callable[[], Catalog]] = None
        #: The statement memo (``memo.stats()``: size, bounds, hits, misses).
        self.memo = StatementMemo()
        #: Content digest of the artifact bytes this service was built
        #: from (set by :meth:`load`); None when trained in-process.
        self.artifact_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    @classmethod
    def train_on_workload(
        cls,
        workload: WorkloadRef = "tpcds",
        n_queries: int = 300,
        scale: Optional[float] = 0.3,
        seed: int = 7,
        config: Optional[SystemConfig] = None,
        two_step: bool = False,
        problem_fraction: Optional[float] = None,
        jobs: Optional[int] = None,
        **predictor_kwargs,
    ) -> "QueryPerformancePredictor":
        """Build a workload spec's catalog, run its queries, train on them.

        ``workload`` is a built-in spec name (``tpcds``, ``oltp``,
        ``analytics``, ``tpcds_skew``, ``customer``), a path to a spec
        file, or a loaded/compiled spec object (see
        :mod:`repro.workloads.spec` and ``docs/WORKLOADS.md``).  The
        spec's catalog recipe decides which database gets built;
        ``scale``/``seed`` override the recipe's size and data seed.
        ``seed`` also drives query generation, and ``jobs`` fans the
        workload's execution out across worker processes (deterministic:
        the corpus is bitwise identical to a serial build).  Artifacts
        saved from a service built here embed the catalog recipe, so
        :meth:`load` can rebuild the catalog without being handed one.
        """
        from repro.workloads.generator import generate_pool
        from repro.workloads.spec import build_catalog_for, resolve_workload

        compiled = resolve_workload(workload)
        spec = compiled.spec
        catalog = build_catalog_for(spec, scale=scale, seed=seed)
        service = cls(
            catalog, config=config, two_step=two_step, **predictor_kwargs,
        )
        recipe = dict(spec.catalog)
        if scale is not None:
            recipe["scale" if recipe.get("kind") == "customer"
                   else "scale_factor"] = scale
        recipe["seed"] = seed
        recipe["workload"] = spec.name
        service._catalog_spec = recipe
        pool = generate_pool(
            n_queries, seed=seed, workload=compiled,
            problem_fraction=problem_fraction,
        )
        service.fit_pool(pool, jobs=jobs)
        return service

    @classmethod
    def train_on_tpcds(
        cls,
        n_queries: int = 300,
        scale_factor: float = 0.3,
        seed: int = 7,
        config: Optional[SystemConfig] = None,
        two_step: bool = False,
        problem_fraction: float = 0.25,
        jobs: Optional[int] = None,
        **predictor_kwargs,
    ) -> "QueryPerformancePredictor":
        """Build a TPC-DS-like database, run a workload, train on it.

        Backward-compatible shorthand for
        ``train_on_workload("tpcds", ...)``; this is the turn-key entry
        point used by the examples — lower ``scale_factor`` /
        ``n_queries`` train in seconds, the defaults in well under a
        minute.
        """
        return cls.train_on_workload(
            "tpcds",
            n_queries=n_queries,
            scale=scale_factor,
            seed=seed,
            config=config,
            two_step=two_step,
            problem_fraction=problem_fraction,
            jobs=jobs,
            **predictor_kwargs,
        )

    def fit_pool(
        self, pool: Sequence[QueryInstance], jobs: Optional[int] = None
    ) -> "QueryPerformancePredictor":
        """Execute a training pool and fit the model on the measurements."""
        from repro.experiments.corpus import build_corpus

        catalog = self.executor.catalog  # the rows, where catalog holds none
        corpus = build_corpus(catalog, self.config, pool, jobs=jobs)
        return self.fit_corpus(corpus)

    def fit_corpus(self, corpus: Corpus) -> "QueryPerformancePredictor":
        """Fit the full pipeline on an already-executed corpus."""
        if self.two_step:
            model = TwoStepPredictor(**self._predictor_kwargs)
        else:
            model = KCCAPredictor(**self._predictor_kwargs)
        pipeline = PredictionPipeline(model=model)
        pipeline.fit_corpus(corpus)
        pipeline.fingerprint_environment(self.catalog, self.config)
        pipeline.metadata.update(
            {
                "two_step": self.two_step,
                "n_training_queries": len(corpus),
                "system_config": asdict(self.config),
                "catalog_spec": self._catalog_spec,
                # Operator kinds seen in training; forecasts on plans
                # outside this vocabulary carry a PL005 warning.
                "operator_vocabulary": list(
                    corpus_vocabulary(corpus.feature_matrix())
                ),
            }
        )
        self._pipeline = pipeline
        self._corpus = corpus
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Persist the trained pipeline as a versioned artifact.

        The artifact embeds catalog/system fingerprints (verified on
        load), the catalog statistics the optimizer plans from, and, for
        :meth:`train_on_workload` services, the recipe that generates the
        catalog's rows.
        """
        self._require_trained()
        self._pipeline.save(path, catalog=self.catalog, config=self.config)

    @classmethod
    def load(
        cls,
        path: Path,
        catalog: Optional[Catalog] = None,
        config: Optional[SystemConfig] = None,
    ) -> "QueryPerformancePredictor":
        """Load a service from an artifact saved by :meth:`save`.

        Args:
            path: the artifact file.
            catalog: the database to serve against; when omitted, the
                service plans against the catalog statistics the artifact
                stores, and generates the rows from the recipe it also
                stores (available for :meth:`train_on_workload` services)
                the first time it executes — :meth:`measure`,
                :attr:`executor`, :meth:`fit_pool`.
            config: the system configuration; when omitted, restored from
                the artifact.

        Raises:
            ModelError: when the artifact's catalog/system fingerprints
                do not match the supplied (or stored) environment, when
                no catalog can be obtained, or on schema-version
                mismatches.
        """
        # One read: the digest, the metadata below and the fitted state all
        # come from the same bytes, whatever replaces the file meanwhile.
        pipeline = PredictionPipeline.load(path)
        spec = pipeline.metadata.get("catalog_spec")
        rows = None
        with restoring(path):  # the recipe is as much outside input
            if config is None:
                stored = pipeline.metadata.get("system_config")
                if stored is None:
                    raise ModelError(
                        "stores no system configuration; pass config= explicitly"
                    )
                config = SystemConfig(**stored)
            if catalog is None:
                kind = (spec or {}).get("kind")
                if pipeline.catalog is None or kind not in ("tpcds", "customer"):
                    raise ModelError(
                        "embeds no catalog recipe; pass catalog= explicitly"
                    )
                catalog, rows = pipeline.catalog, _rows(spec, pipeline, str(path))
        pipeline.check_environment(catalog, config, str(path))
        service = cls(
            catalog,
            config=config,
            two_step=bool(pipeline.metadata.get("two_step", False)),
        )
        service._catalog_spec = spec
        service._rows = rows
        service.artifact_fingerprint = pipeline.artifact_digest
        service._pipeline = pipeline
        return service

    @property
    def executor(self) -> Executor:
        """The simulated engine that :meth:`measure` runs, built on first
        use — over rows generated then when ``catalog`` is statistics-only."""
        if self._executor is None:
            from repro.engine.executor import Executor

            rows = self.catalog if self._rows is None else self._rows()
            self._executor = Executor(rows, self.config)
        return self._executor

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _require_trained(self) -> None:
        if self._pipeline is None:
            raise ModelError(
                "predictor is not trained; call fit_* first or load() an "
                "artifact"
            )

    @property
    def pipeline(self) -> PredictionPipeline:
        """The underlying prediction pipeline (trained)."""
        self._require_trained()
        return self._pipeline

    def features_for(self, sql: str) -> np.ndarray:
        """The query-plan feature vector the model sees for ``sql``."""
        optimized = self.optimizer.optimize(sql)
        return plan_feature_vector(optimized.plan)

    def predict(self, sql: str) -> PerformanceMetrics:
        """Predict the six performance metrics for ``sql``."""
        return self.forecast(sql).metrics

    def predict_many(self, sqls: Sequence[str]) -> list[PerformanceMetrics]:
        """Predict metrics for a batch of statements in one model pass."""
        return [forecast.metrics for forecast in self.forecast_many(sqls)]

    def forecast(self, sql: str) -> Forecast:
        """Predict metrics plus category, confidence and optimizer cost."""
        return self.forecast_many([sql])[0]

    def forecast_many(self, sqls: Sequence[str]) -> list[Forecast]:
        """Batched forecasts: N queries, one kernel-cross per model.

        The batch path end-to-end: plan the statements the statement
        memo does not hold (once per distinct text), build one feature
        matrix of the statements to score, project it once, and derive
        predictions and confidence from the same projection.  A statement
        the memo holds a forecast for is answered with that forecast;
        each other distinct text is scored once.  Each stage boundary
        (:func:`repro.obs.seam.stage`: one ``optimizer.optimize`` per
        compiled statement, ``api.featurize``, ``pipeline.score_many``)
        is a cooperative cancellation point against the caller's
        installed :class:`~repro.resilience.deadline.Deadline` (the
        serving daemon turns an expired budget into a structured 504),
        and each stage's wall time is charged to the deadline's
        per-stage accounting.  A memoised statement is a cancellation
        point and an ``optimizer.optimize`` fault site like any other.
        """
        self._require_trained()
        if not sqls:
            return []
        pipeline, memo = self._pipeline, self.memo
        stamp = (self.catalog.version, pipeline)
        with stage("api.forecast_many", n=len(sqls)) as current:
            compiled, hits = memo.lookup(stamp, sqls)
            current.set(memo_hits=hits)
            misses: list[str] = []
            for sql in sqls:
                if sql in compiled:
                    boundary("optimizer.optimize")
                else:
                    compiled[sql] = ()  # compiled below, once
                    misses.append(sql)
            optimized = self.optimizer.optimize_many(misses)
            with stage("api.featurize", n=len(sqls)):
                rows = plan_feature_matrix([opt.plan for opt in optimized])
                for sql, opt, row in zip(misses, optimized, rows):
                    warnings = _warnings(opt, pipeline)
                    compiled[sql] = (row.copy(), opt.cost, warnings, None)
                unscored = [sql for sql in dict.fromkeys(sqls)
                            if compiled[sql][3] is None]
                features = np.array([compiled[sql][0] for sql in unscored])
            scored = []
            if unscored:
                scored = pipeline.score_many(features)
        for sql, score in zip(unscored, scored):
            row, cost, warnings, _ = compiled[sql]
            metrics = PerformanceMetrics.from_vector(score.prediction)
            compiled[sql] = (row, cost, warnings, Forecast(
                metrics=metrics,
                category=categorize(metrics.elapsed_time).value,
                confidence=score.confidence,
                optimizer_cost=cost,
                warnings=warnings,
            ))
        memo.store(stamp, compiled)
        return [compiled[sql][3] for sql in sqls]

    def held_forecasts(self, sqls: Sequence[str]) -> Optional[list[Forecast]]:
        """The forecast the memo holds for each of ``sqls`` under this model
        and these catalog statistics — exactly what :meth:`forecast_many`
        answers ``sqls`` with — or None unless it holds every one.  A peek:
        no lookup is counted and no entry moves in the LRU order.
        """
        held = self.memo.peek((self.catalog.version, self.pipeline), sqls)
        if len(held) < len(set(sqls)):
            return None
        return [held[sql][3] for sql in sqls]

    def forecast_workload(
        self,
        workload: WorkloadRef,
        n_queries: int = 32,
        seed: int = 101,
        problem_fraction: Optional[float] = None,
    ) -> list[tuple[QueryInstance, Forecast]]:
        """Forecast a sample of a declarative workload, batched.

        Generates ``n_queries`` instances from the workload spec and
        scores them through :meth:`forecast_many`; returns each
        :class:`~repro.workloads.generator.QueryInstance` (which carries
        template and family tags) with its :class:`Forecast`.  The
        workload's tables must exist in the catalog this service was
        trained against.
        """
        from repro.workloads.generator import generate_pool

        pool = generate_pool(
            n_queries, seed=seed, workload=workload,
            problem_fraction=problem_fraction,
        )
        forecasts = self.forecast_many([query.sql for query in pool])
        return list(zip(pool, forecasts))

    def lint(self, sql: str) -> tuple[PlanWarning, ...]:
        """Plan-lint ``sql`` without predicting (docs/STATIC_ANALYSIS.md).

        Runs the structural Pack-B rules on the compiled plan and — when
        the service is trained — the operator-vocabulary check against
        the training corpus.  Usable before training: the vocabulary
        check is simply skipped then.
        """
        return _warnings(self.optimizer.optimize(sql), self._pipeline)

    def measure(self, sql: str) -> PerformanceMetrics:
        """Actually run ``sql`` on the simulated system (ground truth)."""
        optimized = self.optimizer.optimize(sql)
        return self.executor.execute(optimized.plan).metrics

    def explain(self, sql: str) -> str:
        """Human-readable forecast report for ``sql``."""
        from repro.experiments.report import hms

        forecast = self.forecast(sql)
        m = forecast.metrics
        lines = [
            f"predicted elapsed time : {hms(m.elapsed_time)} "
            f"({m.elapsed_time:.2f}s, {forecast.category})",
            f"records accessed       : {m.records_accessed:,}",
            f"records used           : {m.records_used:,}",
            f"disk I/Os              : {m.disk_ios:,}",
            f"message count          : {m.message_count:,}",
            f"message bytes          : {m.message_bytes:,}",
            f"optimizer cost (units) : {forecast.optimizer_cost:,.1f}",
        ]
        lines.append(
            f"confidence             : "
            f"{'LOW (anomalous query)' if forecast.confidence.anomalous else 'ok'}"
            f" (neighbour distance z={forecast.confidence.zscore:+.2f})"
        )
        for warning in forecast.warnings:
            lines.append(f"plan lint              : {warning.render()}")
        return "\n".join(lines)

    @property
    def training_corpus(self) -> Optional[Corpus]:
        return self._corpus


# ----------------------------------------------------------------------
# Artifact resolution (shared by the CLI cache and the serving daemon)
# ----------------------------------------------------------------------

#: Loaded services keyed by resolved artifact path.  Each entry stores
#: the content fingerprint it was loaded under; a lookup whose on-disk
#: fingerprint no longer matches reloads instead of serving stale bytes
#: (the retrain-then-predict footgun).
_ARTIFACT_CACHE: dict[str, tuple[str, "QueryPerformancePredictor"]] = {}


def artifact_fingerprint(path: Path) -> str:
    """Content digest of a model artifact file (sha256, 16 hex chars).

    This is the single source of truth for "which model is this":
    the CLI's in-process cache, the serving daemon's ``model_version``
    and hot-reload checks all compare this value, so the same bytes get
    the same identity everywhere.

    Raises:
        ModelError: when the artifact file does not exist.
    """
    resolved = Path(path)
    if not resolved.is_file():
        raise ModelError(f"model artifact not found: {resolved}")
    return artifact_digest(resolved.read_bytes())


def resolve_artifact(
    path: Path, cache: bool = True
) -> tuple[str, "QueryPerformancePredictor"]:
    """Load a model artifact, deduplicated by content fingerprint.

    Returns ``(fingerprint, service)``.  With ``cache=True`` (default)
    repeated calls for unchanged bytes return the already-loaded
    service; when the file changed on disk — e.g. a retrain overwrote
    it — the stale entry is evicted and the artifact is reloaded, so a
    cached service can never outlive its bytes.  A load reads the file
    once: the fingerprint (also ``service.artifact_fingerprint``) names
    the bytes the service was built from, whatever replaces them meanwhile.
    """
    resolved = Path(path).resolve()
    if cache:
        entry = _ARTIFACT_CACHE.get(str(resolved))
        if entry is not None and entry[0] == artifact_fingerprint(resolved):
            return entry
    service = QueryPerformancePredictor.load(resolved)
    assert service.artifact_fingerprint is not None
    entry = (service.artifact_fingerprint, service)
    if cache:
        _ARTIFACT_CACHE[str(resolved)] = entry
    return entry


def clear_artifact_cache() -> None:
    """Drop every cached artifact service (test helper)."""
    _ARTIFACT_CACHE.clear()
