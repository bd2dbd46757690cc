"""Executed query corpora: the measured training/testing data.

A :class:`Corpus` is the product of running a query pool through the
optimizer and executor on one system configuration: per query, the plan
feature vector (estimated cardinalities), the SQL-text feature vector, the
six measured performance metrics, the optimizer's abstract cost and the
runtime category.

Executing the full research corpus takes minutes (the bowling balls are
real multi-million-row joins), so corpora are cached as ``.npz`` files
under ``data/corpora/`` — exactly like the paper's measured training
data, which was also collected once and reused.  Delete the cache to
re-measure.

Corpus generation fans out across worker processes when ``jobs > 1``
(``build_corpus(..., jobs=4)``): each query's executor noise stream is
seeded independently from the pool seed and the query's identity, so a
parallel build is **bitwise identical** to the serial one regardless of
worker count, scheduling order or chunking.

The fan-out rides the shared-memory data plane (docs/PERFORMANCE.md):
the catalog's numpy tables are published once into a shared segment
(:func:`repro.storage.shared.share_catalog`) and workers *attach*
zero-copy views at init instead of unpickling and rebuilding every
table.  Queries ship in chunks to amortise task overhead.

Long builds can be made resilient (see docs/ROBUSTNESS.md): pass
``retry=RetryPolicy(...)`` to retry transient per-query failures and
absorb crashed workers into the surviving pool, and/or
``checkpoint=path`` to journal completed queries so a killed build
resumes where it left off — in every case the finished corpus stays
bitwise identical to an uninterrupted serial build.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.features import plan_feature_vector
from repro.engine import Executor, PerformanceMetrics, SystemConfig
from repro.engine.metrics import METRIC_NAMES
from repro.errors import CorpusBuildError, ReproError, RetryExhaustedError
from repro.ioutils import NPZ_READ_ERRORS, atomic_savez
from repro.obs.seam import stage
from repro.obs.trace import (
    attach_spans,
    enable_tracing,
    export_trace,
    reset_trace,
    tracing_enabled,
)
from repro.optimizer import Optimizer
from repro.resilience.checkpoint import BuildJournal
from repro.resilience.faults import (
    FaultPlan,
    arm as _arm_plan,
    armed_plan,
    corrupt_array,
)
from repro.resilience.retry import RetryPolicy
from repro.rng import child_generator
from repro.sql.text_features import sql_text_features
from repro.storage.catalog import Catalog
from repro.storage.shared import (
    CatalogDescriptor,
    attach_catalog,
    share_catalog,
)
from repro.workloads.categories import QueryCategory, categorize
from repro.workloads.generator import QueryInstance

__all__ = [
    "ExecutedQuery",
    "Corpus",
    "build_corpus",
    "build_fingerprint",
    "save_corpus",
    "load_corpus",
    "load_or_build_corpus",
    "CORPUS_FORMAT_VERSION",
]

#: Bump when feature layouts or metric definitions change; stale caches
#: are rejected on load.
CORPUS_FORMAT_VERSION = 3


@dataclass(frozen=True)
class ExecutedQuery:
    """One query's measured record in a corpus."""

    query_id: str
    template: str
    family: str
    sql: str
    features: np.ndarray
    sql_features: np.ndarray
    performance: np.ndarray
    optimizer_cost: float
    estimated_rows: float

    @property
    def elapsed_time(self) -> float:
        return float(self.performance[METRIC_NAMES.index("elapsed_time")])

    @property
    def category(self) -> QueryCategory:
        return categorize(self.elapsed_time)

    @property
    def metrics(self) -> PerformanceMetrics:
        return PerformanceMetrics.from_vector(self.performance)


class Corpus:
    """An ordered collection of executed queries on one configuration."""

    def __init__(self, queries: Sequence[ExecutedQuery], config_name: str):
        self.queries = list(queries)
        self.config_name = config_name

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, index: int) -> ExecutedQuery:
        return self.queries[index]

    def subset(self, indices: Sequence[int]) -> "Corpus":
        """A new corpus containing the selected queries, in given order."""
        return Corpus([self.queries[i] for i in indices], self.config_name)

    # -- matrix views ----------------------------------------------------

    def feature_matrix(self) -> np.ndarray:
        """(n, p) plan feature vectors."""
        return np.vstack([q.features for q in self.queries])

    def sql_feature_matrix(self) -> np.ndarray:
        """(n, 9) SQL-text feature vectors."""
        return np.vstack([q.sql_features for q in self.queries])

    def performance_matrix(self) -> np.ndarray:
        """(n, 6) measured performance vectors (paper metric order)."""
        return np.vstack([q.performance for q in self.queries])

    def elapsed_times(self) -> np.ndarray:
        index = METRIC_NAMES.index("elapsed_time")
        return self.performance_matrix()[:, index]

    def optimizer_costs(self) -> np.ndarray:
        return np.array([q.optimizer_cost for q in self.queries])

    def categories(self) -> list[QueryCategory]:
        return [q.category for q in self.queries]

    def category_indices(self) -> dict[QueryCategory, list[int]]:
        """Query indices per runtime category."""
        result: dict[QueryCategory, list[int]] = {}
        for index, query in enumerate(self.queries):
            result.setdefault(query.category, []).append(index)
        return result

    def family_indices(self) -> dict[str, list[int]]:
        """Query indices per workload family, in first-seen order."""
        result: dict[str, list[int]] = {}
        for index, query in enumerate(self.queries):
            result.setdefault(query.family, []).append(index)
        return result


def _execute_instance(
    optimizer: Optimizer,
    executor: Executor,
    config_name: str,
    noise_seed: int,
    instance: QueryInstance,
) -> ExecutedQuery:
    """Optimize + execute one query — the single code path both the
    serial loop and the worker processes run, so their outputs are
    bitwise identical.

    The executor's noise generator is derived from ``(noise_seed,
    config_name, query_id)`` alone — never from loop order or worker
    identity — which is what makes the fan-out deterministic.
    """
    with stage("corpus.execute", query_id=instance.query_id) as current:
        optimized = optimizer.optimize(instance.sql)
        rng = child_generator(noise_seed, f"{config_name}:{instance.query_id}")
        result = executor.execute(optimized.plan, rng=rng)
    return ExecutedQuery(
        query_id=instance.query_id,
        template=instance.template,
        family=instance.family,
        sql=instance.sql,
        features=plan_feature_vector(optimized.plan),
        sql_features=sql_text_features(optimized.query),
        performance=corrupt_array(current.fault, result.metrics.as_vector()),
        optimizer_cost=optimized.cost,
        estimated_rows=optimized.estimated_rows,
    )


@dataclass(frozen=True)
class _WorkerContext:
    """Everything a worker needs to execute corpus queries.

    The worker *attaches* zero-copy table views of the published data
    plane through ``descriptor``.
    """

    config: SystemConfig
    noise_seed: int
    trace: bool
    descriptor: CatalogDescriptor
    plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None


#: Per-worker state: optimizer + executor over the attached catalog,
#: prepared once by the pool initializer.
_WORKER: dict = {}


def _pool_init_context(context: _WorkerContext) -> None:
    """Pool initializer: prepare this worker, once at spawn, to execute
    queries under ``context``."""
    if context.plan is not None:
        # Each worker counts site invocations from 1 so a plan's firing
        # schedule is per-process deterministic; use ``match`` filters
        # (e.g. query_id) to target specific work items exactly.  Armed
        # before the attach below so plans can target ``artifact.read``.
        context.plan.reset_counters()
        _arm_plan(context.plan)
    attached = attach_catalog(context.descriptor)
    _WORKER["attached"] = attached
    _WORKER["optimizer"] = Optimizer(attached.catalog, context.config)
    _WORKER["executor"] = Executor(attached.catalog, context.config)
    _WORKER["config_name"] = context.config.name
    _WORKER["noise_seed"] = context.noise_seed
    _WORKER["retry"] = context.retry
    _WORKER["trace"] = context.trace
    if context.trace:
        # Under spawn the parent's tracing flag does not propagate; under
        # fork the worker inherits the parent's *open* span stack, which
        # would swallow worker spans.  Reset, then enable.
        reset_trace()
        enable_tracing()


def _worker_execute(instance: QueryInstance) -> ExecutedQuery:
    retry = _WORKER.get("retry")
    try:
        if retry is not None:
            return retry.call(
                _execute_instance,
                _WORKER["optimizer"],
                _WORKER["executor"],
                _WORKER["config_name"],
                _WORKER["noise_seed"],
                instance,
                label=instance.query_id,
            )
        return _execute_instance(
            _WORKER["optimizer"],
            _WORKER["executor"],
            _WORKER["config_name"],
            _WORKER["noise_seed"],
            instance,
        )
    except RetryExhaustedError as error:
        # Chunk tasks carry several queries; name the one that failed so
        # the parent's CorpusBuildError can point at it (the attribute
        # survives pickling back across the process boundary).
        error.query_id = instance.query_id  # type: ignore[attr-defined]
        raise


def _pool_run_chunk(
    instances: Sequence[QueryInstance],
) -> "list[ExecutedQuery] | tuple[list[ExecutedQuery], list[dict]]":
    """Execute one chunk of queries in a worker process.

    The initializer already prepared the worker, so a chunk ships only
    its queries — per-chunk pickling cost is independent of catalog size.

    Traced chunks return their span dicts alongside the records —
    :func:`export_trace` flattens the worker-side spans to plain dicts,
    which the parent grafts into its own live trace with
    :func:`attach_spans` so a parallel build's trace reads like a serial
    one's.
    """
    records = [_worker_execute(instance) for instance in instances]
    if _WORKER["trace"]:
        return records, export_trace(drain=True)
    return records


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    available CPU; anything else is taken literally.
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def build_fingerprint(
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int,
) -> str:
    """Identity of one corpus build, for checkpoint journals.

    Covers everything that determines the build's output — the corpus
    format, the configuration, the noise seed and the ordered query
    pool — so a journal can never be replayed into a different build.
    """
    digest = hashlib.sha256()
    digest.update(
        f"corpus:{CORPUS_FORMAT_VERSION}:{config.name}:{noise_seed}".encode()
    )
    for instance in pool:
        digest.update(b"\x00")
        digest.update(instance.query_id.encode())
    return digest.hexdigest()


def _record_to_payload(record: ExecutedQuery) -> dict:
    """JSON journal payload for one executed query.

    Floats round-trip through JSON via ``repr``, bit-exactly — a resumed
    build's corpus is *bitwise* equal to an uninterrupted one.
    """
    return {
        "template": record.template,
        "family": record.family,
        "sql": record.sql,
        "features": record.features.tolist(),
        "sql_features": record.sql_features.tolist(),
        "performance": record.performance.tolist(),
        "optimizer_cost": record.optimizer_cost,
        "estimated_rows": record.estimated_rows,
    }


def _payload_to_record(query_id: str, payload: dict) -> ExecutedQuery:
    return ExecutedQuery(
        query_id=query_id,
        template=payload["template"],
        family=payload["family"],
        sql=payload["sql"],
        features=np.asarray(payload["features"], dtype=np.float64),
        sql_features=np.asarray(payload["sql_features"], dtype=np.float64),
        performance=np.asarray(payload["performance"], dtype=np.float64),
        optimizer_cost=float(payload["optimizer_cost"]),
        estimated_rows=float(payload["estimated_rows"]),
    )


def build_corpus(
    catalog: Catalog,
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int = 1,
    jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint: Optional[Path] = None,
) -> Corpus:
    """Optimize and execute every query in ``pool`` on ``config``.

    Args:
        jobs: worker processes to fan the pool out across (``None``/``1``
            serial, ``-1`` one per CPU).  Results are bitwise identical
            to the serial build for any worker count.
        retry: retry transient per-query failures under this policy; in
            parallel builds the policy also bounds how many times a
            crashed worker pool is rebuilt (the surviving rebuild
            absorbs the dead workers' unfinished queries).
        checkpoint: journal path; completed queries are durably appended
            as they finish, and a rerun with the same checkpoint resumes
            from them instead of re-executing.  The journal is deleted
            once the build completes.

    None of these changes the corpus bytes: a retried, resumed or
    fanned-out build is bitwise identical to an uninterrupted serial
    one.  Workers get the catalog from a plane published once to shared
    memory, or to a memory-mapped spill file where the host offers none.
    """
    pool = list(pool)
    jobs = resolve_jobs(jobs)
    journal: Optional[BuildJournal] = None
    completed: dict[str, ExecutedQuery] = {}
    if checkpoint is not None:
        journal = BuildJournal(
            checkpoint, build_fingerprint(config, pool, noise_seed)
        )
        completed = {
            query_id: _payload_to_record(query_id, payload)
            for query_id, payload in journal.replay().items()
        }
    try:
        with stage(
            "corpus.build", n=len(pool), jobs=jobs, config=config.name
        ):
            if jobs > 1 and len(pool) > 1:
                executed = _build_parallel(
                    catalog, config, pool, noise_seed, jobs,
                    retry, journal, completed,
                )
            else:
                executed = _build_serial(
                    catalog, config, pool, noise_seed,
                    retry, journal, completed,
                )
    finally:
        if journal is not None:
            journal.close()
    if journal is not None:
        journal.discard()
    return Corpus(executed, config.name)


def _build_serial(
    catalog: Catalog,
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int,
    retry: Optional[RetryPolicy],
    journal: Optional[BuildJournal],
    completed: dict[str, ExecutedQuery],
) -> list[ExecutedQuery]:
    optimizer = Optimizer(catalog, config)
    executor = Executor(catalog, config)
    executed: list[ExecutedQuery] = []
    for instance in pool:
        record = completed.get(instance.query_id)
        if record is None:
            if retry is not None:
                record = retry.call(
                    _execute_instance,
                    optimizer, executor, config.name, noise_seed, instance,
                    label=instance.query_id,
                )
            else:
                record = _execute_instance(
                    optimizer, executor, config.name, noise_seed, instance
                )
            if journal is not None:
                journal.record(instance.query_id, _record_to_payload(record))
        executed.append(record)
    return executed


def _build_parallel(
    catalog: Catalog,
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int,
    jobs: int,
    retry: Optional[RetryPolicy],
    journal: Optional[BuildJournal],
    completed: dict[str, ExecutedQuery],
) -> list[ExecutedQuery]:
    """Fan the pool out over worker processes on the data plane.

    One code path serves the plain, retrying, and checkpointed builds:
    publish the catalog once, submit query chunks, harvest as they
    complete (journaling each record), and rebuild the worker pool when
    it dies.  A hard worker crash poisons the whole
    ``ProcessPoolExecutor`` (``BrokenProcessPool``), so "surviving
    workers absorb the dead peer's queries" means: keep everything that
    finished, rebuild the pool, and resubmit only the unfinished
    remainder.  Rebuild attempts are bounded by ``retry.max_attempts``
    (one attempt — fail fast — without a retry policy) and backed off on
    the same deterministic schedule as per-query retries.

    Output order is pool order regardless of harvest order, and every
    record's noise stream is derived from the query's identity alone, so
    the result is bitwise identical to the serial build.
    """
    traced = tracing_enabled()
    plan = armed_plan()
    results: dict[str, ExecutedQuery] = dict(completed)
    plain = retry is None and journal is None
    pool_attempts = retry.max_attempts if retry is not None else 1

    shared = share_catalog(catalog)
    try:
        attempt = 0
        while True:
            pending = [q for q in pool if q.query_id not in results]
            if not pending:
                break
            attempt += 1
            worker_plan = plan
            if plan is not None and attempt > 1:
                # A hard crash is a process-level event whose
                # deterministic schedule already fired in the dead
                # worker; replacement workers must not replay it, or
                # every rebuild would crash on the same call index
                # forever.
                worker_plan = plan.without_modes(("exit",))
            context = _WorkerContext(
                config=config,
                noise_seed=noise_seed,
                trace=traced,
                descriptor=shared.descriptor,
                plan=worker_plan,
                retry=retry,
            )
            try:
                _run_pool(context, pending, jobs, journal, results)
            except BrokenProcessPool as error:
                if plain:
                    failed = next(
                        (q.query_id for q in pool
                         if q.query_id not in results),
                        None,
                    )
                    raise CorpusBuildError(
                        f"a worker process died building the {config.name} "
                        f"corpus around query {failed!r} "
                        f"({len(results)}/{len(pool)} results arrived); "
                        "pass retry=RetryPolicy(...) to absorb worker "
                        "crashes",
                        query_id=failed,
                        completed=len(results),
                    ) from error
                if attempt >= pool_attempts:
                    raise CorpusBuildError(
                        f"worker pool for the {config.name} corpus died "
                        f"{attempt} time(s); {len(results)}/{len(pool)} "
                        "queries completed",
                        completed=len(results),
                    ) from error
                if retry is not None:
                    pause = retry.delay(attempt, label="corpus.pool")
                    if pause > 0.0:
                        retry.sleep(pause)
    finally:
        # Unlinked even when the build fails, so a crashed (or faulted)
        # build never leaks /dev/shm segments.
        shared.close()
    return [results[q.query_id] for q in pool]


def _chunk_pending(
    pending: Sequence[QueryInstance], jobs: int
) -> list[list[QueryInstance]]:
    """Partition pending queries (in pool order) into worker tasks.

    Targets ~8 chunks per worker: small enough to keep workers balanced
    (bowling balls take ~1000x a feather), large enough to amortise
    per-task submission overhead.
    """
    chunk_size = max(1, len(pending) // (max(1, jobs) * 8))
    return [
        list(pending[i:i + chunk_size])
        for i in range(0, len(pending), chunk_size)
    ]


def _run_pool(
    context: _WorkerContext,
    pending: Sequence[QueryInstance],
    jobs: int,
    journal: Optional[BuildJournal],
    results: dict[str, ExecutedQuery],
) -> None:
    """One worker-pool lifetime: submit chunks, harvest whatever
    completes into ``results`` (journaling each), and let
    ``BrokenProcessPool`` escape to the rebuild loop with the harvest
    intact.  The initializer prepares each worker once; a chunk ships
    only its queries.
    """
    effective_jobs = min(jobs, len(pending))
    chunks = _chunk_pending(pending, effective_jobs)
    workers = ProcessPoolExecutor(
        max_workers=effective_jobs,
        initializer=_pool_init_context,
        initargs=(context,),
    )
    try:
        futures = {
            workers.submit(_pool_run_chunk, chunk): chunk
            for chunk in chunks
        }
        remaining = set(futures)
        while remaining:
            finished, remaining = wait(
                remaining, return_when=FIRST_COMPLETED
            )
            for future in finished:
                chunk = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise
                except RetryExhaustedError as error:
                    failed = getattr(
                        error, "query_id", chunk[0].query_id
                    )
                    raise CorpusBuildError(
                        f"query {failed} failed after "
                        f"{error.attempts} attempt(s): {error}",
                        query_id=failed,
                        completed=len(results),
                    ) from error
                if context.trace:
                    records, worker_spans = result
                    attach_spans(worker_spans)
                else:
                    records = result
                for instance, record in zip(chunk, records):
                    if journal is not None:
                        journal.record(
                            instance.query_id, _record_to_payload(record)
                        )
                    results[instance.query_id] = record
    finally:
        workers.shutdown(wait=True)


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


def save_corpus(corpus: Corpus, path: Path) -> None:
    """Serialise a corpus to an ``.npz`` file (written atomically, so a
    crash mid-save never leaves a truncated cache)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": CORPUS_FORMAT_VERSION,
        "config_name": corpus.config_name,
        "query_ids": [q.query_id for q in corpus.queries],
        "templates": [q.template for q in corpus.queries],
        "families": [q.family for q in corpus.queries],
        "sql": [q.sql for q in corpus.queries],
    }
    atomic_savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        features=corpus.feature_matrix(),
        sql_features=corpus.sql_feature_matrix(),
        performance=corpus.performance_matrix(),
        optimizer_cost=corpus.optimizer_costs(),
        estimated_rows=np.array([q.estimated_rows for q in corpus.queries]),
    )


def load_corpus(path: Path) -> Corpus:
    """Load a corpus saved by :func:`save_corpus`.

    Raises:
        ReproError: when the file cannot be read as a corpus cache (it
            is missing, damaged, or lacks a member) or has an
            incompatible format version.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
            if meta.get("version") != CORPUS_FORMAT_VERSION:
                raise ReproError(
                    f"corpus cache {path} has version {meta.get('version')}, "
                    f"expected {CORPUS_FORMAT_VERSION}; rebuild it"
                )
            features = data["features"]
            sql_features = data["sql_features"]
            performance = data["performance"]
            cost = data["optimizer_cost"]
            estimated_rows = data["estimated_rows"]
        queries = [
            ExecutedQuery(
                query_id=meta["query_ids"][i],
                template=meta["templates"][i],
                family=meta["families"][i],
                sql=meta["sql"][i],
                features=features[i],
                sql_features=sql_features[i],
                performance=performance[i],
                optimizer_cost=float(cost[i]),
                estimated_rows=float(estimated_rows[i]),
            )
            for i in range(len(meta["query_ids"]))
        ]
        return Corpus(queries, meta["config_name"])
    except (*NPZ_READ_ERRORS, KeyError) as error:
        raise ReproError(f"cannot read corpus cache {path}: {error}") from error


def load_or_build_corpus(
    path: Path,
    builder: Callable[..., Corpus],
    jobs: Optional[int] = None,
) -> Corpus:
    """Load the cached corpus at ``path``, building and caching if needed.

    Args:
        jobs: forwarded to ``builder(jobs=...)`` when given, so cache
            misses fan out without the caller re-plumbing the argument
            (the builder must accept a ``jobs`` keyword in that case).
    """
    path = Path(path)
    if path.exists():
        try:
            return load_corpus(path)
        except ReproError:
            pass  # stale or unreadable cache: rebuild below
    corpus = builder() if jobs is None else builder(jobs=jobs)
    save_corpus(corpus, path)
    return corpus
