"""Executed query corpora: the measured training/testing data.

A :class:`Corpus` is the product of running a query pool through the
optimizer and executor on one system configuration: per query, the plan
feature vector (estimated cardinalities), the SQL-text feature vector, the
six measured performance metrics, the optimizer's abstract cost and the
runtime category.

Executing the full research corpus takes tens of minutes (the bowling
balls are real multi-million-row joins), so corpora are cached as ``.npz``
files under ``data/corpora/`` — exactly like the paper's measured training
data, which was also collected once and reused.  Delete the cache or set
``rebuild=True`` to re-measure.

Corpus generation fans out across worker processes when ``jobs > 1``
(``build_corpus(..., jobs=4)``): each query's executor noise stream is
seeded independently from the pool seed and the query's identity, so a
parallel build is **bitwise identical** to the serial one regardless of
worker count, scheduling order or chunking.

The fan-out rides the shared-memory data plane (docs/PERFORMANCE.md):
the catalog's numpy tables are published once into a shared segment
(:func:`repro.storage.shared.share_catalog`) and workers *attach*
zero-copy views at init instead of unpickling and rebuilding every
table.  Queries ship in chunks (``chunk_size=...``) to amortise task
overhead, and repeated builds can reuse live workers via the warm pool
(:mod:`repro.experiments.workerpool`).

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
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.features import plan_feature_vector
from repro.engine import Executor, PerformanceMetrics, SystemConfig
from repro.engine.metrics import METRIC_NAMES
from repro.errors import CorpusBuildError, ReproError, RetryExhaustedError
from repro.ioutils import atomic_savez
from repro.obs.trace import (
    attach_spans,
    disable_tracing,
    enable_tracing,
    export_trace,
    reset_trace,
    span,
    tracing_enabled,
)
from repro.optimizer import Optimizer
from repro.resilience.checkpoint import BuildJournal
from repro.resilience.faults import (
    FaultPlan,
    arm as _arm_faults,
    armed_plan,
    corrupt_array,
    fault_site,
)
from repro.resilience.retry import RetryPolicy
from repro.rng import child_generator
from repro.sql.text_features import sql_text_features
from repro.storage.catalog import Catalog
from repro.storage.shared import (
    AttachedCatalog,
    CatalogDescriptor,
    attach_catalog,
    share_catalog,
)
from repro.workloads.categories import QueryCategory, categorize
from repro.workloads.generator import QueryInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.workerpool import CorpusWorkerPool

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
    with span("corpus.execute", query_id=instance.query_id):
        corrupting = fault_site("corpus.execute", query_id=instance.query_id)
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
        performance=corrupt_array(corrupting, result.metrics.as_vector()),
        optimizer_cost=optimized.cost,
        estimated_rows=optimized.estimated_rows,
    )


@dataclass(frozen=True)
class _WorkerContext:
    """Everything a worker needs to execute corpus queries.

    The worker *attaches* zero-copy table views of the published data
    plane through ``descriptor``.  The ``token`` identifies the prepared
    worker state — a worker that already holds this token skips
    re-initialisation entirely, which is what makes the warm pool cheap
    across repeated builds.
    """

    token: str
    config: SystemConfig
    noise_seed: int
    trace: bool
    descriptor: CatalogDescriptor
    plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None


_COLD_TOKENS = iter(range(1, 1 << 62))


def _make_context(
    config: SystemConfig,
    noise_seed: int,
    trace: bool,
    descriptor: CatalogDescriptor,
    plan: Optional[FaultPlan],
    retry: Optional[RetryPolicy],
    warm: bool,
) -> _WorkerContext:
    if warm and plan is None and retry is None:
        # Deterministic token: a warm worker that already prepared this
        # exact (plane, config, seed, trace) state reuses it wholesale.
        # Plane names are never reused, so tokens cannot collide across
        # different catalogs or republished planes.
        token = hashlib.sha256(
            f"{descriptor.handle.name}|{config!r}|{noise_seed}|{int(trace)}"
            .encode()
        ).hexdigest()[:16]
    else:
        # Cold pools (and any fault/retry-carrying context) get a unique
        # token so worker state is always rebuilt from this context.
        token = f"cold:{os.getpid()}:{next(_COLD_TOKENS)}"
    return _WorkerContext(
        token=token,
        config=config,
        noise_seed=noise_seed,
        trace=trace,
        descriptor=descriptor,
        plan=plan,
        retry=retry,
    )


#: Per-worker state: optimizer + executor over the attached catalog,
#: keyed by the context token that produced it.  Single slot — applying
#: a new context tears down the previous attachment first.
_WORKER: dict = {}


def _apply_context(context: _WorkerContext) -> None:
    """Prepare this process to execute queries under ``context``.

    Idempotent per token: a warm worker that already holds the context's
    state returns immediately (the attach-vs-rebuild and warm-pool wins
    measured by the bench ``data_plane`` section both live here).
    """
    if _WORKER.get("token") == context.token:
        return
    previous: Optional[AttachedCatalog] = _WORKER.pop("attached", None)
    if previous is not None:
        previous.close()
    if context.plan is not None:
        # Each worker counts site invocations from 1 so a plan's firing
        # schedule is per-process deterministic; use ``match`` filters
        # (e.g. query_id) to target specific work items exactly.  Armed
        # before the attach below so plans can target ``artifact.read``.
        context.plan.reset_counters()
        _arm_faults(context.plan)
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
        _WORKER["was_traced"] = True
    elif _WORKER.pop("was_traced", False):
        # A warm worker traced by a previous build must not keep tracing.
        disable_tracing()
        reset_trace()
    _WORKER["token"] = context.token


def _pool_init_context(context: _WorkerContext) -> None:
    """Cold-pool initializer: prepare worker state once at spawn."""
    _apply_context(context)


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
    payload: "_WorkerContext | str", instances: Sequence[QueryInstance]
) -> "list[ExecutedQuery] | tuple[list[ExecutedQuery], list[dict]]":
    """Execute one chunk of queries in a worker process.

    ``payload`` is the full context on warm pools (whose workers may
    hold state from an earlier build) or just the token on cold pools
    (whose initializer already applied the context — shipping the token
    instead keeps per-chunk pickling cost independent of catalog size).

    Traced chunks return their span dicts alongside the records —
    :func:`export_trace` flattens the worker-side spans to plain dicts,
    which the parent grafts into its own live trace with
    :func:`attach_spans` so a parallel build's trace reads like a serial
    one's.
    """
    if isinstance(payload, _WorkerContext):
        _apply_context(payload)
    elif _WORKER.get("token") != payload:
        raise ReproError(
            "worker received a chunk for an unprepared context; cold pools "
            "must initialise workers with _pool_init_context"
        )
    records = [_worker_execute(instance) for instance in instances]
    if _WORKER.get("trace"):
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


#: Valid ``data_plane`` arguments: the shared-memory plane (with mmap
#: spill fallback) or a forced backend.
DATA_PLANES = ("auto", "shm", "mmap")


def build_corpus(
    catalog: Catalog,
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int = 1,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint: Optional[Path] = None,
    chunk_size: Optional[int] = None,
    data_plane: str = "auto",
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
        chunk_size: queries per worker task.  Default balances load
            (~8 chunks per worker); raise it to amortise task overhead
            on uniform pools, lower it when runtimes are heavily skewed.
        data_plane: how workers get the catalog — ``"auto"`` publishes
            the tables once to shared memory (``"shm"``) falling back to
            a memory-mapped spill file (``"mmap"``).

    None of these knobs changes the corpus bytes: a retried, resumed,
    chunked or fanned-out build — on any data plane — is bitwise
    identical to an uninterrupted serial one.
    """
    if data_plane not in DATA_PLANES:
        raise ValueError(
            f"data_plane must be one of {DATA_PLANES}, got {data_plane!r}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
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
        with span(
            "corpus.build", n=len(pool), jobs=jobs, config=config.name
        ):
            if jobs > 1 and len(pool) > 1:
                executed = _build_parallel(
                    catalog, config, pool, noise_seed, progress, jobs,
                    retry, journal, completed, chunk_size, data_plane,
                )
            else:
                executed = _build_serial(
                    catalog, config, pool, noise_seed, progress,
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
    progress: Optional[Callable[[int, int], None]],
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
        if progress is not None:
            progress(len(executed), len(pool))
    return executed


def _build_parallel(
    catalog: Catalog,
    config: SystemConfig,
    pool: Sequence[QueryInstance],
    noise_seed: int,
    progress: Optional[Callable[[int, int], None]],
    jobs: int,
    retry: Optional[RetryPolicy],
    journal: Optional[BuildJournal],
    completed: dict[str, ExecutedQuery],
    chunk_size: Optional[int],
    data_plane: str,
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
    from repro.experiments.workerpool import warm_pool

    traced = tracing_enabled()
    plan = armed_plan()
    results: dict[str, ExecutedQuery] = dict(completed)
    plain = retry is None and journal is None
    pool_attempts = retry.max_attempts if retry is not None else 1

    facility = warm_pool()
    warm = facility is not None and plan is None and retry is None
    if warm and facility is not None:
        shared = facility.shared_catalog(catalog, backend=data_plane)
    else:
        shared = share_catalog(catalog, backend=data_plane)
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
            context = _make_context(
                config, noise_seed, traced, shared.descriptor,
                worker_plan, retry, warm,
            )
            try:
                _run_pool(
                    context, pending, jobs, chunk_size,
                    facility if warm else None,
                    journal, results, progress, len(pool),
                )
            except BrokenProcessPool as error:
                if warm and facility is not None:
                    facility.invalidate()
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
        # Warm-pool planes stay published for the next build; one-shot
        # planes are unlinked here even when the build fails, so a
        # crashed (or faulted) build never leaks /dev/shm segments.
        if not warm:
            shared.close()
    return [results[q.query_id] for q in pool]


def _chunk_pending(
    pending: Sequence[QueryInstance], jobs: int, chunk_size: Optional[int]
) -> list[list[QueryInstance]]:
    """Partition pending queries (in pool order) into worker tasks.

    The default targets ~8 chunks per worker: small enough to keep
    workers balanced (bowling balls take ~1000x a feather), large
    enough to amortise per-task submission overhead.
    """
    if chunk_size is None:
        chunk_size = max(1, len(pending) // (max(1, jobs) * 8))
    return [
        list(pending[i:i + chunk_size])
        for i in range(0, len(pending), chunk_size)
    ]


def _run_pool(
    context: _WorkerContext,
    pending: Sequence[QueryInstance],
    jobs: int,
    chunk_size: Optional[int],
    facility: "Optional[CorpusWorkerPool]",
    journal: Optional[BuildJournal],
    results: dict[str, ExecutedQuery],
    progress: Optional[Callable[[int, int], None]],
    total: int,
) -> None:
    """One worker-pool lifetime: submit chunks, harvest whatever
    completes into ``results`` (journaling each), and let
    ``BrokenProcessPool`` escape to the rebuild loop with the harvest
    intact.

    Cold pools eagerly prepare workers via the initializer and ship only
    the context token per chunk; warm pools (which may hold an earlier
    build's state) ship the full context and let the first chunk per
    worker apply it.
    """
    effective_jobs = min(jobs, len(pending))
    chunks = _chunk_pending(pending, effective_jobs, chunk_size)
    owns_pool = facility is None
    if owns_pool:
        workers = ProcessPoolExecutor(
            max_workers=effective_jobs,
            initializer=_pool_init_context,
            initargs=(context,),
        )
        payload: "_WorkerContext | str" = context.token
    else:
        workers = facility.executor(jobs)
        payload = context
    try:
        futures = {
            workers.submit(_pool_run_chunk, payload, chunk): chunk
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
                    if progress is not None:
                        progress(len(results), total)
    finally:
        if owns_pool:
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
        ReproError: when the file has an incompatible format version.
    """
    path = Path(path)
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


def load_or_build_corpus(
    path: Path,
    builder: Callable[..., Corpus],
    rebuild: bool = False,
    jobs: Optional[int] = None,
) -> Corpus:
    """Load the cached corpus at ``path``, building and caching if needed.

    Args:
        jobs: forwarded to ``builder(jobs=...)`` when given, so cache
            misses fan out without the caller re-plumbing the argument
            (the builder must accept a ``jobs`` keyword in that case).
    """
    path = Path(path)
    if not rebuild and path.exists():
        try:
            return load_corpus(path)
        except (ReproError, OSError, KeyError, json.JSONDecodeError):
            pass  # stale or corrupt cache: rebuild below
    corpus = builder() if jobs is None else builder(jobs=jobs)
    save_corpus(corpus, path)
    return corpus
