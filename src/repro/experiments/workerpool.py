"""Persistent warm worker pool for repeated corpus builds.

Sizing sweeps, ``fit_pool`` calls and experiment grids build many
corpora back to back, and each ``build_corpus(..., jobs=N)`` used to pay
full pool spin-up: fork N workers, initialise each, tear everything down
again.  The warm pool keeps one ``ProcessPoolExecutor`` and the
published catalog planes alive across builds:

* the executor is reused as long as the requested ``jobs`` matches (and
  recreated transparently when it does not, or after a crash);
* each catalog's shared-memory plane is published once and cached until
  the catalog is garbage collected (the plane is closed via a weakref
  finalizer, so nothing leaks);
* workers recognise repeated build contexts by token
  (see ``repro.experiments.corpus._apply_context``) and skip
  re-initialisation entirely — a second build over the same catalog and
  configuration starts executing queries immediately.

Enable it around a batch of builds::

    from repro.experiments.workerpool import warmed_pool

    with warmed_pool():
        for spec in grid:
            build_corpus(catalog, spec.config, spec.pool, jobs=4)

or imperatively via :func:`enable_warm_pool` /
:func:`shutdown_warm_pool` (mirrored on the :mod:`repro.api` façade as
``set_warm_pool`` / ``shutdown_warm_pool``).  Builds that arm fault
plans or carry retry policies bypass the warm pool automatically — their
worker state is build-specific and must not leak into later builds.
"""

from __future__ import annotations

import atexit
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.storage.catalog import Catalog
from repro.storage.shared import SharedCatalog, share_catalog

__all__ = [
    "CorpusWorkerPool",
    "enable_warm_pool",
    "warm_pool",
    "warm_pool_enabled",
    "shutdown_warm_pool",
    "warmed_pool",
]


class CorpusWorkerPool:
    """A reusable worker pool plus its cache of published catalog planes."""

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        self._jobs = 0
        self._planes: "weakref.WeakKeyDictionary[Catalog, SharedCatalog]" = (
            weakref.WeakKeyDictionary()
        )

    @property
    def jobs(self) -> int:
        """Worker count of the live executor (0 when none is running)."""
        return self._jobs

    def executor(self, jobs: int) -> ProcessPoolExecutor:
        """The live executor, recreated when ``jobs`` changes.

        No initializer: warm workers are prepared lazily by the first
        chunk they receive (token-checked, so repeat builds skip it).
        """
        if self._executor is None or self._jobs != jobs:
            self.invalidate()
            self._executor = ProcessPoolExecutor(max_workers=jobs)
            self._jobs = jobs
        return self._executor

    def invalidate(self) -> None:
        """Discard the executor (after a crash or a size change).

        Published planes are kept — the replacement workers re-attach
        the same segments, which is the cheap part.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self._jobs = 0

    def shared_catalog(
        self, catalog: Catalog, backend: str = "auto"
    ) -> SharedCatalog:
        """The published plane for ``catalog``, publishing on first use.

        The plane lives until the catalog is garbage collected or the
        pool shuts down, whichever comes first.  Requesting a specific
        backend that differs from the cached plane republishes.
        """
        shared = self._planes.get(catalog)
        if shared is not None and backend not in ("auto", shared.backend):
            shared.close()
            shared = None
        if shared is None:
            shared = share_catalog(catalog, backend=backend)
            self._planes[catalog] = shared
            weakref.finalize(catalog, shared.close)
        return shared

    def shutdown(self) -> None:
        """Stop the workers and unlink every cached plane."""
        self.invalidate()
        for shared in list(self._planes.values()):
            shared.close()
        self._planes.clear()


_WARM: Optional[CorpusWorkerPool] = None


def enable_warm_pool(enabled: bool = True) -> None:
    """Turn the process-wide warm pool on (or off, shutting it down)."""
    global _WARM
    if enabled:
        if _WARM is None:
            _WARM = CorpusWorkerPool()
    else:
        shutdown_warm_pool()


def warm_pool() -> Optional[CorpusWorkerPool]:
    """The process-wide warm pool, or None when disabled (the default)."""
    return _WARM


def warm_pool_enabled() -> bool:
    return _WARM is not None


def shutdown_warm_pool() -> None:
    """Stop warm workers and unlink their planes (idempotent)."""
    global _WARM
    if _WARM is not None:
        _WARM.shutdown()
        _WARM = None


@contextmanager
def warmed_pool() -> Iterator[CorpusWorkerPool]:
    """Scoped warm pool: enabled on entry, shut down on exit.

    When the warm pool is already enabled, the surrounding scope keeps
    ownership and exit leaves it running.
    """
    owned = _WARM is None
    enable_warm_pool()
    pool = _WARM
    assert pool is not None
    try:
        yield pool
    finally:
        if owned:
            shutdown_warm_pool()


atexit.register(shutdown_warm_pool)
