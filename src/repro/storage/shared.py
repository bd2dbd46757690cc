"""Share a catalog across processes via the array plane: attach, don't rebuild.

Corpus builds fan out over worker processes, and before this module
existed every worker paid to re-pickle and reconstruct the full catalog —
all partitioned numpy tables plus statistics — which made ``jobs=N``
*slower* than serial (PR 5's report, in git history, measured 0.33x).
Here the parent publishes every column array and histogram **once** into
a single shared-memory plane (:func:`repro.ioutils.publish_arrays`), and
workers attach zero-copy read-only views in microseconds:

* :func:`share_catalog` — publisher side.  Packs all column arrays and
  per-column histograms into one plane and returns a
  :class:`SharedCatalog` owning the segment, whose picklable
  ``.descriptor`` is a few KB regardless of table sizes.
* :func:`attach_catalog` — worker side.  Rebuilds a fully functional
  :class:`~repro.storage.catalog.Catalog` around the attached views,
  installing the publisher's statistics verbatim (no re-analyze).

The attached catalog is bit-for-bit the publisher's data — the corpus
build's bitwise-identical-to-serial invariant does not care which side
of the plane it runs on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ioutils import (
    ArrayPlane,
    ArrayPlaneHandle,
    AttachedArrays,
    attach_arrays,
    publish_arrays,
)
from repro.storage.catalog import Catalog, ColumnStats, TableStats
from repro.storage.table import Column, Schema, Table

__all__ = [
    "CatalogDescriptor",
    "SharedCatalog",
    "AttachedCatalog",
    "share_catalog",
    "attach_catalog",
]


@dataclass(frozen=True)
class _ColumnStatsMeta:
    """Picklable :class:`ColumnStats` with the histogram hoisted into
    the plane (``histogram_key``) instead of shipped by value."""

    name: str
    kind: str
    n_distinct: int
    min_value: Optional[float]
    max_value: Optional[float]
    histogram_key: Optional[str]
    most_common: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class _TableMeta:
    """Schema and statistics scalars for one shared table."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (column name, kind)
    row_count: int
    row_bytes: int
    page_count: int
    column_stats: tuple[_ColumnStatsMeta, ...]


@dataclass(frozen=True)
class CatalogDescriptor:
    """Everything a worker needs to attach the catalog: the plane handle
    plus schema/statistics metadata.  Pickles to a few KB."""

    handle: ArrayPlaneHandle
    tables: tuple[_TableMeta, ...]


class SharedCatalog:
    """Publisher-side owner of a shared catalog plane.

    Keeps the plane alive; :meth:`close` (or context-manager exit)
    unlinks it.  ``descriptor`` is the picklable attachment ticket.
    """

    def __init__(self, plane: ArrayPlane, descriptor: CatalogDescriptor):
        self._plane = plane
        self.descriptor = descriptor

    @property
    def plane_name(self) -> str:
        return self._plane.handle.name

    @property
    def backend(self) -> str:
        return self._plane.handle.backend

    def close(self) -> None:
        self._plane.close()

    def __enter__(self) -> "SharedCatalog":
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.close()
        return False


class AttachedCatalog:
    """Worker-side attachment: a live catalog over shared views.

    Keep this object alive while ``catalog`` is in use — it pins the
    underlying buffer.  :meth:`close` drops the local attachment only;
    the publisher owns the plane itself.
    """

    def __init__(self, catalog: Catalog, attached: AttachedArrays):
        self.catalog = catalog
        self._attached = attached

    def close(self) -> None:
        self._attached.close()


def _column_key(table: str, column: str) -> str:
    return f"col:{table}:{column}"


def _histogram_key(table: str, column: str) -> str:
    return f"hist:{table}:{column}"


def share_catalog(catalog: Catalog, backend: str = "auto") -> SharedCatalog:
    """Publish ``catalog`` into one shared plane (columns + histograms).

    Statistics are collected (or reused, if already collected) on the
    publisher side and shipped in the descriptor, so workers skip the
    full-table analyze pass entirely.
    """
    arrays: dict[str, np.ndarray] = {}
    tables_meta = []
    for name in catalog.table_names:
        table = catalog.table(name)
        stats = catalog.stats(name)
        column_stats = []
        for col in table.schema:
            arrays[_column_key(name, col.name)] = table.column(col.name)
            col_stats = stats.column(col.name)
            histogram_key = None
            if col_stats.histogram is not None:
                histogram_key = _histogram_key(name, col.name)
                arrays[histogram_key] = col_stats.histogram
            column_stats.append(
                _ColumnStatsMeta(
                    name=col_stats.name,
                    kind=col_stats.kind,
                    n_distinct=col_stats.n_distinct,
                    min_value=col_stats.min_value,
                    max_value=col_stats.max_value,
                    histogram_key=histogram_key,
                    most_common=col_stats.most_common,
                )
            )
        tables_meta.append(
            _TableMeta(
                name=name,
                columns=tuple((c.name, c.kind) for c in table.schema),
                row_count=stats.row_count,
                row_bytes=stats.row_bytes,
                page_count=stats.page_count,
                column_stats=tuple(column_stats),
            )
        )
    plane = publish_arrays(arrays, backend=backend)
    descriptor = CatalogDescriptor(
        handle=plane.handle, tables=tuple(tables_meta)
    )
    return SharedCatalog(plane, descriptor)


def attach_catalog(descriptor: CatalogDescriptor) -> AttachedCatalog:
    """Attach a :class:`Catalog` over the plane named by ``descriptor``.

    Zero-copy: every column (and histogram) is a read-only view into the
    shared buffer.  Worker init drops from "unpickle and rebuild every
    table" to "map one segment and wrap views".
    """
    attached = attach_arrays(descriptor.handle)
    tables = []
    stats: dict[str, TableStats] = {}
    for meta in descriptor.tables:
        schema = Schema([Column(name, kind) for name, kind in meta.columns])
        columns = {
            name: attached[_column_key(meta.name, name)]
            for name, _kind in meta.columns
        }
        tables.append(Table(meta.name, schema, columns))
        column_stats = {
            cs.name: ColumnStats(
                name=cs.name,
                kind=cs.kind,
                n_distinct=cs.n_distinct,
                min_value=cs.min_value,
                max_value=cs.max_value,
                histogram=(
                    attached[cs.histogram_key]
                    if cs.histogram_key is not None
                    else None
                ),
                most_common=cs.most_common,
            )
            for cs in meta.column_stats
        }
        stats[meta.name] = TableStats(
            name=meta.name,
            row_count=meta.row_count,
            row_bytes=meta.row_bytes,
            page_count=meta.page_count,
            columns=column_stats,
        )
    catalog = Catalog.from_parts(tables, stats)
    return AttachedCatalog(catalog, attached)
