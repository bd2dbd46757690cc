"""Catalog: table registry plus optimizer statistics.

The catalog is the optimizer's only view of the data.  Statistics are
collected once per table (like an ``UPDATE STATISTICS`` run) and include
row counts, distinct-value counts, min/max and an equi-depth histogram per
numeric column.  Estimation from these summaries — rather than from the
data itself — is what gives the optimizer its realistic cardinality errors.

The optimizer reads a table's schema (:meth:`Catalog.schema`) and
statistics (:meth:`Catalog.stats`), never its rows, so a catalog built
from statistics alone (:meth:`Catalog.from_statistics`, what a model
artifact stores) plans every statement exactly as the catalog they were
collected from; only execution needs :meth:`Catalog.table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.errors import CatalogError
from repro.storage.table import Column, Schema, Table

__all__ = ["ColumnStats", "TableStats", "Catalog", "HISTOGRAM_BUCKETS"]

#: Number of equi-depth histogram buckets kept per numeric column.
HISTOGRAM_BUCKETS = 32


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column.

    Attributes:
        n_distinct: estimated number of distinct values.
        min_value / max_value: numeric range (None for string columns).
        histogram: equi-depth bucket boundaries for numeric columns
            (length ``buckets + 1``), or None.
        most_common: up to 10 (value, frequency) pairs for string columns.
    """

    name: str
    kind: str
    n_distinct: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    histogram: Optional[np.ndarray] = None
    most_common: tuple[tuple[str, float], ...] = ()

    @staticmethod
    def from_array(name: str, kind: str, values: np.ndarray) -> "ColumnStats":
        """Collect statistics from a column array."""
        if len(values) == 0:
            return ColumnStats(name, kind, n_distinct=0)
        if kind in ("int", "float"):
            finite = values[~np.isnan(values)] if kind == "float" else values
            if len(finite) == 0:
                return ColumnStats(name, kind, n_distinct=0)
            n_distinct = int(len(np.unique(finite)))
            quantiles = np.linspace(0.0, 1.0, HISTOGRAM_BUCKETS + 1)
            histogram = np.quantile(finite.astype(np.float64), quantiles)
            return ColumnStats(
                name,
                kind,
                n_distinct=n_distinct,
                min_value=float(finite.min()),
                max_value=float(finite.max()),
                histogram=histogram,
            )
        uniques, counts = np.unique(values, return_counts=True)
        order = np.argsort(counts)[::-1][:10]
        total = float(len(values))
        most_common = tuple(
            (str(uniques[i]), float(counts[i]) / total) for i in order
        )
        return ColumnStats(
            name, kind, n_distinct=int(len(uniques)), most_common=most_common
        )


@dataclass(frozen=True)
class TableStats:
    """Summary statistics for one table."""

    name: str
    row_count: int
    row_bytes: int
    page_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"no statistics for column {name!r} of table {self.name!r}"
            ) from None


class Catalog:
    """Registry of tables and their statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._schemas: dict[str, Schema] = {}
        self._stats: dict[str, TableStats] = {}
        #: Bumped by :meth:`register` and :meth:`analyze`: what is derived
        #: from the statistics (``repro.api``'s statement memo) compares it.
        self.version = 0

    @classmethod
    def from_parts(
        cls,
        tables: Iterable[Table],
        stats: Optional[dict[str, TableStats]] = None,
    ) -> "Catalog":
        """Assemble a catalog from already-built tables and statistics.

        The attach path of the shared-memory data plane (see
        :mod:`repro.storage.shared`): statistics computed once by the
        publisher are installed verbatim instead of re-running
        :meth:`analyze` over every column in every worker.  Tables
        without an entry in ``stats`` are analyzed lazily on first
        :meth:`stats` lookup, as usual.
        """
        catalog = cls()
        catalog.register_all(tables, analyze=False)
        for name, table_stats in (stats or {}).items():
            if name not in catalog._tables:
                raise CatalogError(
                    f"statistics supplied for unregistered table {name!r}"
                )
            catalog._stats[name] = table_stats
        return catalog

    @classmethod
    def from_statistics(cls, stats: dict[str, TableStats]) -> "Catalog":
        """A catalog of statistics without rows — what the optimizer reads,
        for a process that plans but never executes; a table's schema is
        its column statistics' names and kinds, in order."""
        catalog = cls()
        for name, table_stats in stats.items():
            catalog._schemas[name] = Schema(
                Column(column.name, column.kind)
                for column in table_stats.columns.values()
            )
        catalog._stats = dict(stats)
        return catalog

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, table: Table, analyze: bool = True) -> None:
        """Register ``table``; optionally collect statistics immediately."""
        if table.name in self._schemas:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        self._schemas[table.name] = table.schema
        self.version += 1
        if analyze:
            self.analyze(table.name)

    def register_all(self, tables: Iterable[Table], analyze: bool = True) -> None:
        for table in tables:
            self.register(table, analyze=analyze)

    def analyze(self, name: str) -> TableStats:
        """(Re)collect statistics for table ``name``."""
        table = self.table(name)
        column_stats = {
            col.name: ColumnStats.from_array(
                col.name, col.kind, table.column(col.name)
            )
            for col in table.schema
        }
        stats = TableStats(
            name=name,
            row_count=table.n_rows,
            row_bytes=table.row_bytes,
            page_count=table.page_count(),
            columns=column_stats,
        )
        self._stats[name] = stats
        self.version += 1
        return stats

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._schemas))

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def table(self, name: str) -> Table:
        """The table's rows; a statistics-only catalog has none."""
        if name in self._tables:
            return self._tables[name]
        if name in self._schemas:
            raise CatalogError(f"this catalog holds no rows of table {name!r}")
        raise CatalogError(f"unknown table {name!r}")

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def stats(self, name: str) -> TableStats:
        if name not in self._schemas:
            raise CatalogError(f"unknown table {name!r}")
        if name not in self._stats:
            return self.analyze(name)
        return self._stats[name]

    @property
    def total_bytes(self) -> int:
        """Total estimated footprint of all registered tables."""
        return sum(t.total_bytes for t in self._tables.values())
