"""Versioned on-disk artifacts for prediction pipelines.

An artifact is one ``.npz`` file: every model array plus a JSON manifest
recording the schema version, the pipeline stages, the kernel
hyper-parameters and — crucially — *fingerprints* of the catalog and
system configuration the model was trained against.  A model trained on
one database says nothing about another, so loading refuses with a clear
:class:`~repro.errors.ModelError` when the fingerprints do not match the
environment the caller supplies.

Fingerprints hash what the optimizer sees (table names, row counts,
column schemas) and what the timing model sees (every
:class:`~repro.engine.system.SystemConfig` field), not the raw data —
re-generating the same deterministic catalog yields the same fingerprint.

An artifact also carries the catalog's statistics (:func:`catalog_state`):
a forecast is planned from those alone, so a process that loads a model
to serve it restores a statistics-only catalog
(:func:`statistics_catalog`) instead of generating the tables' rows.

Artifacts are written atomically — :func:`atomic_savez` (re-exported
from :mod:`repro.ioutils`, which owns the implementation to keep the
import graph acyclic) stages the ``.npz`` in a same-directory temp file,
fsyncs, and ``os.replace``\\ s it into place, so a crash mid-save never
clobbers the previous artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Optional

from repro.core.base import checked_array
from repro.engine.system import SystemConfig
from repro.errors import ModelError
from repro.ioutils import atomic_savez
from repro.storage.catalog import HISTOGRAM_BUCKETS, Catalog, ColumnStats, TableStats

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "atomic_savez",
    "catalog_fingerprint",
    "system_fingerprint",
    "check_fingerprint",
    "catalog_state",
    "statistics_catalog",
]

#: Version of the pipeline artifact layout (manifest keys + state shape).
#: Version 2 adds the catalog statistics.
ARTIFACT_SCHEMA_VERSION = 2


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def catalog_fingerprint(catalog: Catalog) -> str:
    """A stable hash of the catalog's schema and statistics summary."""
    spec = []
    for name in catalog.table_names:
        stats = catalog.stats(name)
        spec.append(
            {
                "table": name,
                "rows": stats.row_count,
                "row_bytes": stats.row_bytes,
                "columns": [[col.name, col.kind] for col in catalog.schema(name)],
            }
        )
    return _digest(spec)


def system_fingerprint(config: SystemConfig) -> str:
    """A stable hash of every field of a system configuration."""
    return _digest(dataclasses.asdict(config))


def check_fingerprint(
    kind: str, expected: Optional[str], actual: str, source: str
) -> None:
    """Raise :class:`ModelError` when a stored fingerprint mismatches.

    Args:
        kind: what is being checked (``"catalog"`` / ``"system"``).
        expected: the fingerprint recorded in the artifact (None = the
            artifact predates fingerprinting; refuse, it is unverifiable).
        actual: the fingerprint of the environment the caller supplied.
        source: artifact path, for the error message.
    """
    if expected is None:
        raise ModelError(
            f"artifact {source} records no {kind} fingerprint; "
            "it cannot be verified against this environment"
        )
    if expected != actual:
        raise ModelError(
            f"artifact {source} was trained against a different {kind} "
            f"(fingerprint {expected} != {actual}); predictions would be "
            "meaningless — retrain or load with the matching environment"
        )


def catalog_state(catalog: Catalog) -> dict:
    """What the optimizer reads of ``catalog``, per table: the row, page and
    row-byte counts and, per column in schema order, its name and kind, the
    distinct count, min/max, histogram and most common values.

    All of it goes to the manifest, histograms as lists: JSON round-trips
    a float exactly, and fifty more members would cost a load more than
    parsing their numbers does."""
    state = {}
    for name in catalog.table_names:
        stats = catalog.stats(name)
        state[name] = {
            "rows": stats.row_count,
            "pages": stats.page_count,
            "row_bytes": stats.row_bytes,
            "columns": [
                {
                    "name": column.name,
                    "kind": column.kind,
                    "distinct": column.n_distinct,
                    "min": column.min_value,
                    "max": column.max_value,
                    "histogram": (
                        None if column.histogram is None
                        else column.histogram.tolist()
                    ),
                    "most_common": column.most_common,
                }
                for column in stats.columns.values()
            ],
        }
    return state


def _count(state: dict, name: str) -> int:
    value = state[name]
    if type(value) is not int or value < 0:
        raise ModelError(f"catalog statistic {name!r} is {value!r}, not a count")
    return value


def _finite(value: Any, name: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ModelError(f"catalog statistic {name!r} is {value!r}, not finite")
    return number


def statistics_catalog(state: dict) -> Catalog:
    """The statistics-only :class:`Catalog` whose :func:`catalog_state` is
    ``state``; a count, number or histogram no statistics collection
    yields is a :class:`ModelError`."""
    stats = {}
    for name, table in state.items():
        columns = {}
        for entry in table["columns"]:
            low, high = (
                None if entry[key] is None else _finite(entry[key], key)
                for key in ("min", "max")
            )
            columns[entry["name"]] = ColumnStats(
                entry["name"],
                entry["kind"],
                n_distinct=_count(entry, "distinct"),
                min_value=low,
                max_value=high,
                histogram=(
                    None if entry["histogram"] is None
                    else checked_array(entry, "histogram", HISTOGRAM_BUCKETS + 1)
                ),
                most_common=tuple(
                    (str(value), _finite(share, "most_common"))
                    for value, share in entry["most_common"]
                ),
            )
        stats[name] = TableStats(
            name,
            row_count=_count(table, "rows"),
            row_bytes=_count(table, "row_bytes"),
            page_count=_count(table, "pages"),
            columns=columns,
        )
    return Catalog.from_statistics(stats)
