"""Cardinality estimation for scans, joins and aggregations.

A :class:`RelEstimate` summarises what the optimizer believes about an
intermediate relation: row count, row width and per-column distinct-value
counts.  Joins use the classic ``|L||R| / max(ndv_L, ndv_R)`` rule;
distinct counts propagate with capping, and group-by outputs cap the
distinct-product at a fraction of the input.  All textbook — and therefore
wrong in all the familiar, realistic ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.storage.catalog import TableStats

__all__ = ["RelEstimate", "scan_estimate", "join_estimate", "semi_join_estimate",
           "group_by_estimate"]

MIN_ROWS = 1.0


@dataclass
class RelEstimate:
    """Optimizer's belief about one (intermediate) relation.

    Attributes:
        rows: estimated row count.
        row_bytes: estimated width of one row in bytes.
        ndv: estimated distinct-value count per qualified column name.
        bindings: table bindings whose columns this relation carries.
    """

    rows: float
    row_bytes: float
    ndv: dict[str, float] = field(default_factory=dict)
    bindings: frozenset[str] = frozenset()

    @property
    def total_bytes(self) -> float:
        return self.rows * self.row_bytes

    def ndv_of(self, column: str) -> float:
        """Distinct count of ``column``, defaulting to a tenth of the rows."""
        value = self.ndv.get(column)
        if value is None:
            return max(self.rows / 10.0, 1.0)
        return max(min(value, self.rows), 1.0)


def scan_estimate(
    binding: str,
    table_stats: TableStats,
    selectivity: float,
) -> RelEstimate:
    """Estimate for a filtered scan of a base table."""
    rows = max(table_stats.row_count * selectivity, MIN_ROWS)
    ndv = {}
    for name, col in table_stats.columns.items():
        scaled = min(float(col.n_distinct), rows)
        ndv[f"{binding}.{name}"] = max(scaled, 1.0)
    return RelEstimate(
        rows=rows,
        row_bytes=float(table_stats.row_bytes),
        ndv=ndv,
        bindings=frozenset({binding}),
    )


def join_estimate(
    left: RelEstimate,
    right: RelEstimate,
    join_pairs: Sequence[tuple[str, str]],
) -> RelEstimate:
    """Inner-join estimate.

    With no equi pairs this is a cross product.  With pairs, each pair
    contributes selectivity ``1 / max(ndv_left, ndv_right)`` under
    independence.
    """
    rows = left.rows * right.rows
    for left_col, right_col in join_pairs:
        denominator = max(left.ndv_of(left_col), right.ndv_of(right_col))
        rows /= max(denominator, 1.0)
    rows = max(rows, MIN_ROWS)
    ndv = {}
    for column, value in {**left.ndv, **right.ndv}.items():
        ndv[column] = max(min(value, rows), 1.0)
    return RelEstimate(
        rows=rows,
        row_bytes=left.row_bytes + right.row_bytes,
        ndv=ndv,
        bindings=left.bindings | right.bindings,
    )


def semi_join_estimate(
    left: RelEstimate,
    right: RelEstimate,
    join_pairs: Sequence[tuple[str, str]],
) -> RelEstimate:
    """Semi-join estimate: left rows whose key appears on the right."""
    fraction = 1.0
    for left_col, right_col in join_pairs:
        fraction *= min(right.ndv_of(right_col) / left.ndv_of(left_col), 1.0)
    rows = max(left.rows * fraction, MIN_ROWS)
    ndv = {col: max(min(v, rows), 1.0) for col, v in left.ndv.items()}
    return RelEstimate(
        rows=rows, row_bytes=left.row_bytes, ndv=ndv, bindings=left.bindings
    )


def group_by_estimate(
    child: RelEstimate, group_keys: Sequence[str], out_row_bytes: float
) -> RelEstimate:
    """Group-by output estimate: capped product of key distinct counts."""
    groups = 1.0
    for key in group_keys:
        groups *= child.ndv_of(key)
        if groups > child.rows:
            break
    rows = max(min(groups, child.rows / 2.0, 1e12), MIN_ROWS)
    ndv = {key: min(child.ndv_of(key), rows) for key in group_keys}
    return RelEstimate(
        rows=rows, row_bytes=out_row_bytes, ndv=ndv, bindings=child.bindings
    )
