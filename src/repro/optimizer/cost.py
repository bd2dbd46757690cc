"""Abstract optimizer cost model.

Produces the kind of unitless cost number a commercial optimizer reports:
a weighted blend of estimated page reads, per-row CPU work and message
traffic, computed from *estimated* cardinalities.  The units deliberately
do not map onto seconds, and the inputs are estimates rather than actuals
— the two reasons the paper gives for optimizer cost being a poor runtime
predictor (Section VII-C.1, Figure 17).
"""

from __future__ import annotations

import math

from repro.engine.plan import OperatorKind, PlanNode
from repro.storage.catalog import Catalog

__all__ = ["plan_cost", "node_cost"]

# Weights, in the spirit of System R: I/O dominates, CPU per-row is cheap.
_IO_WEIGHT = 1.0
_CPU_ROW_WEIGHT = 0.01
_CPU_COMPARE_WEIGHT = 0.0002
_MESSAGE_ROW_WEIGHT = 0.002

_EXCHANGE_MULTIPLIER = {"broadcast": 4.0, "repartition": 1.0, "collect": 0.5}
_SEMI_JOINS = (OperatorKind.SEMI_JOIN, OperatorKind.ANTI_JOIN)
_GROUPING = (
    OperatorKind.HASH_GROUPBY,
    OperatorKind.SORT_GROUPBY,
    OperatorKind.DISTINCT,
)
_ROW_PASSES = (OperatorKind.FILTER, OperatorKind.PROJECT, OperatorKind.ROOT)


def plan_cost(plan: PlanNode, catalog: Catalog) -> float:
    """Total abstract cost of ``plan`` (sum over all operators)."""
    return sum([node_cost(node, catalog) for node in plan.walk()])


def node_cost(node: PlanNode, catalog: Catalog) -> float:
    """Abstract cost contribution of a single operator."""
    kind = node.kind
    out_rows = max(node.estimated_rows, 1.0)
    children = node.children
    if not children:
        in_rows = out_rows
    elif len(children) == 1:
        in_rows = max(children[0].estimated_rows, 1.0)
    else:
        in_rows = sum([max(c.estimated_rows, 1.0) for c in children])

    # The kinds are tested in the order of how often plans contain them.
    if kind == OperatorKind.EXCHANGE:
        multiplier = _EXCHANGE_MULTIPLIER.get(
            node.exchange_kind or "repartition", 1.0
        )
        return _MESSAGE_ROW_WEIGHT * in_rows * multiplier
    if kind == OperatorKind.FILE_SCAN:
        stats = catalog.stats(node.table_name) if node.table_name else None
        pages = stats.page_count if stats else 1
        table_rows = stats.row_count if stats else out_rows
        return _IO_WEIGHT * pages + _CPU_ROW_WEIGHT * table_rows
    if kind in _ROW_PASSES:
        return _CPU_ROW_WEIGHT * 0.25 * in_rows
    if kind == OperatorKind.HASH_JOIN:
        build = max(node.right.estimated_rows, 1.0)
        probe = max(node.left.estimated_rows, 1.0)
        return _CPU_ROW_WEIGHT * (2.0 * build + probe + 0.5 * out_rows)
    if kind in _GROUPING:
        return _CPU_ROW_WEIGHT * (1.5 * in_rows + 0.5 * out_rows)
    if kind == OperatorKind.SCALAR_AGGREGATE:
        return _CPU_ROW_WEIGHT * in_rows
    if kind == OperatorKind.TOP_N:
        limit = max(node.limit or 1, 2)
        return _CPU_COMPARE_WEIGHT * in_rows * math.log2(limit)
    if kind == OperatorKind.SORT:
        return _CPU_COMPARE_WEIGHT * in_rows * max(math.log2(in_rows), 1.0) * 10.0
    if kind == OperatorKind.NESTED_JOIN:
        outer = max(node.left.estimated_rows, 1.0)
        inner = max(node.right.estimated_rows, 1.0)
        return _CPU_COMPARE_WEIGHT * outer * inner + _CPU_ROW_WEIGHT * out_rows
    if kind in _SEMI_JOINS:
        build = max(node.right.estimated_rows, 1.0)
        probe = max(node.left.estimated_rows, 1.0)
        return _CPU_ROW_WEIGHT * (2.0 * build + probe)
    return _CPU_ROW_WEIGHT * in_rows
