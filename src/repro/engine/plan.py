"""Physical plan trees.

A plan is a tree of :class:`PlanNode` objects, each tagged with an
:class:`OperatorKind` and the operator-specific details the executor needs
(table names, join keys, aggregate specs, ...).  Every node carries the
optimizer's *estimated* output cardinality; the paper's query plan feature
vector (Figure 9) is built from exactly these two ingredients — operator
instance counts and estimated-cardinality sums per operator kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import PlanError
from repro.sql.ast import Expr, SelectItem

__all__ = ["OperatorKind", "AggregateSpec", "PlanNode"]


class OperatorKind(str, enum.Enum):
    """Physical operator vocabulary of the simulated engine.

    The names follow the Neoview-style plan in the paper's Figure 9
    (``file_scan``, ``nested_join``, ``sort``, ``exchange`` ...).
    """

    ROOT = "root"
    EXCHANGE = "exchange"
    FILE_SCAN = "file_scan"
    HASH_JOIN = "hash_join"
    MERGE_JOIN = "merge_join"
    NESTED_JOIN = "nested_join"
    SEMI_JOIN = "semi_join"
    ANTI_JOIN = "anti_join"
    SORT = "sort"
    HASH_GROUPBY = "hash_groupby"
    SORT_GROUPBY = "sort_groupby"
    SCALAR_AGGREGATE = "scalar_aggregate"
    DISTINCT = "distinct"
    FILTER = "filter"
    PROJECT = "project"
    TOP_N = "top_n"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Operator kinds that join two inputs.
JOIN_KINDS = frozenset(
    {
        OperatorKind.HASH_JOIN,
        OperatorKind.MERGE_JOIN,
        OperatorKind.NESTED_JOIN,
        OperatorKind.SEMI_JOIN,
        OperatorKind.ANTI_JOIN,
    }
)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computed by a group-by / scalar-aggregate operator.

    Attributes:
        func: one of ``count``, ``sum``, ``avg``, ``min``, ``max``.
        expr: argument expression; None for ``COUNT(*)``.
        alias: output column name.
        distinct: True for ``COUNT(DISTINCT expr)`` etc.
    """

    func: str
    expr: Optional[Expr]
    alias: str
    distinct: bool = False


@dataclass
class PlanNode:
    """One operator in a physical plan tree.

    Only the fields relevant to ``kind`` are populated; see the executor
    for the exact contract per operator.  ``estimated_rows`` is the
    optimizer's compile-time cardinality estimate for this node's output
    and is the quantity summed into the plan feature vector.
    """

    kind: OperatorKind
    children: tuple["PlanNode", ...] = ()
    estimated_rows: float = 0.0
    estimated_row_bytes: float = 0.0

    # file_scan
    table_name: Optional[str] = None
    binding: Optional[str] = None
    predicate: Optional[Expr] = None
    #: columns the scan must materialise (None = all columns).
    scan_columns: Optional[tuple[str, ...]] = None
    #: columns the scan emits after filtering (None = same as scan_columns).
    #: Lets predicate-only columns be dropped before wide joins.
    output_columns: Optional[tuple[str, ...]] = None

    # joins
    join_pairs: tuple[tuple[str, str], ...] = ()
    residual: Optional[Expr] = None

    # sort / top_n
    sort_keys: tuple[tuple[str, bool], ...] = ()
    limit: Optional[int] = None

    # group-by / aggregation
    group_keys: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()

    # project
    items: tuple[SelectItem, ...] = ()

    # exchange
    exchange_kind: Optional[str] = None
    exchange_keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        expected = _ARITY.get(self.kind)
        if expected is not None and len(self.children) != expected:
            raise PlanError(
                f"{self.kind.value} expects {expected} children, "
                f"got {len(self.children)}"
            )

    # ------------------------------------------------------------------

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, pre-order."""
        # One generator for the whole tree (a recursive one is resumed
        # once per level for every node): follow first children directly
        # and park the other children on a stack.
        node = self
        pending: list[PlanNode] = []
        while True:
            yield node
            children = node.children
            if children:
                node = children[0]
                if len(children) > 1:
                    pending.extend(children[:0:-1])
            elif pending:
                node = pending.pop()
            else:
                return

    @property
    def child(self) -> "PlanNode":
        """The only child (unary operators)."""
        if len(self.children) != 1:
            raise PlanError(f"{self.kind.value} is not a unary operator")
        return self.children[0]

    @property
    def left(self) -> "PlanNode":
        if len(self.children) != 2:
            raise PlanError(f"{self.kind.value} is not a binary operator")
        return self.children[0]

    @property
    def right(self) -> "PlanNode":
        if len(self.children) != 2:
            raise PlanError(f"{self.kind.value} is not a binary operator")
        return self.children[1]

    def operator_counts(self) -> dict[str, int]:
        """Instance count per operator kind in this subtree."""
        counts: dict[str, int] = {}
        for node in self.walk():
            counts[node.kind.value] = counts.get(node.kind.value, 0) + 1
        return counts

    def cardinality_sums(self) -> dict[str, float]:
        """Estimated-cardinality sum per operator kind in this subtree."""
        sums: dict[str, float] = {}
        for node in self.walk():
            sums[node.kind.value] = sums.get(node.kind.value, 0.0) + float(
                node.estimated_rows
            )
        return sums

    def pretty(self, indent: int = 0) -> str:
        """Multi-line, indented rendering of the plan (for debugging)."""
        pad = "  " * indent
        detail = self._detail_string()
        lines = [f"{pad}{self.kind.value}{detail}  [est={self.estimated_rows:.0f}]"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def _detail_string(self) -> str:
        if self.kind == OperatorKind.FILE_SCAN:
            return f" [{self.table_name} as {self.binding}]"
        if self.kind in JOIN_KINDS and self.join_pairs:
            pairs = ", ".join(f"{a}={b}" for a, b in self.join_pairs)
            return f" ({pairs})"
        if self.kind == OperatorKind.EXCHANGE:
            return f" ({self.exchange_kind})"
        if self.kind in (OperatorKind.HASH_GROUPBY, OperatorKind.SORT_GROUPBY):
            return f" (by {', '.join(self.group_keys)})"
        return ""


#: Fixed child counts per operator kind (None = variadic, validated later).
_ARITY: dict[OperatorKind, int] = {
    OperatorKind.FILE_SCAN: 0,
    OperatorKind.HASH_JOIN: 2,
    OperatorKind.MERGE_JOIN: 2,
    OperatorKind.NESTED_JOIN: 2,
    OperatorKind.SEMI_JOIN: 2,
    OperatorKind.ANTI_JOIN: 2,
    OperatorKind.SORT: 1,
    OperatorKind.HASH_GROUPBY: 1,
    OperatorKind.SORT_GROUPBY: 1,
    OperatorKind.SCALAR_AGGREGATE: 1,
    OperatorKind.DISTINCT: 1,
    OperatorKind.FILTER: 1,
    OperatorKind.PROJECT: 1,
    OperatorKind.TOP_N: 1,
    OperatorKind.EXCHANGE: 1,
    OperatorKind.ROOT: 1,
}
