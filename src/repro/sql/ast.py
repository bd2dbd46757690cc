"""Abstract syntax tree for the SQL subset.

Nodes are frozen dataclasses so they can be hashed, compared, and reused
as dictionary keys.  Each node knows how to render itself back to SQL via
:meth:`to_sql`, which is used by tests (parse/print round trips) and by the
workload generators to materialise query text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

__all__ = [
    "Expr",
    "Star",
    "Literal",
    "ColumnRef",
    "UnaryOp",
    "BinaryOp",
    "FuncCall",
    "Between",
    "InList",
    "InSubquery",
    "Exists",
    "IsNull",
    "Like",
    "CaseWhen",
    "SelectItem",
    "TableRef",
    "OrderItem",
    "Query",
    "AGGREGATE_FUNCTIONS",
    "COMPARISON_OPS",
    "walk",
]

#: Aggregate function names recognised by the parser and executor.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})

#: Binary comparison operators.
COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})


class Expr:
    """Base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (not descending into subqueries)."""
        return ()


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list or ``COUNT(*)``."""

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric, string, boolean or NULL literal."""

    value: Union[int, float, str, bool, None]

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: Optional[str] = None

    def to_sql(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operator: ``NOT expr`` or ``-expr``."""

    op: str
    operand: Expr

    def to_sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.to_sql()})"
        return f"{self.op}{self.operand.to_sql()}"

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Binary operator: arithmetic, comparison, AND/OR."""

    op: str
    left: Expr
    right: Expr

    def to_sql(self) -> str:
        op = self.op.upper() if self.op.upper() in ("AND", "OR") else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPS


@dataclass(frozen=True)
class FuncCall(Expr):
    """A function call; aggregates are the common case."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"

    def children(self) -> tuple[Expr, ...]:
        return self.args

    @property
    def is_aggregate(self) -> bool:
        return self.name.lower() in AGGREGATE_FUNCTIONS


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return (
            f"({self.expr.to_sql()} {maybe_not}BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.expr, self.low, self.high)


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: Expr
    values: tuple[Expr, ...]
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        inner = ", ".join(v.to_sql() for v in self.values)
        return f"({self.expr.to_sql()} {maybe_not}IN ({inner}))"

    def children(self) -> tuple[Expr, ...]:
        return (self.expr, *self.values)


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Expr
    query: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {maybe_not}IN ({self.query.to_sql()}))"

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Query"
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({maybe_not}EXISTS ({self.query.to_sql()}))"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} IS {maybe_not}NULL)"

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE 'pattern'``."""

    expr: Expr
    pattern: str
    negated: bool = False

    def to_sql(self) -> str:
        maybe_not = "NOT " if self.negated else ""
        escaped = self.pattern.replace("'", "''")
        return f"({self.expr.to_sql()} {maybe_not}LIKE '{escaped}')"

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``."""

    branches: tuple[tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def to_sql(self) -> str:
        parts = ["CASE"]
        for cond, value in self.branches:
            parts.append(f"WHEN {cond.to_sql()} THEN {value.to_sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.to_sql()}")
        parts.append("END")
        return " ".join(parts)

    def children(self) -> tuple[Expr, ...]:
        kids: list[Expr] = []
        for cond, value in self.branches:
            kids.extend((cond, value))
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)


@dataclass(frozen=True)
class SelectItem:
    """One item of the select list."""

    expr: Expr
    alias: Optional[str] = None

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.expr.to_sql()} AS {self.alias}"
        return self.expr.to_sql()


@dataclass(frozen=True)
class TableRef:
    """A base-table reference in the FROM clause."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is known by in the rest of the query."""
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    descending: bool = False

    def to_sql(self) -> str:
        suffix = " DESC" if self.descending else ""
        return f"{self.expr.to_sql()}{suffix}"


@dataclass(frozen=True)
class Query:
    """A single SELECT block.

    Explicit ``JOIN ... ON`` syntax is desugared by the parser into the
    ``tables`` list plus conjuncts in ``where``, so the optimizer only ever
    sees the canonical form.
    """

    select: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.to_sql() for item in self.select))
        parts.append("FROM")
        parts.append(", ".join(t.to_sql() for t in self.tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.to_sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)

    @property
    def has_aggregates(self) -> bool:
        """True when the select list or HAVING clause uses an aggregate."""
        exprs: list[Expr] = [item.expr for item in self.select]
        if self.having is not None:
            exprs.append(self.having)
        return any(
            isinstance(node, FuncCall) and node.is_aggregate
            for expr in exprs
            for node in walk(expr)
        )


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and all sub-expressions, depth first.

    Subquery bodies are *not* entered; callers interested in nested query
    blocks should recurse on :class:`InSubquery` / :class:`Exists` nodes
    explicitly.
    """
    # One generator for the whole tree, like ``PlanNode.walk``: follow
    # first children directly, park the others on a stack.
    node = expr
    pending: list[Expr] = []
    while True:
        yield node
        children = node.children()
        if children:
            node = children[0]
            if len(children) > 1:
                pending.extend(children[:0:-1])
        elif pending:
            node = pending.pop()
        else:
            return
