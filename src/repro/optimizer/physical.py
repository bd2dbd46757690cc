"""Helpers for turning an AST into physical-plan building blocks.

This module hosts the mechanical pieces of planning: splitting WHERE
clauses into conjuncts, classifying conjuncts (selections vs. join edges
vs. subqueries vs. theta residuals), qualifying column names against the
query's bindings, and rewriting aggregate expressions into references to
group-by output columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import OptimizerError
from repro.optimizer.joinorder import JoinEdge
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    Query,
    SelectItem,
    UnaryOp,
    walk,
)
from repro.engine.plan import AggregateSpec
from repro.storage.catalog import Catalog

__all__ = [
    "split_conjuncts",
    "conjoin",
    "BindingMap",
    "ClassifiedConjuncts",
    "classify_conjuncts",
    "SubqueryPredicate",
    "AggregateRewrite",
    "rewrite_aggregates",
]


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a predicate tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[Expr]) -> Optional[Expr]:
    """AND conjuncts back together (inverse of :func:`split_conjuncts`)."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp("AND", result, conjunct)
    return result


class BindingMap:
    """Resolution of query bindings to catalog tables and columns."""

    def __init__(self, query: Query, catalog: Catalog) -> None:
        self._tables: dict[str, str] = {}
        for ref in query.tables:
            if ref.binding in self._tables:
                raise OptimizerError(f"duplicate binding {ref.binding!r}")
            if ref.name not in catalog:
                raise OptimizerError(f"unknown table {ref.name!r}")
            self._tables[ref.binding] = ref.name
        self._catalog = catalog

    @property
    def bindings(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def table_name(self, binding: str) -> str:
        try:
            return self._tables[binding]
        except KeyError:
            raise OptimizerError(f"unknown binding {binding!r}") from None

    def __contains__(self, binding: str) -> bool:
        return binding in self._tables

    def qualify(self, ref: ColumnRef) -> ColumnRef:
        """Return ``ref`` with an explicit table binding attached.

        Bare column names are resolved by searching the schemas of all
        bound tables; ambiguity or absence is an error.
        """
        if ref.table is not None:
            if ref.table not in self._tables:
                raise OptimizerError(f"unknown binding {ref.table!r}")
            schema = self._catalog.schema(self._tables[ref.table])
            if ref.name not in schema:
                raise OptimizerError(
                    f"unknown column {ref.name!r} in table "
                    f"{self._tables[ref.table]!r}"
                )
            return ref
        owners = [
            binding
            for binding, table_name in self._tables.items()
            if ref.name in self._catalog.schema(table_name)
        ]
        if len(owners) == 1:
            return ColumnRef(ref.name, table=owners[0])
        if not owners:
            raise OptimizerError(f"unknown column {ref.name!r}")
        raise OptimizerError(f"ambiguous column {ref.name!r}: {sorted(owners)}")

    def qualify_expr(self, expr: Expr) -> Expr:
        """Recursively qualify every column reference in ``expr``."""
        return _transform(expr, self._qualify_node)

    def _qualify_node(self, expr: Expr) -> Expr:
        if isinstance(expr, ColumnRef):
            return self.qualify(expr)
        return expr

    def bindings_of(self, expr: Expr) -> frozenset[str]:
        """Bindings referenced by ``expr`` (assumes it was qualified)."""
        found = set()
        for node in walk(expr):
            if isinstance(node, ColumnRef) and node.table in self._tables:
                found.add(node.table)
        return frozenset(found)


def _transform(expr: Expr, fn) -> Expr:
    """Apply ``fn`` to every node of ``expr``, bottom-up.

    A node is rebuilt only when one of its children changed; otherwise
    ``fn`` gets the node it was given, so an expression ``fn`` leaves
    alone comes back as the same object.
    """
    if isinstance(expr, (ColumnRef, Literal)):
        return fn(expr)
    if isinstance(expr, BinaryOp):
        left = _transform(expr.left, fn)
        right = _transform(expr.right, fn)
        if left is not expr.left or right is not expr.right:
            expr = BinaryOp(expr.op, left, right)
    elif isinstance(expr, FuncCall):
        args = _transform_all(expr.args, fn)
        if args is not expr.args:
            expr = FuncCall(expr.name, args, expr.distinct)
    elif isinstance(expr, UnaryOp):
        operand = _transform(expr.operand, fn)
        if operand is not expr.operand:
            expr = UnaryOp(expr.op, operand)
    elif isinstance(expr, Between):
        inner = _transform(expr.expr, fn)
        low = _transform(expr.low, fn)
        high = _transform(expr.high, fn)
        if inner is not expr.expr or low is not expr.low or high is not expr.high:
            expr = Between(inner, low, high, expr.negated)
    elif isinstance(expr, InList):
        inner = _transform(expr.expr, fn)
        values = _transform_all(expr.values, fn)
        if inner is not expr.expr or values is not expr.values:
            expr = InList(inner, values, expr.negated)
    elif isinstance(expr, InSubquery):
        inner = _transform(expr.expr, fn)
        if inner is not expr.expr:
            expr = InSubquery(inner, expr.query, expr.negated)
    elif isinstance(expr, IsNull):
        inner = _transform(expr.expr, fn)
        if inner is not expr.expr:
            expr = IsNull(inner, expr.negated)
    elif isinstance(expr, Like):
        inner = _transform(expr.expr, fn)
        if inner is not expr.expr:
            expr = Like(inner, expr.pattern, expr.negated)
    elif isinstance(expr, CaseWhen):
        branches = tuple(
            [
                (_transform(cond, fn), _transform(value, fn))
                for cond, value in expr.branches
            ]
        )
        default = (
            _transform(expr.default, fn) if expr.default is not None else None
        )
        if default is not expr.default or any(
            cond is not old_cond or value is not old_value
            for (cond, value), (old_cond, old_value) in zip(branches, expr.branches)
        ):
            expr = CaseWhen(branches, default)
    return fn(expr)


def _transform_all(exprs: tuple[Expr, ...], fn) -> tuple[Expr, ...]:
    """``_transform`` each of ``exprs``; the same tuple when none changed."""
    rebuilt = tuple([_transform(expr, fn) for expr in exprs])
    for new, old in zip(rebuilt, exprs):
        if new is not old:
            return rebuilt
    return exprs


@dataclass(frozen=True)
class SubqueryPredicate:
    """A subquery conjunct to be planned as a semi/anti join.

    Attributes:
        outer_column: qualified outer column compared by IN (None for
            EXISTS, whose pairs come from correlation predicates).
        query: the subquery block (correlation conjuncts still inside for
            EXISTS; the planner extracts them).
        negated: True for NOT IN / NOT EXISTS.
        kind: ``"in"`` or ``"exists"``.
    """

    kind: str
    query: Query
    outer_column: Optional[ColumnRef] = None
    negated: bool = False


@dataclass
class ClassifiedConjuncts:
    """WHERE conjuncts sorted into planner categories."""

    selections: dict[str, list[Expr]] = field(default_factory=dict)
    join_edges: list[JoinEdge] = field(default_factory=list)
    theta: list[tuple[frozenset[str], Expr]] = field(default_factory=list)
    subqueries: list[SubqueryPredicate] = field(default_factory=list)
    residual: list[Expr] = field(default_factory=list)


def classify_conjuncts(
    conjuncts: list[Expr], bindings: BindingMap
) -> ClassifiedConjuncts:
    """Classify qualified conjuncts into selections / joins / subqueries.

    * single-binding predicates become per-relation selections,
    * ``a.x = b.y`` between different bindings becomes a join edge,
    * other two-binding predicates become theta-join residuals,
    * IN-subquery / EXISTS become :class:`SubqueryPredicate`,
    * anything touching three or more bindings is a late residual filter.
    """
    result = ClassifiedConjuncts()
    for conjunct in conjuncts:
        negated = False
        inner = conjunct
        if isinstance(inner, UnaryOp) and inner.op.upper() == "NOT":
            if isinstance(inner.operand, (InSubquery, Exists)):
                negated = True
                inner = inner.operand
        if isinstance(inner, InSubquery):
            if not isinstance(inner.expr, ColumnRef):
                raise OptimizerError("IN subquery requires a column on the left")
            result.subqueries.append(
                SubqueryPredicate(
                    kind="in",
                    query=inner.query,
                    outer_column=inner.expr,
                    negated=inner.negated or negated,
                )
            )
            continue
        if isinstance(inner, Exists):
            result.subqueries.append(
                SubqueryPredicate(
                    kind="exists",
                    query=inner.query,
                    negated=inner.negated or negated,
                )
            )
            continue
        touched = bindings.bindings_of(conjunct)
        if len(touched) <= 1:
            binding = next(iter(touched), bindings.bindings[0])
            result.selections.setdefault(binding, []).append(conjunct)
            continue
        if len(touched) == 2:
            edge = _as_join_edge(conjunct)
            if edge is not None:
                result.join_edges.append(edge)
            else:
                result.theta.append((touched, conjunct))
            continue
        result.residual.append(conjunct)
    return result


def _as_join_edge(conjunct: Expr) -> Optional[JoinEdge]:
    """Recognise ``a.x = b.y`` equality between two bindings."""
    if not (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return None
    left, right = conjunct.left, conjunct.right
    if left.table is None or right.table is None or left.table == right.table:
        return None
    return JoinEdge(
        left_binding=left.table,
        right_binding=right.table,
        left_column=left.to_sql(),
        right_column=right.to_sql(),
    )


@dataclass
class AggregateRewrite:
    """Result of extracting aggregates from select/having expressions.

    Attributes:
        select: select items with aggregate calls replaced by column
            references to aggregate output aliases.
        having: rewritten HAVING predicate (or None).
        aggregates: the extracted aggregate specs, deduplicated.
        has_aggregates: True when any aggregate was found.
    """

    select: tuple[SelectItem, ...]
    having: Optional[Expr]
    aggregates: tuple[AggregateSpec, ...]
    has_aggregates: bool


def rewrite_aggregates(
    select: tuple[SelectItem, ...], having: Optional[Expr]
) -> AggregateRewrite:
    """Extract aggregate calls and rewrite expressions to reference them.

    Identical aggregate calls are computed once.  ``COUNT(*)`` gets the
    alias ``count_star``; other aggregates get ``<func>_<n>`` unless the
    whole select item *is* the aggregate and carries an alias, in which
    case that alias is reused so downstream ORDER BY references line up.
    """
    specs: dict[FuncCall, AggregateSpec] = {}

    def alias_for(call: FuncCall, preferred: Optional[str]) -> str:
        existing = specs.get(call)
        if existing is not None:
            return existing.alias
        is_count_star = call.name.lower() == "count" and (
            not call.args or call.args[0].to_sql() == "*"
        )
        if preferred:
            alias = preferred
        elif is_count_star:
            alias = "count_star" if not specs else f"count_star_{len(specs)}"
        else:
            alias = f"{call.name.lower()}_{len(specs)}"
        taken = {spec.alias for spec in specs.values()}
        while alias in taken:
            alias = f"{alias}_x"
        expr = None
        if call.args and call.args[0].to_sql() != "*":
            expr = call.args[0]
        specs[call] = AggregateSpec(
            func=call.name.lower(), expr=expr, alias=alias, distinct=call.distinct
        )
        return alias

    def rewrite(expr: Expr, preferred: Optional[str] = None) -> Expr:
        if isinstance(expr, FuncCall) and expr.is_aggregate:
            return ColumnRef(alias_for(expr, preferred))
        return _transform(expr, lambda node: _replace_aggregate(node, alias_for))

    new_select = []
    for item in select:
        if isinstance(item.expr, FuncCall) and item.expr.is_aggregate:
            alias = alias_for(item.expr, item.alias)
            new_select.append(SelectItem(ColumnRef(alias), item.alias or alias))
        else:
            new_select.append(SelectItem(rewrite(item.expr), item.alias))
    new_having = rewrite(having) if having is not None else None
    return AggregateRewrite(
        select=tuple(new_select),
        having=new_having,
        aggregates=tuple(specs.values()),
        has_aggregates=bool(specs),
    )


def _replace_aggregate(node: Expr, alias_for) -> Expr:
    if isinstance(node, FuncCall) and node.is_aggregate:
        return ColumnRef(alias_for(node, None))
    return node
