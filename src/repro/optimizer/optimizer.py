"""The query optimizer facade: AST in, annotated physical plan out.

Planning pipeline:

1. resolve bindings and qualify every column reference;
2. split WHERE into conjuncts and classify them (per-table selections,
   equi-join edges, theta residuals, subquery predicates);
3. estimate per-relation cardinalities from catalog statistics;
4. rewrite IN/EXISTS subqueries into semi/anti joins against recursively
   planned sub-blocks;
5. choose a left-deep join order (DP or greedy);
6. emit physical operators — hash joins by default, nested-loop joins for
   theta/cross joins, broadcast or repartition exchanges to align
   partitioning — then aggregation, HAVING, projection, DISTINCT,
   ORDER BY / LIMIT, and a final collect under the ROOT operator.

Every node carries the optimizer's estimated output cardinality; these
estimates (not the true counts) feed the paper's plan feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.findings import PlanWarning
from repro.analysis.planlint import lint_plan
from repro.engine.plan import OperatorKind, PlanNode
from repro.engine.system import SystemConfig
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.trace import span
from repro.resilience.deadline import check_deadline
from repro.resilience.faults import fault_site
from repro.optimizer.cardinality import (
    RelEstimate,
    group_by_estimate,
    join_estimate,
    scan_estimate,
    semi_join_estimate,
)
from repro.optimizer.cost import plan_cost
from repro.optimizer.joinorder import order_joins
from repro.optimizer.physical import (
    BindingMap,
    ClassifiedConjuncts,
    SubqueryPredicate,
    classify_conjuncts,
    conjoin,
    rewrite_aggregates,
    split_conjuncts,
)
from repro.optimizer.selectivity import predicate_selectivity
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    OrderItem,
    Query,
    SelectItem,
    Star,
)
from repro.sql.ast import walk as _walk_expr
from repro.sql.parser import parse
from repro.storage.catalog import Catalog

__all__ = ["Optimizer", "OptimizedQuery"]

#: Build sides estimated below this many bytes are broadcast instead of
#: repartitioned.
BROADCAST_BYTES = 1 * 1024 * 1024


@dataclass
class OptimizedQuery:
    """Output of the optimizer for one query.

    Attributes:
        plan: the physical plan, rooted at a ROOT operator.
        cost: the optimizer's abstract cost estimate (not seconds!).
        estimated_rows: estimated result cardinality.
        query: the qualified query AST.
        warnings: structural plan-lint warnings (Pack B; see
            docs/STATIC_ANALYSIS.md) — cartesian products, inconsistent
            cardinality estimates, broadcast byte blowups.
    """

    plan: PlanNode
    cost: float
    estimated_rows: float
    query: Query
    warnings: tuple[PlanWarning, ...] = ()


@dataclass
class _Sub:
    """A subplan with its estimate and partitioning key."""

    plan: PlanNode
    estimate: RelEstimate
    partition_key: Optional[str]


class Optimizer:
    """Plans queries against a catalog for one system configuration."""

    def __init__(self, catalog: Catalog, config: SystemConfig) -> None:
        self.catalog = catalog
        self.config = config

    # ------------------------------------------------------------------

    def optimize(self, query: Query | str, lint: bool = True) -> OptimizedQuery:
        """Plan ``query`` (AST or SQL text) into a physical plan.

        Args:
            query: the statement (AST or SQL text).
            lint: run the Pack-B plan lint on the compiled plan.

        Raises:
            OptimizerError: when no plan can be produced, including for a
                statement whose expressions nest deeper than the
                interpreter's stack.
        """
        with span("optimizer.optimize") as current:
            check_deadline("optimize")
            fault_site("optimizer.optimize")
            if isinstance(query, str):
                query = parse(query)
            try:
                plan, estimate, qualified = self._plan_block(
                    query, top_level=True
                )
                cost = plan_cost(plan, self.catalog)
                warnings = tuple(lint_plan(plan)) if lint else ()
            except RecursionError:
                # The expression walks recurse once per nesting level (a
                # chain of 1 000 ANDs is 1 000 deep): the sender's error.
                raise OptimizerError("statement nests too deeply") from None
            current.set(
                tables=len(qualified.tables),
                cost=float(cost),
                estimated_rows=float(estimate.rows),
            )
            if warnings:
                current.set(lint_warnings=len(warnings))
                if metrics_enabled():
                    get_registry().counter(
                        "repro_lint_warnings_total",
                        "plan-lint warnings attached to optimized plans",
                    ).inc(len(warnings))
            return OptimizedQuery(
                plan=plan,
                cost=cost,
                estimated_rows=estimate.rows,
                query=qualified,
                warnings=warnings,
            )

    def optimize_many(
        self, queries: Sequence[Query | str], lint: bool = True
    ) -> list[OptimizedQuery]:
        """Plan a batch of queries against the same catalog snapshot.

        The batch entry point behind ``predict_many``/``forecast_many``:
        all plans are produced against one consistent view of the catalog
        statistics, and callers get them in input order.  Each query is a
        cooperative cancellation point for the caller's deadline.
        """
        with span("optimizer.optimize_many", n=len(queries)):
            return [self.optimize(query, lint=lint) for query in queries]

    # ------------------------------------------------------------------
    # Block planning
    # ------------------------------------------------------------------

    def _plan_block(
        self,
        query: Query,
        top_level: bool,
        outer_bindings: Optional[BindingMap] = None,
    ) -> tuple[PlanNode, RelEstimate, Query]:
        bindings = BindingMap(query, self.catalog)
        qualified = self._qualify_query(query, bindings)
        conjuncts = split_conjuncts(qualified.where)
        classified = classify_conjuncts(conjuncts, bindings)
        stats = {
            binding: self.catalog.stats(bindings.table_name(binding))
            for binding in bindings.bindings
        }

        subquery_joins: list[tuple[list[tuple[str, str]], _Sub, bool]] = []
        for subquery in classified.subqueries:
            if subquery.kind == "in":
                pairs, sub = self._plan_in_subquery(subquery, bindings)
            else:
                pairs, sub = self._plan_exists_subquery(subquery, bindings)
            subquery_joins.append((pairs, sub, subquery.negated))

        downstream = self._needed_columns(
            qualified, bindings, classified, subquery_joins
        )

        subs: dict[str, _Sub] = {}
        for binding in bindings.bindings:
            selection = conjoin(classified.selections.get(binding, []))
            selectivity = (
                predicate_selectivity(selection, stats) if selection else 1.0
            )
            table_stats = stats[binding]
            estimate = scan_estimate(binding, table_stats, selectivity)
            scan_columns = None
            output_columns = None
            if downstream is not None:
                output_columns = tuple(sorted(downstream.get(binding, ())))
                predicate_cols: set[str] = set()
                if selection is not None:
                    for node in _walk_expr(selection):
                        if isinstance(node, ColumnRef) and node.table == binding:
                            predicate_cols.add(node.name)
                scan_columns = tuple(sorted(set(output_columns) | predicate_cols))
            scan = PlanNode(
                kind=OperatorKind.FILE_SCAN,
                table_name=bindings.table_name(binding),
                binding=binding,
                predicate=selection,
                scan_columns=scan_columns,
                output_columns=output_columns,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            schema = self.catalog.schema(bindings.table_name(binding))
            partition_key = f"{binding}.{schema.names[0]}"
            subs[binding] = _Sub(scan, estimate, partition_key)

        for pairs, sub, negated in subquery_joins:
            self._attach_semi_join(pairs, sub, negated, subs)

        relations = {binding: sub.estimate for binding, sub in subs.items()}
        order = order_joins(relations, classified.join_edges)
        current = subs[order[0]]
        done = {order[0]}
        for binding in order[1:]:
            current = self._join(
                current, subs[binding], done, binding, classified, stats
            )
            done.add(binding)

        for residual in classified.residual:
            selectivity = predicate_selectivity(residual, stats)
            estimate = RelEstimate(
                rows=max(current.estimate.rows * selectivity, 1.0),
                row_bytes=current.estimate.row_bytes,
                ndv=dict(current.estimate.ndv),
                bindings=current.estimate.bindings,
            )
            node = PlanNode(
                kind=OperatorKind.FILTER,
                children=(current.plan,),
                predicate=residual,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            current = _Sub(node, estimate, current.partition_key)

        return self._finish_block(qualified, current, stats, top_level)

    # ------------------------------------------------------------------

    def _qualify_query(self, query: Query, bindings: BindingMap) -> Query:
        select = tuple(
            item
            if isinstance(item.expr, Star)
            else SelectItem(bindings.qualify_expr(item.expr), item.alias)
            for item in query.select
        )
        where = bindings.qualify_expr(query.where) if query.where else None
        group_by = tuple(bindings.qualify_expr(e) for e in query.group_by)
        having = bindings.qualify_expr(query.having) if query.having else None
        order_by = tuple(
            OrderItem(self._qualify_order_expr(o.expr, select, bindings), o.descending)
            for o in query.order_by
        )
        return Query(
            select=select,
            tables=query.tables,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=query.limit,
            distinct=query.distinct,
        )

    def _qualify_order_expr(
        self,
        expr: Expr,
        select: tuple[SelectItem, ...],
        bindings: BindingMap,
    ) -> Expr:
        """Qualify an ORDER BY expression, honouring select-list aliases."""
        if isinstance(expr, ColumnRef) and expr.table is None:
            for item in select:
                if item.alias == expr.name:
                    return expr  # refers to the output column, keep bare
        return bindings.qualify_expr(expr)

    # ------------------------------------------------------------------
    # Subqueries
    # ------------------------------------------------------------------

    def _needed_columns(
        self,
        qualified: Query,
        bindings: BindingMap,
        classified: ClassifiedConjuncts,
        subquery_joins: list[tuple[list[tuple[str, str]], "_Sub", bool]],
    ) -> Optional[dict[str, set[str]]]:
        """Columns each binding must carry *past* its scan (None = all).

        Projection pushdown: a scan only emits columns referenced
        downstream of it — the select list, grouping/ordering, join keys,
        theta and residual predicates, and subquery semi-join keys.
        Columns used only in the scan's own selection predicate are read
        but dropped after filtering, which keeps wide fact-to-fact join
        intermediates narrow.
        """
        if any(isinstance(item.expr, Star) for item in qualified.select):
            return None
        needed: dict[str, set[str]] = {b: set() for b in bindings.bindings}

        def collect(expr: Optional[Expr]) -> None:
            if expr is None:
                return
            for node in _walk_expr(expr):
                if isinstance(node, ColumnRef) and node.table in needed:
                    needed[node.table].add(node.name)

        for item in qualified.select:
            collect(item.expr)
        for expr in qualified.group_by:
            collect(expr)
        collect(qualified.having)
        for order in qualified.order_by:
            collect(order.expr)
        for edge in classified.join_edges:
            for qualified_col in (edge.left_column, edge.right_column):
                binding, _, column = qualified_col.partition(".")
                if binding in needed:
                    needed[binding].add(column)
        for _touched, pred in classified.theta:
            collect(pred)
        for pred in classified.residual:
            collect(pred)
        for pairs, _sub, _negated in subquery_joins:
            for outer_col, _inner_col in pairs:
                binding, _, column = outer_col.partition(".")
                if binding in needed:
                    needed[binding].add(column)
        return needed

    def _attach_semi_join(
        self,
        pairs: list[tuple[str, str]],
        sub: "_Sub",
        negated: bool,
        subs: dict[str, _Sub],
    ) -> None:
        if not pairs:
            raise OptimizerError("subquery predicate has no join pairs")
        outer_binding = pairs[0][0].split(".", 1)[0]
        if any(p[0].split(".", 1)[0] != outer_binding for p in pairs):
            raise OptimizerError(
                "subquery correlation must reference a single outer table"
            )
        if outer_binding not in subs:
            raise OptimizerError(f"unknown outer binding {outer_binding!r}")
        target = subs[outer_binding]
        broadcast = PlanNode(
            kind=OperatorKind.EXCHANGE,
            children=(sub.plan,),
            exchange_kind="broadcast",
            estimated_rows=sub.estimate.rows,
            estimated_row_bytes=sub.estimate.row_bytes,
        )
        semi = semi_join_estimate(target.estimate, sub.estimate, pairs)
        if negated:
            rows = max(target.estimate.rows - semi.rows, 1.0)
            estimate = RelEstimate(
                rows=rows,
                row_bytes=target.estimate.row_bytes,
                ndv={c: min(v, rows) for c, v in target.estimate.ndv.items()},
                bindings=target.estimate.bindings,
            )
            kind = OperatorKind.ANTI_JOIN
        else:
            estimate = semi
            kind = OperatorKind.SEMI_JOIN
        node = PlanNode(
            kind=kind,
            children=(target.plan, broadcast),
            join_pairs=tuple(pairs),
            estimated_rows=estimate.rows,
            estimated_row_bytes=estimate.row_bytes,
        )
        subs[outer_binding] = _Sub(node, estimate, target.partition_key)

    def _plan_in_subquery(
        self, predicate: SubqueryPredicate, outer_bindings: BindingMap
    ) -> tuple[list[tuple[str, str]], _Sub]:
        assert predicate.outer_column is not None
        outer_col = outer_bindings.qualify(predicate.outer_column).to_sql()
        plan, estimate, qualified = self._plan_block(
            predicate.query, top_level=False
        )
        inner_col = self._subquery_output_column(qualified)
        sub = _Sub(plan, estimate, None)
        return [(outer_col, inner_col)], sub

    def _plan_exists_subquery(
        self, predicate: SubqueryPredicate, outer_bindings: BindingMap
    ) -> tuple[list[tuple[str, str]], _Sub]:
        inner_query = predicate.query
        inner_bindings = BindingMap(inner_query, self.catalog)
        pairs: list[tuple[str, str]] = []
        remaining: list[Expr] = []
        for conjunct in split_conjuncts(inner_query.where):
            pair = self._correlation_pair(conjunct, inner_bindings, outer_bindings)
            if pair is not None:
                pairs.append(pair)
            else:
                remaining.append(conjunct)
        if not pairs:
            raise OptimizerError(
                "EXISTS subqueries must be correlated through an equality"
            )
        # EXISTS only checks row presence; plan the decorrelated block as
        # SELECT * so the correlation columns survive for the semi join.
        decorrelated = Query(
            select=(SelectItem(Star()),),
            tables=inner_query.tables,
            where=conjoin(remaining),
            group_by=(),
            having=None,
            order_by=(),
            limit=None,
            distinct=False,
        )
        plan, estimate, _qualified = self._plan_block(decorrelated, top_level=False)
        return pairs, _Sub(plan, estimate, None)

    def _correlation_pair(
        self,
        conjunct: Expr,
        inner: BindingMap,
        outer: BindingMap,
    ) -> Optional[tuple[str, str]]:
        """Recognise ``inner.col = outer.col`` correlation equalities."""
        if not (
            isinstance(conjunct, BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            return None
        left, right = conjunct.left, conjunct.right

        def side_of(ref: ColumnRef) -> Optional[str]:
            if ref.table is not None:
                if ref.table in inner:
                    return "inner"
                if ref.table in outer:
                    return "outer"
                return None
            try:
                inner.qualify(ref)
                return "inner"
            except OptimizerError:
                try:
                    outer.qualify(ref)
                    return "outer"
                except OptimizerError:
                    return None

        sides = (side_of(left), side_of(right))
        if sides == ("inner", "outer"):
            inner_ref, outer_ref = left, right
        elif sides == ("outer", "inner"):
            inner_ref, outer_ref = right, left
        else:
            return None
        return (
            outer.qualify(outer_ref).to_sql(),
            inner.qualify(inner_ref).to_sql(),
        )

    def _subquery_output_column(self, qualified: Query) -> str:
        """Name of the column an IN-subquery's plan produces."""
        if len(qualified.select) != 1:
            raise OptimizerError("IN subqueries must select exactly one column")
        item = qualified.select[0]
        if isinstance(item.expr, ColumnRef):
            return item.expr.to_sql()
        if qualified.has_aggregates:
            # Aggregate outputs are projected under the rewritten alias.
            rewrite = rewrite_aggregates(qualified.select, None)
            rewritten = rewrite.select[0]
            return rewritten.alias or rewritten.expr.to_sql()
        raise OptimizerError(
            "IN subqueries must select a column or an aggregate"
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _join(
        self,
        current: _Sub,
        new: _Sub,
        done: set[str],
        new_binding: str,
        classified: ClassifiedConjuncts,
        stats: dict,
    ) -> _Sub:
        pairs = []
        for edge in classified.join_edges:
            if edge.touches(new_binding):
                other = (
                    edge.left_binding
                    if edge.right_binding == new_binding
                    else edge.right_binding
                )
                if other in done and other != new_binding:
                    new_col, done_col = edge.pair_for(new_binding)
                    pairs.append((done_col, new_col))
        theta_preds = [
            pred
            for touched, pred in classified.theta
            if new_binding in touched and (touched - {new_binding}) <= done
        ]
        estimate = join_estimate(current.estimate, new.estimate, pairs)
        for pred in theta_preds:
            estimate.rows = max(
                estimate.rows * predicate_selectivity(pred, stats), 1.0
            )
        residual = conjoin(theta_preds)

        if pairs:
            # Build on the smaller estimated side (it is hashed and, when
            # tiny, broadcast); probe with the larger side.
            if new.estimate.total_bytes <= current.estimate.total_bytes:
                probe, build = current, new
                oriented = pairs
            else:
                probe, build = new, current
                oriented = [(n, d) for d, n in pairs]
            left, right, partition_key = self._align_for_join(
                probe, build, oriented
            )
            node = PlanNode(
                kind=OperatorKind.HASH_JOIN,
                children=(left, right),
                join_pairs=tuple(oriented),
                residual=residual,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            return _Sub(node, estimate, partition_key)

        # Theta or cross join: broadcast the new side, nested-loop join.
        broadcast = PlanNode(
            kind=OperatorKind.EXCHANGE,
            children=(new.plan,),
            exchange_kind="broadcast",
            estimated_rows=new.estimate.rows,
            estimated_row_bytes=new.estimate.row_bytes,
        )
        node = PlanNode(
            kind=OperatorKind.NESTED_JOIN,
            children=(current.plan, broadcast),
            residual=residual,
            estimated_rows=estimate.rows,
            estimated_row_bytes=estimate.row_bytes,
        )
        return _Sub(node, estimate, current.partition_key)

    def _align_for_join(
        self, current: _Sub, new: _Sub, pairs: list[tuple[str, str]]
    ) -> tuple[PlanNode, PlanNode, Optional[str]]:
        """Insert exchanges so both join inputs are partitioned compatibly.

        Small build sides are broadcast; otherwise any side not already
        partitioned on its join key is repartitioned.  Returns the two
        child plans and the output partitioning key.
        """
        probe_key, build_key = pairs[0]
        left = current.plan
        right = new.plan
        if new.estimate.total_bytes <= BROADCAST_BYTES:
            right = PlanNode(
                kind=OperatorKind.EXCHANGE,
                children=(right,),
                exchange_kind="broadcast",
                estimated_rows=new.estimate.rows,
                estimated_row_bytes=new.estimate.row_bytes,
            )
            return left, right, current.partition_key
        if current.partition_key != probe_key:
            left = PlanNode(
                kind=OperatorKind.EXCHANGE,
                children=(left,),
                exchange_kind="repartition",
                exchange_keys=(probe_key,),
                estimated_rows=current.estimate.rows,
                estimated_row_bytes=current.estimate.row_bytes,
            )
        if new.partition_key != build_key:
            right = PlanNode(
                kind=OperatorKind.EXCHANGE,
                children=(right,),
                exchange_kind="repartition",
                exchange_keys=(build_key,),
                estimated_rows=new.estimate.rows,
                estimated_row_bytes=new.estimate.row_bytes,
            )
        return left, right, probe_key

    # ------------------------------------------------------------------
    # Aggregation / ordering / output
    # ------------------------------------------------------------------

    def _finish_block(
        self,
        qualified: Query,
        current: _Sub,
        stats: dict,
        top_level: bool,
    ) -> tuple[PlanNode, RelEstimate, Query]:
        rewrite = rewrite_aggregates(qualified.select, qualified.having)
        plan = current.plan
        estimate = current.estimate
        partition_key = current.partition_key
        is_star = len(qualified.select) == 1 and isinstance(
            qualified.select[0].expr, Star
        )

        group_keys: tuple[str, ...] = ()
        if qualified.group_by:
            group_keys = tuple(self._group_key_name(e) for e in qualified.group_by)
        if rewrite.has_aggregates and not group_keys and qualified.group_by:
            raise OptimizerError("grouped query without group keys")

        if group_keys:
            if partition_key not in group_keys:
                plan = PlanNode(
                    kind=OperatorKind.EXCHANGE,
                    children=(plan,),
                    exchange_kind="repartition",
                    exchange_keys=(group_keys[0],),
                    estimated_rows=estimate.rows,
                    estimated_row_bytes=estimate.row_bytes,
                )
                partition_key = group_keys[0]
            out_row_bytes = 12.0 * (len(group_keys) + len(rewrite.aggregates))
            grouped = group_by_estimate(estimate, group_keys, out_row_bytes)
            order_matches_groups = bool(qualified.order_by) and all(
                isinstance(o.expr, ColumnRef) and o.expr.to_sql() in group_keys
                for o in qualified.order_by
            )
            kind = (
                OperatorKind.SORT_GROUPBY
                if order_matches_groups
                else OperatorKind.HASH_GROUPBY
            )
            plan = PlanNode(
                kind=kind,
                children=(plan,),
                group_keys=group_keys,
                aggregates=rewrite.aggregates,
                estimated_rows=grouped.rows,
                estimated_row_bytes=grouped.row_bytes,
            )
            estimate = grouped
        elif rewrite.has_aggregates:
            plan = PlanNode(
                kind=OperatorKind.SCALAR_AGGREGATE,
                children=(plan,),
                aggregates=rewrite.aggregates,
                estimated_rows=1.0,
                estimated_row_bytes=8.0 * max(len(rewrite.aggregates), 1),
            )
            estimate = RelEstimate(
                rows=1.0,
                row_bytes=8.0 * max(len(rewrite.aggregates), 1),
                bindings=estimate.bindings,
            )

        if rewrite.having is not None:
            selectivity = predicate_selectivity(rewrite.having, {})
            rows = max(estimate.rows * selectivity, 1.0)
            plan = PlanNode(
                kind=OperatorKind.FILTER,
                children=(plan,),
                predicate=rewrite.having,
                estimated_rows=rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            estimate = RelEstimate(
                rows=rows,
                row_bytes=estimate.row_bytes,
                ndv=dict(estimate.ndv),
                bindings=estimate.bindings,
            )

        output_names: Optional[dict] = None
        if not is_star:
            plan = PlanNode(
                kind=OperatorKind.PROJECT,
                children=(plan,),
                items=rewrite.select,
                estimated_rows=estimate.rows,
                estimated_row_bytes=12.0 * len(rewrite.select),
            )
            estimate = RelEstimate(
                rows=estimate.rows,
                row_bytes=12.0 * len(rewrite.select),
                bindings=estimate.bindings,
            )
            output_names = {}
            for original, rewritten in zip(qualified.select, rewrite.select):
                name = rewritten.alias or rewritten.expr.to_sql()
                output_names[original.expr] = name
                if original.alias:
                    output_names[ColumnRef(original.alias)] = name

        if qualified.distinct:
            rows = max(estimate.rows * 0.8, 1.0)
            plan = PlanNode(
                kind=OperatorKind.DISTINCT,
                children=(plan,),
                estimated_rows=rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            estimate = RelEstimate(
                rows=rows, row_bytes=estimate.row_bytes, bindings=estimate.bindings
            )

        plan, estimate = self._order_and_limit(
            qualified, plan, estimate, output_names
        )

        if top_level:
            plan = PlanNode(
                kind=OperatorKind.EXCHANGE,
                children=(plan,),
                exchange_kind="collect",
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            plan = PlanNode(
                kind=OperatorKind.ROOT,
                children=(plan,),
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
        return plan, estimate, qualified

    def _group_key_name(self, expr: Expr) -> str:
        if not isinstance(expr, ColumnRef):
            raise OptimizerError("GROUP BY supports plain columns only")
        return expr.to_sql()

    def _order_and_limit(
        self,
        qualified: Query,
        plan: PlanNode,
        estimate: RelEstimate,
        output_names: Optional[dict],
    ) -> tuple[PlanNode, RelEstimate]:
        sort_keys: tuple[tuple[str, bool], ...] = ()
        if qualified.order_by:
            keys = []
            for item in qualified.order_by:
                keys.append(
                    (self._order_column(item.expr, output_names), item.descending)
                )
            sort_keys = tuple(keys)
        if qualified.limit is not None:
            rows = min(float(qualified.limit), estimate.rows)
            plan = PlanNode(
                kind=OperatorKind.TOP_N,
                children=(plan,),
                sort_keys=sort_keys,
                limit=qualified.limit,
                estimated_rows=rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            estimate = RelEstimate(
                rows=rows, row_bytes=estimate.row_bytes, bindings=estimate.bindings
            )
        elif sort_keys:
            plan = PlanNode(
                kind=OperatorKind.SORT,
                children=(plan,),
                sort_keys=sort_keys,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
        return plan, estimate

    def _order_column(self, expr: Expr, output_names: Optional[dict]) -> str:
        """Map an ORDER BY expression to an output column name."""
        if output_names is None:
            # Star select: batch columns keep their qualified names.
            if isinstance(expr, ColumnRef):
                return expr.to_sql()
            raise OptimizerError("ORDER BY on SELECT * supports columns only")
        if expr in output_names:
            return output_names[expr]
        if isinstance(expr, ColumnRef) and ColumnRef(expr.name) in output_names:
            return output_names[ColumnRef(expr.name)]
        raise OptimizerError(
            f"ORDER BY expression {expr.to_sql()!r} is not in the select list"
        )
