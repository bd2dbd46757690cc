"""The query optimizer facade: AST in, annotated physical plan out.

Two passes per SELECT block:

1. *analysis*, what no literal value changes: resolve bindings and
   qualify every column reference; classify the WHERE conjuncts
   (per-table selections, equi-join edges, theta residuals, subquery
   predicates); pair and decorrelate IN/EXISTS subqueries, analysing
   each sub-block alike; the columns each scan reads and emits; the
   aggregate rewrite; group and sort keys;
2. *planning*, what the catalog statistics decide: cardinalities, the
   subqueries as semi/anti joins, a left-deep join order (DP or greedy),
   physical operators — hash joins by default, nested-loop joins for
   theta/cross joins, broadcast or repartition exchanges to align
   partitioning — then aggregation, HAVING, projection, DISTINCT,
   ORDER BY / LIMIT and a final collect under ROOT; cost and lint.

``optimize(text)`` keeps the analysis per statement shape
(:func:`repro.sql.tokens.shape`); a later statement of that shape copies
it with its own literals and goes straight to planning.

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
from repro.lru import StampedLRU, text_bytes
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.seam import stage
from repro.optimizer.cardinality import (
    RelEstimate,
    group_by_estimate,
    join_estimate,
    scan_estimate,
    semi_join_estimate,
)
from repro.optimizer.cost import plan_cost
from repro.optimizer.joinorder import JoinEdge, order_joins
from repro.optimizer.physical import (
    AggregateRewrite,
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
    FuncCall,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
)
from repro.sql.ast import walk as _walk_expr
from repro.sql.parser import parse_tokens
from repro.sql.tokens import shape, tokens_of
from repro.storage.catalog import Catalog

__all__ = ["Optimizer", "OptimizedQuery"]

#: Build sides estimated below this many bytes are broadcast instead of
#: repartitioned.
BROADCAST_BYTES = 1 * 1024 * 1024

#: Template-cache bounds: shapes held, and bytes of one statement (a longer
#: one is compiled, not retained).  No knob.
_TEMPLATE_ENTRIES = 256
_TEMPLATE_STATEMENT_BYTES = 4096


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


@dataclass
class _Block:
    """One SELECT block analysed (never mutated): every decision no literal
    value changes, and the expressions planning estimates from.  ``scans``
    holds per binding ``(binding, table, selection, scan columns, output
    columns, partition key)``; ``subqueries`` per IN/EXISTS conjunct
    ``(outer binding, join pairs, sub-block, negated)``."""

    query: Query
    scans: tuple[tuple, ...]
    join_edges: tuple[JoinEdge, ...]
    theta: tuple[tuple[frozenset[str], Expr], ...]
    residual: tuple[Expr, ...]
    subqueries: tuple[tuple[str, tuple[tuple[str, str], ...], "_Block", bool], ...]
    rewrite: AggregateRewrite
    group_keys: tuple[str, ...]
    project: bool
    sort_keys: tuple[tuple[str, bool], ...]


#: The one value every literal takes when telling shapes' decisions apart.
_MASK = object()


class _Template:
    """A statement shape's analysis, ready to take other literal values.

    ``literals`` are the parser's ``Literal`` nodes by token index.
    :meth:`bind` rebuilds the nodes on a path to one and shares the rest.
    A shape is not ``rebindable`` unless its key marks the very tokens the
    parser made literals of (the grammar decides which NUMBER and STRING
    tokens those are), nor when its analysis compared literal values: an
    ORDER BY holding one (matched to the select list by equality), or two
    aggregate calls alike but for their literals (deduplicated by
    equality).
    """

    def __init__(self, block: _Block, literals: dict[int, Literal], key: tuple) -> None:
        self.block = block
        self.literals = list(literals.values())  # keeps every id below alive
        self.slots = {id(literal): index for index, literal in enumerate(self.literals)}
        #: id of a node on a path to a literal -> its fields on such paths
        self.dirty: dict[int, tuple] = {}
        marked = [at for at, part in enumerate(key) if isinstance(part, type)]
        try:
            self._mark(block, {})
            self.dirty.setdefault(id(block), ())  # bind() copies the root at least
            self.rebindable = (marked == list(literals)
                               and not self._compares_literals(block))
        except RecursionError:  # nested deeper than the stack allows: not kept
            self.rebindable = False

    def _mark(self, node: object, seen: dict[int, bool]) -> bool:
        """Whether ``node`` holds a literal; if so it goes in ``dirty``."""
        key = id(node)
        found = seen.get(key)
        if found is None:
            # Tuples, AST and analysis nodes; no analysis holds a catalog.
            if isinstance(node, tuple):
                parts = enumerate(node)
            else:
                parts = getattr(node, "__dict__", {}).items()
            paths = []
            for at, part in parts:
                if self._mark(part, seen):
                    paths.append(at)
            found = seen[key] = bool(paths) or key in self.slots
            if found:
                self.dirty[key] = tuple(paths)
        return found

    def _compares_literals(self, block: _Block) -> bool:
        query, mask, memo = block.query, [_MASK] * len(self.literals), {}
        if any(id(item.expr) in self.dirty for item in query.order_by):
            return True
        calls = [
            (node, self._copy(node, mask, memo) if id(node) in self.dirty else None)
            for expr in (*(item.expr for item in query.select), query.having)
            if expr is not None
            for node in _walk_expr(expr)
            if isinstance(node, FuncCall) and node.is_aggregate
        ]
        masked = [copied or call for call, copied in calls]
        if any(copied and masked.count(copied) > 1 for _, copied in calls):
            return True
        return any(self._compares_literals(sub) for *_, sub, _ in block.subqueries)

    def bind(self, values: Sequence) -> _Block:
        """The analysis with the literals replaced by ``values``, in order."""
        return self._copy(self.block, values, {})

    def _copy(self, node: object, values: Sequence, memo: dict) -> object:
        """``node`` (in ``dirty``) rebuilt along its paths to literals."""
        key = id(node)
        copied = memo.get(key)
        if copied is None:
            index = self.slots.get(key)
            if index is not None:
                copied = Literal(values[index])
            elif type(node) is tuple:
                parts = list(node)
                for at in self.dirty[key]:
                    parts[at] = self._copy(parts[at], values, memo)
                copied = tuple(parts)
            else:
                fields = dict(vars(node))
                for name in self.dirty[key]:
                    fields[name] = self._copy(fields[name], values, memo)
                # The node's own fields, set without running its __init__.
                copied = object.__new__(type(node))
                vars(copied).update(fields)
            memo[key] = copied
        return copied


#: What ``Optimizer.templates`` holds for a shape compiled once; a shape's
#: second compile admits its ``_Template``.
_SEEN = "seen"


def _rebindable(entry: object) -> bool:
    return isinstance(entry, _Template) and entry.rebindable


class Optimizer:
    """Plans queries against a catalog for one system configuration."""

    def __init__(self, catalog: Catalog, config: SystemConfig) -> None:
        self.catalog = catalog
        self.config = config
        #: Analyses by statement shape (``templates.stats()``), emptied
        #: by a new catalog version.
        self.templates = StampedLRU("optimizer.templates", _TEMPLATE_ENTRIES,
                                    "repro_optimizer_template", "template-cache")

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
        with stage("optimizer.optimize") as current:
            key, entry, hit = None, None, False
            if isinstance(query, str):
                key, values, pairs = shape(query)
                if text_bytes(query) > _TEMPLATE_STATEMENT_BYTES:
                    key = None
                version = self.catalog.version
                found, hit = self.templates.lookup(version, [key], _rebindable)
                entry = found.get(key)
                current.set(template="hit" if hit else "miss")
                if not hit:
                    query, literals = parse_tokens(tokens_of(pairs))
            try:
                block = entry.bind(values) if hit else self._analyse(query)
                plan, estimate = self._plan(block, top_level=True)
                cost = plan_cost(plan, self.catalog)
                warnings = tuple(lint_plan(plan)) if lint else ()
            except RecursionError:
                # The expression walks recurse once per nesting level (a
                # chain of 1 000 ANDs is 1 000 deep): the sender's error.
                raise OptimizerError("statement nests too deeply") from None
            if entry is None and key is not None:
                self.templates.store(version, {key: _SEEN})
            elif entry is _SEEN:
                self.templates.store(version, {key: _Template(block, literals, key)})
            current.set(
                tables=len(block.query.tables),
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
                query=block.query,
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
        with stage("optimizer.optimize_many", n=len(queries)):
            return [self.optimize(query, lint=lint) for query in queries]

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _analyse(self, query: Query) -> _Block:
        """One block's analysis; raises what compiling it would."""
        bindings = BindingMap(query, self.catalog)
        qualified = self._qualify_query(query, bindings)
        conjuncts = split_conjuncts(qualified.where)
        classified = classify_conjuncts(conjuncts, bindings)

        subqueries: list[tuple[list[tuple[str, str]], _Block, bool]] = []
        for subquery in classified.subqueries:
            if subquery.kind == "in":
                pairs, sub = self._analyse_in_subquery(subquery, bindings)
            else:
                pairs, sub = self._analyse_exists_subquery(subquery, bindings)
            subqueries.append((pairs, sub, subquery.negated))

        downstream = self._needed_columns(
            qualified, bindings, classified, subqueries
        )
        scans = []
        for binding in bindings.bindings:
            selection = conjoin(classified.selections.get(binding, []))
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
            table = bindings.table_name(binding)
            partition_key = f"{binding}.{self.catalog.schema(table).names[0]}"
            scans.append((binding, table, selection, scan_columns,
                          output_columns, partition_key))
        attached = tuple(
            (self._outer_binding(pairs), tuple(pairs), sub, negated)
            for pairs, sub, negated in subqueries
        )

        rewrite = rewrite_aggregates(qualified.select, qualified.having)
        group_keys = tuple(self._group_key_name(e) for e in qualified.group_by)
        project = not (
            len(qualified.select) == 1 and isinstance(qualified.select[0].expr, Star)
        )
        output_names: Optional[dict] = None
        if project:
            output_names = {}
            for original, rewritten in zip(qualified.select, rewrite.select):
                name = rewritten.alias or rewritten.expr.to_sql()
                output_names[original.expr] = name
                if original.alias:
                    output_names[ColumnRef(original.alias)] = name
        return _Block(
            query=qualified,
            scans=tuple(scans),
            join_edges=tuple(classified.join_edges),
            theta=tuple(classified.theta),
            residual=tuple(classified.residual),
            subqueries=attached,
            rewrite=rewrite,
            group_keys=group_keys,
            project=project,
            sort_keys=tuple(
                (self._order_column(item.expr, output_names), item.descending)
                for item in qualified.order_by
            ),
        )

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

    def _needed_columns(
        self,
        qualified: Query,
        bindings: BindingMap,
        classified: ClassifiedConjuncts,
        subquery_joins: list[tuple[list[tuple[str, str]], _Block, bool]],
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

    def _outer_binding(self, pairs: list[tuple[str, str]]) -> str:
        """The one outer binding a subquery's join pairs correlate with (the
        pairs' outer columns were qualified against the outer block)."""
        outer_binding = pairs[0][0].split(".", 1)[0]
        if any(p[0].split(".", 1)[0] != outer_binding for p in pairs):
            raise OptimizerError(
                "subquery correlation must reference a single outer table"
            )
        return outer_binding

    def _analyse_in_subquery(
        self, predicate: SubqueryPredicate, outer_bindings: BindingMap
    ) -> tuple[list[tuple[str, str]], _Block]:
        assert predicate.outer_column is not None
        outer_col = outer_bindings.qualify(predicate.outer_column).to_sql()
        sub = self._analyse(predicate.query)
        return [(outer_col, self._subquery_output_column(sub))], sub

    def _analyse_exists_subquery(
        self, predicate: SubqueryPredicate, outer_bindings: BindingMap
    ) -> tuple[list[tuple[str, str]], _Block]:
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
        return pairs, self._analyse(decorrelated)

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

    def _subquery_output_column(self, sub: _Block) -> str:
        """Name of the column an IN-subquery's plan produces."""
        if len(sub.query.select) != 1:
            raise OptimizerError("IN subqueries must select exactly one column")
        item = sub.query.select[0]
        if isinstance(item.expr, ColumnRef):
            return item.expr.to_sql()
        if sub.query.has_aggregates:
            # Aggregate outputs are projected under the rewritten alias.
            rewritten = sub.rewrite.select[0]
            return rewritten.alias or rewritten.expr.to_sql()
        raise OptimizerError(
            "IN subqueries must select a column or an aggregate"
        )

    def _group_key_name(self, expr: Expr) -> str:
        if not isinstance(expr, ColumnRef):
            raise OptimizerError("GROUP BY supports plain columns only")
        return expr.to_sql()

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

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan(self, block: _Block, top_level: bool) -> tuple[PlanNode, RelEstimate]:
        stats = {scan[0]: self.catalog.stats(scan[1]) for scan in block.scans}
        subs: dict[str, _Sub] = {}
        for binding, table, selection, scan_columns, output_columns, key in block.scans:
            selectivity = (
                predicate_selectivity(selection, stats) if selection else 1.0
            )
            estimate = scan_estimate(binding, stats[binding], selectivity)
            node = PlanNode(
                kind=OperatorKind.FILE_SCAN,
                table_name=table,
                binding=binding,
                predicate=selection,
                scan_columns=scan_columns,
                output_columns=output_columns,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            subs[binding] = _Sub(node, estimate, key)

        for outer_binding, pairs, sub_block, negated in block.subqueries:
            plan, estimate = self._plan(sub_block, top_level=False)
            self._attach_semi_join(
                outer_binding, pairs, _Sub(plan, estimate, None), negated, subs
            )

        relations = {binding: sub.estimate for binding, sub in subs.items()}
        order = order_joins(relations, block.join_edges)
        current = subs[order[0]]
        done = {order[0]}
        for binding in order[1:]:
            current = self._join(current, subs[binding], done, binding, block, stats)
            done.add(binding)

        for residual in block.residual:
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

        return self._finish_block(block, current, top_level)

    def _attach_semi_join(
        self,
        outer_binding: str,
        pairs: tuple[tuple[str, str], ...],
        sub: _Sub,
        negated: bool,
        subs: dict[str, _Sub],
    ) -> None:
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
            join_pairs=pairs,
            estimated_rows=estimate.rows,
            estimated_row_bytes=estimate.row_bytes,
        )
        subs[outer_binding] = _Sub(node, estimate, target.partition_key)

    # -- joins ----------------------------------------------------------

    def _join(
        self,
        current: _Sub,
        new: _Sub,
        done: set[str],
        new_binding: str,
        block: _Block,
        stats: dict,
    ) -> _Sub:
        pairs = []
        for edge in block.join_edges:
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
            for touched, pred in block.theta
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

    # -- aggregation / ordering / output --------------------------------

    def _finish_block(
        self, block: _Block, current: _Sub, top_level: bool
    ) -> tuple[PlanNode, RelEstimate]:
        rewrite = block.rewrite
        group_keys = block.group_keys
        plan = current.plan
        estimate = current.estimate
        partition_key = current.partition_key

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
            order_matches_groups = bool(block.query.order_by) and all(
                isinstance(o.expr, ColumnRef) and o.expr.to_sql() in group_keys
                for o in block.query.order_by
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

        if block.project:
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

        if block.query.distinct:
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

        limit = block.query.limit
        if limit is not None:
            rows = min(float(limit), estimate.rows)
            plan = PlanNode(
                kind=OperatorKind.TOP_N,
                children=(plan,),
                sort_keys=block.sort_keys,
                limit=limit,
                estimated_rows=rows,
                estimated_row_bytes=estimate.row_bytes,
            )
            estimate = RelEstimate(
                rows=rows, row_bytes=estimate.row_bytes, bindings=estimate.bindings
            )
        elif block.sort_keys:
            plan = PlanNode(
                kind=OperatorKind.SORT,
                children=(plan,),
                sort_keys=block.sort_keys,
                estimated_rows=estimate.rows,
                estimated_row_bytes=estimate.row_bytes,
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
        return plan, estimate
