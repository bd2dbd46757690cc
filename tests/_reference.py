"""Reference implementations the correctness tests compare against.

``run_reference`` is a brute-force SQL evaluator; ``reference_join_order``
(at the end of the file) is the join-order search written with plain
``join_estimate``.

The evaluator evaluates the same AST the optimizer consumes, but the dumbest possible
way: materialise the full cross product of the FROM tables as Python
dicts, evaluate predicates row by row (including subqueries, re-evaluated
per row), then group/aggregate/sort with plain Python.  Exponentially slow
— and therefore convincingly correct on the tiny tables the integration
tests use.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Iterable, Optional

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
    Star,
    UnaryOp,
)

Row = dict[str, Any]
Tables = dict[str, list[Row]]


def run_reference(query: Query, tables: Tables) -> list[tuple]:
    """Evaluate ``query`` against ``tables``; returns result tuples."""
    rows = _filtered_rows(query, tables, outer_row=None)

    if query.group_by or _has_aggregate(query):
        groups = _group_rows(rows, query.group_by)
        out_rows = []
        for key_row, members in groups:
            if query.having is not None and not _eval(
                query.having, key_row, tables, members
            ):
                continue
            out_rows.append(_project(query.select, key_row, tables, members))
    else:
        out_rows = [_project(query.select, row, tables, [row]) for row in rows]

    if query.distinct:
        seen = set()
        unique = []
        for row in out_rows:
            key = tuple(row.values())
            if key not in seen:
                seen.add(key)
                unique.append(row)
        out_rows = unique

    if query.order_by:
        def sort_key(row):
            key = []
            for item in query.order_by:
                value = _order_value(item.expr, row, query, tables)
                key.append(-_num(value) if item.descending else _num(value))
            return key

        out_rows.sort(key=sort_key)

    if query.limit is not None:
        out_rows = out_rows[: query.limit]
    return [tuple(row.values()) for row in out_rows]


# ----------------------------------------------------------------------


def _num(value):
    if isinstance(value, str):
        return value
    return float(value)


def _has_aggregate(query: Query) -> bool:
    return query.has_aggregates


def _cross_product(query: Query, tables: Tables) -> Iterable[Row]:
    bindings = [(ref.binding, tables[ref.name]) for ref in query.tables]
    for combo in itertools.product(*(rows for _b, rows in bindings)):
        merged: Row = {}
        for (binding, _rows), row in zip(bindings, combo):
            for column, value in row.items():
                merged[f"{binding}.{column}"] = value
        yield merged


def _filtered_rows(
    query: Query, tables: Tables, outer_row: Optional[Row]
) -> list[Row]:
    result = []
    for row in _cross_product(query, tables):
        scoped = dict(outer_row or {})
        scoped.update(row)
        if query.where is None or _eval(query.where, scoped, tables, None):
            result.append(scoped)
    return result


def _group_rows(rows: list[Row], group_by) -> list[tuple[Row, list[Row]]]:
    if not group_by:
        return [({}, rows)] if rows or True else []
    groups: dict[tuple, list[Row]] = {}
    for row in rows:
        key = tuple(_lookup(expr, row) for expr in group_by)
        groups.setdefault(key, []).append(row)
    return [(members[0], members) for _key, members in sorted(
        groups.items(), key=lambda kv: tuple(str(v) for v in kv[0])
    )]


def _project(select, row, tables, members):
    out: Row = {}
    for index, item in enumerate(select):
        if isinstance(item.expr, Star):
            out.update(row)
            continue
        name = item.alias or f"col{index}"
        out[name] = _eval(item.expr, row, tables, members)
    return out


def _order_value(expr, projected_row, query, tables):
    if isinstance(expr, ColumnRef):
        if expr.table is None and expr.name in projected_row:
            return projected_row[expr.name]
        qualified = f"{expr.table}.{expr.name}" if expr.table else expr.name
        if qualified in projected_row:
            return projected_row[qualified]
    # Match by position against select expressions.
    for index, item in enumerate(query.select):
        if item.expr == expr:
            name = item.alias or f"col{index}"
            return projected_row[name]
    raise AssertionError(f"cannot order by {expr.to_sql()}")


def _lookup(expr: Expr, row: Row):
    assert isinstance(expr, ColumnRef)
    if expr.table is not None:
        return row[f"{expr.table}.{expr.name}"]
    matches = [k for k in row if k.split(".")[-1] == expr.name or k == expr.name]
    assert len(matches) == 1, f"ambiguous {expr.name}: {matches}"
    return row[matches[0]]


def _eval(expr: Expr, row: Row, tables: Tables, members: Optional[list[Row]]):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return _lookup(expr, row)
    if isinstance(expr, Star):
        raise AssertionError("* is not a scalar")
    if isinstance(expr, UnaryOp):
        value = _eval(expr.operand, row, tables, members)
        return (not value) if expr.op.upper() == "NOT" else -value
    if isinstance(expr, BinaryOp):
        op = expr.op.upper()
        if op == "AND":
            return bool(_eval(expr.left, row, tables, members)) and bool(
                _eval(expr.right, row, tables, members)
            )
        if op == "OR":
            return bool(_eval(expr.left, row, tables, members)) or bool(
                _eval(expr.right, row, tables, members)
            )
        left = _eval(expr.left, row, tables, members)
        right = _eval(expr.right, row, tables, members)
        return {
            "=": lambda: left == right,
            "<>": lambda: left != right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left / right,
            "%": lambda: left % right,
        }[expr.op]()
    if isinstance(expr, Between):
        value = _eval(expr.expr, row, tables, members)
        low = _eval(expr.low, row, tables, members)
        high = _eval(expr.high, row, tables, members)
        result = low <= value <= high
        return not result if expr.negated else result
    if isinstance(expr, InList):
        value = _eval(expr.expr, row, tables, members)
        values = {_eval(v, row, tables, members) for v in expr.values}
        result = value in values
        return not result if expr.negated else result
    if isinstance(expr, Like):
        value = str(_eval(expr.expr, row, tables, members))
        pattern = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in expr.pattern
        )
        result = re.fullmatch(pattern, value) is not None
        return not result if expr.negated else result
    if isinstance(expr, IsNull):
        value = _eval(expr.expr, row, tables, members)
        is_null = value is None or (
            isinstance(value, float) and value != value
        )
        return not is_null if expr.negated else is_null
    if isinstance(expr, CaseWhen):
        for cond, value in expr.branches:
            if _eval(cond, row, tables, members):
                return _eval(value, row, tables, members)
        if expr.default is not None:
            return _eval(expr.default, row, tables, members)
        return None
    if isinstance(expr, InSubquery):
        value = _eval(expr.expr, row, tables, members)
        sub_results = run_reference(expr.query, tables)
        values = {r[0] for r in sub_results}
        result = value in values
        return not result if expr.negated else result
    if isinstance(expr, Exists):
        matching = _filtered_rows(expr.query, tables, outer_row=row)
        result = bool(matching)
        return not result if expr.negated else result
    if isinstance(expr, FuncCall):
        return _eval_aggregate(expr, row, tables, members)
    raise AssertionError(f"cannot evaluate {type(expr).__name__}")


def _eval_aggregate(call: FuncCall, row, tables, members):
    name = call.name.lower()
    if members is None:
        raise AssertionError("aggregate outside grouping context")
    if name == "count" and (not call.args or isinstance(call.args[0], Star)):
        return float(len(members))
    values = [
        _eval(call.args[0], member, tables, [member]) for member in members
    ]
    if call.distinct:
        values = list(dict.fromkeys(values))
    if name == "count":
        return float(len(values))
    if not values:
        return float("nan")
    numeric = [float(v) for v in values]
    if name == "sum":
        return sum(numeric)
    if name == "avg":
        return sum(numeric) / len(numeric)
    if name == "min":
        return min(numeric)
    if name == "max":
        return max(numeric)
    raise AssertionError(f"unsupported aggregate {name}")


# ----------------------------------------------------------------------
# Reference join-order search
# ----------------------------------------------------------------------


def reference_join_order(relations, edges) -> list[str]:
    """``repro.optimizer.joinorder.order_joins`` the slow, obvious way.

    Every expansion joins the prefix's full :class:`RelEstimate` to the
    candidate with ``join_estimate`` — re-deriving every distinct count —
    and reads ``.rows``.  The production search carries only what that
    row count depends on; this is the search it must agree with, order
    for order and tie for tie.
    """
    from repro.optimizer.cardinality import join_estimate
    from repro.optimizer.joinorder import DP_LIMIT

    def expand(done, estimate, candidate):
        pairs = []
        for edge in edges:
            if edge.touches(candidate):
                other = (
                    edge.left_binding
                    if edge.right_binding == candidate
                    else edge.right_binding
                )
                if other in done and other != candidate:
                    new_col, done_col = edge.pair_for(candidate)
                    pairs.append((done_col, new_col))
        joined = join_estimate(estimate, relations[candidate], pairs)
        return joined, (1.0 if pairs else 1e3)

    bindings = sorted(relations)
    if len(bindings) <= 1:
        return bindings
    if len(bindings) <= DP_LIMIT:
        states = {
            frozenset({b}): (relations[b].rows, [b], relations[b]) for b in bindings
        }
        for size in range(2, len(bindings) + 1):
            next_states: dict = {}
            for done, (cost, order, estimate) in states.items():
                if len(done) != size - 1:
                    continue
                for candidate in bindings:
                    if candidate in done:
                        continue
                    joined, penalty = expand(done, estimate, candidate)
                    new_cost = cost + joined.rows * penalty
                    key = done | {candidate}
                    if key not in next_states or new_cost < next_states[key][0]:
                        next_states[key] = (new_cost, order + [candidate], joined)
            states.update(next_states)
        return states[frozenset(bindings)][1]

    start = min(bindings, key=lambda b: relations[b].rows)
    order, done, estimate = [start], frozenset({start}), relations[start]
    remaining = [b for b in bindings if b != start]
    while remaining:
        best = None
        for candidate in remaining:
            joined, penalty = expand(done, estimate, candidate)
            score = joined.rows * penalty
            if best is None or score < best[0]:
                best = (score, candidate, joined)
        _score, chosen, estimate = best
        order.append(chosen)
        done = done | {chosen}
        remaining.remove(chosen)
    return order
