"""The statement front end's contract is equivalence.

* the digest fixture written at the commit before the front-end rewrite
  (see ``tests/_frontend_digest.py``) is reproduced bit for bit: ASTs,
  plans, costs, estimates, warnings and the errors of broken statements;
* ``parse(q.to_sql()) == q`` for generated ASTs;
* token-level mutations of valid statements end in a ``Query`` or a
  ``SQLError`` — never in another exception;
* the join-order search agrees with the reference search written with
  plain ``join_estimate`` (``tests/_reference.py``) on random join graphs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SQLError, TokenizeError
from repro.optimizer.cardinality import RelEstimate, semi_join_estimate
from repro.optimizer.joinorder import DP_LIMIT, JoinEdge, order_joins
from repro.sql.ast import (
    Between,
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Exists,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    OrderItem,
    Query,
    SelectItem,
    Star,
    TableRef,
    UnaryOp,
)
from repro.sql.parser import parse
from repro.sql.tokens import KEYWORDS, tokenize
from repro.workloads.generator import generate_pool
from repro.workloads.spec import builtin_workload_names

from tests._frontend_digest import FIXTURE, frontend_digests
from tests._reference import reference_join_order


# ----------------------------------------------------------------------
# Digest fixture from the parent commit
# ----------------------------------------------------------------------


def test_front_end_reproduces_parent_commit_digests(
    tpcds_catalog, customer_catalog, config
):
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == builtin_workload_names()
    assert frontend_digests(tpcds_catalog, customer_catalog, config) == expected


# ----------------------------------------------------------------------
# parse(q.to_sql()) == q
# ----------------------------------------------------------------------

_names = st.builds(
    str.__add__, st.sampled_from("abcxyz_éλ"), st.text("abcxyz_019éλ", max_size=5)
).filter(lambda name: name.upper() not in KEYWORDS)
_function_names = st.sampled_from(["sum", "count", "avg", "min", "max", "f", "coalesce"])
_literals = st.one_of(
    st.integers(0, 10**12).map(Literal),
    st.integers(0, 10**9).map(lambda n: Literal(n / 100)),
    st.text(max_size=8).map(Literal),
    st.sampled_from([Literal(None), Literal(True), Literal(False)]),
)
_columns = st.builds(ColumnRef, _names, st.none() | _names)


def _negated(expr):
    # Never ``--x``: that would start a comment.
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return expr
    return UnaryOp("-", expr)


def _values(exprs):
    """Expressions the grammar accepts as an operand (``additive``)."""
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from("+-*/%"), exprs, exprs),
        exprs.map(_negated),
        st.builds(
            FuncCall,
            _function_names,
            st.lists(exprs, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(FuncCall, _function_names, st.sampled_from([(), (Star(),)])),
        st.builds(
            CaseWhen,
            st.lists(st.tuples(exprs, exprs), min_size=1, max_size=2).map(tuple),
            st.none() | exprs,
        ),
    )


_operands = st.recursive(_columns | _literals, _values, max_leaves=6)


def _predicates(queries):
    comparisons = st.sampled_from(["=", "<", ">", "<=", ">=", "<>"])
    return st.one_of(
        st.builds(BinaryOp, comparisons, _operands, _operands),
        st.builds(Between, _operands, _operands, _operands, st.booleans()),
        st.builds(
            InList,
            _operands,
            st.lists(_operands, min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(Like, _operands, st.text(max_size=6), st.booleans()),
        st.builds(IsNull, _operands, st.booleans()),
        st.builds(InSubquery, _operands, queries, st.booleans()),
        st.builds(Exists, queries),
    )


def _conditions(queries):
    return st.recursive(
        _predicates(queries) | _operands,
        lambda inner: st.one_of(
            st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), inner, inner),
            inner.map(lambda operand: UnaryOp("NOT", operand)),
        ),
        max_leaves=4,
    )


def _queries(subqueries):
    conditions = _conditions(subqueries)
    select = st.one_of(
        st.just((SelectItem(Star()),)),
        st.lists(
            st.builds(SelectItem, conditions, st.none() | _names),
            min_size=1,
            max_size=3,
        ).map(tuple),
    )
    return st.builds(
        Query,
        select=select,
        tables=st.lists(
            st.builds(TableRef, _names, st.none() | _names), min_size=1, max_size=3
        ).map(tuple),
        where=st.none() | conditions,
        group_by=st.lists(_operands, max_size=2).map(tuple),
        having=st.none() | conditions,
        order_by=st.lists(
            st.builds(OrderItem, _operands, st.booleans()), max_size=2
        ).map(tuple),
        limit=st.none() | st.integers(0, 10**6),
        distinct=st.booleans(),
    )


_flat_queries = _queries(st.nothing())
_generated_queries = _queries(_flat_queries)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_generated_queries)
def test_parse_inverts_to_sql(query):
    assert parse(query.to_sql()) == query


# ----------------------------------------------------------------------
# Mutated statements: a Query or an SQLError, nothing else
# ----------------------------------------------------------------------

_POOL = [
    instance.sql
    for name in builtin_workload_names()
    for instance in generate_pool(12, seed=77, workload=name)
]
_SPLICES = [
    "", " ", "(", ")", ",", ".", "'", "''", "--", "-", "!", "=", "<", "1.", ".5",
    "1.2.3", "NOT", "select", "BETWEEN", "CASE", "x", "é", "²", "٣",
    "١٢", "Ⅷ", "½", " ", "\x00", "#", ";", '"', "\\",
]


def _lexemes(sql: str) -> list[str]:
    """``sql`` cut at its token boundaries (each piece keeps the blanks
    that follow the token)."""
    starts = [token.position for token in tokenize(sql)]
    return [sql[a:b] for a, b in zip(starts, starts[1:])]


_edits = st.lists(
    st.tuples(
        st.sampled_from(["drop", "double", "swap", "replace", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(_SPLICES) | st.text(max_size=3),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_POOL), _edits)
def test_mutated_statement_parses_or_raises_sql_error(sql, edits):
    pieces = _lexemes(sql)
    for kind, where, splice in edits:
        if not pieces:
            break
        at = where % len(pieces)
        if kind == "drop":
            del pieces[at]
        elif kind == "double":
            pieces.insert(at, pieces[at])
        elif kind == "swap":
            other = (at + 1) % len(pieces)
            pieces[at], pieces[other] = pieces[other], pieces[at]
        elif kind == "replace":
            pieces[at] = splice
        else:
            pieces.insert(at, splice)
    try:
        result = parse("".join(pieces))
    except SQLError as error:
        assert error.position >= 0
    else:
        assert isinstance(result, Query)


@pytest.mark.parametrize("digits", ["²", "٣", "١٢"])
@pytest.mark.parametrize(
    "template",
    [
        "select {} from item",
        "select i_item_sk from item where i_item_sk = {}",
        "select i_item_sk from item limit {}",
    ],
)
def test_non_ascii_digits_are_a_tokenize_error(template, digits):
    """``²`` used to escape as a bare ``ValueError`` from ``int()``, and
    ``LIMIT ٣`` silently meant 3."""
    with pytest.raises(TokenizeError) as excinfo:
        parse(template.format(digits))
    assert excinfo.value.position == template.index("{")
    assert repr(digits[0]) in str(excinfo.value)


# ----------------------------------------------------------------------
# Join-order search vs the reference written with join_estimate
# ----------------------------------------------------------------------


@st.composite
def _join_graphs(draw):
    n = draw(st.integers(2, DP_LIMIT + 2))
    bindings = [f"t{i}" for i in range(n)]
    rows = st.one_of(
        st.floats(0.1, 1e9, allow_nan=False),
        st.sampled_from([1.0, 10.0, 1000.0, 1e6]),  # ties
    )
    relations = {}
    for binding in bindings:
        base_rows = draw(rows)
        ndv = {
            f"{binding}.c{j}": draw(st.floats(0.5, 2e9, allow_nan=False))
            for j in range(3)
            if draw(st.booleans())  # a missing column takes the rows/10 default
        }
        estimate = RelEstimate(
            rows=base_rows,
            row_bytes=draw(st.floats(8.0, 512.0)),
            ndv=ndv,
            bindings=frozenset({binding}),
        )
        if draw(st.integers(0, 3)) == 0:
            # An input the optimizer already semi-joined to a subquery.
            sub = RelEstimate(
                rows=draw(rows), row_bytes=8.0, ndv={"q.k": draw(rows)}
            )
            estimate = semi_join_estimate(estimate, sub, [(f"{binding}.c0", "q.k")])
        relations[binding] = estimate
    columns = st.integers(0, 2)
    edges = []
    for _ in range(draw(st.integers(0, 2 * n))):  # 0 edges: all cross products
        left, right = draw(
            st.lists(st.sampled_from(bindings), min_size=2, max_size=2, unique=True)
        )
        edges.append(
            JoinEdge(left, right, f"{left}.c{draw(columns)}", f"{right}.c{draw(columns)}")
        )
    return relations, edges


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_join_graphs())
def test_join_order_matches_reference_search(graph):
    relations, edges = graph
    assert order_joins(relations, edges) == reference_join_order(relations, edges)
