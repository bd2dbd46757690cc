"""Property-based fuzzing: random queries, engine vs reference oracle.

Hypothesis generates random (but valid) queries over a tiny schema; each
must produce identical results from the optimizing engine and from the
exponential-time reference evaluator.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import Executor
from repro.engine.system import research_4node
from repro.optimizer import Optimizer
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Column, Schema, Table

from tests._reference import run_reference

N_LEFT = 25
N_RIGHT = 12


def _build():
    rng = np.random.default_rng(7)
    left = Table(
        "fuzz_left",
        Schema(
            [
                Column("a", "int"),
                Column("b", "int"),
                Column("v", "float"),
                Column("s", "str"),
            ]
        ),
        {
            "a": rng.integers(0, 6, N_LEFT),
            "b": rng.integers(0, 4, N_LEFT),
            "v": np.round(rng.uniform(0, 10, N_LEFT), 2),
            "s": rng.choice(["x", "y", "z"], N_LEFT),
        },
    )
    right = Table(
        "fuzz_right",
        Schema([Column("a", "int"), Column("w", "float")]),
        {
            "a": rng.integers(0, 6, N_RIGHT),
            "w": np.round(rng.uniform(0, 5, N_RIGHT), 2),
        },
    )
    catalog = Catalog()
    catalog.register_all([left, right])
    tables = {
        name: [
            {
                col: catalog.table(name).column(col)[i].item()
                for col in catalog.table(name).column_names
            }
            for i in range(catalog.table(name).n_rows)
        ]
        for name in ("fuzz_left", "fuzz_right")
    }
    config = research_4node()
    return Optimizer(catalog, config), Executor(catalog, config), tables


_OPTIMIZER, _EXECUTOR, _TABLES = _build()

comparison = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
int_column = st.sampled_from(["l.a", "l.b"])
number = st.integers(min_value=-1, max_value=7)


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["cmp", "between", "in", "like", "and", "or"]))
    if kind == "cmp":
        return f"{draw(int_column)} {draw(comparison)} {draw(number)}"
    if kind == "between":
        low = draw(number)
        return f"{draw(int_column)} BETWEEN {low} AND {low + draw(st.integers(0, 5))}"
    if kind == "in":
        values = draw(st.lists(number, min_size=1, max_size=4))
        return f"{draw(int_column)} IN ({', '.join(map(str, values))})"
    if kind == "like":
        pattern = draw(st.sampled_from(["x", "y%", "%z", "_"]))
        return f"l.s LIKE '{pattern}'"
    left = draw(st.sampled_from(["l.a > 2", "l.b = 1", "l.v < 5"]))
    right = draw(st.sampled_from(["l.a < 5", "l.s = 'x'", "l.v >= 2"]))
    op = "AND" if kind == "and" else "OR"
    return f"({left} {op} {right})"


@st.composite
def aggregates(draw, join):
    """One to three of count/sum/avg/min/max, each with or without
    DISTINCT, over a column of either joined table."""
    columns = ["l.a", "l.v"] + (["r.w"] if join else [])
    items = []
    for index in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        column = draw(st.sampled_from(columns))
        items.append(f"{func}({distinct}{column}) AS x{index}")
    return ", ".join(items)


@st.composite
def queries(draw):
    join = draw(st.booleans())
    group = draw(st.booleans())
    where = draw(predicates())
    if join:
        from_clause = "fuzz_left l, fuzz_right r"
        residual = "l.b <> r.a AND " if draw(st.booleans()) else ""
        where = f"l.a = r.a AND {residual}{where}"
    else:
        from_clause = "fuzz_left l"
    if group:
        select = f"l.b, {draw(aggregates(join))}"
        tail = " GROUP BY l.b"
    else:
        select = "l.a, l.v"
        tail = ""
    return f"SELECT {select} FROM {from_clause} WHERE {where}{tail}"


def _normalise(rows):
    out = []
    for row in rows:
        canonical = []
        for value in row:
            if isinstance(value, (float, np.floating)):
                canonical.append(
                    "nan" if math.isnan(float(value)) else round(float(value), 6)
                )
            elif isinstance(value, (int, np.integer)):
                canonical.append(round(float(value), 6))
            else:
                canonical.append(str(value))
        out.append(tuple(canonical))
    return sorted(out)


@given(queries())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_queries_match_reference(sql):
    optimized = _OPTIMIZER.optimize(sql)
    result = _EXECUTOR.execute(optimized.plan)
    got = _normalise(
        [
            tuple(col[i].item() if hasattr(col[i], "item") else col[i]
                  for col in result.batch.columns.values())
            for i in range(result.batch.n_rows)
        ]
    )
    expected = _normalise(run_reference(parse(sql), _TABLES))
    assert got == expected


@given(queries())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_queries_metrics_invariants(sql):
    optimized = _OPTIMIZER.optimize(sql)
    metrics = _EXECUTOR.execute(optimized.plan).metrics
    assert metrics.elapsed_time > 0
    assert metrics.records_used <= metrics.records_accessed
    assert (metrics.as_vector() >= 0).all()
    assert optimized.cost > 0
