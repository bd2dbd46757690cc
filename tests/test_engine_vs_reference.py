"""End-to-end correctness: optimizer + executor vs brute-force reference.

A tiny handcrafted database (small enough for the exponential reference
evaluator) is queried with every language feature the subset supports; the
engine's answer must match the reference's as a multiset.  At the gate's
scale the referee is the engine's own past: the digest fixture written at
the commit before its key kernels were rewritten (see
``tests/_engine_digest.py``) must be reproduced bit for bit.
"""

import json
import math

import numpy as np
import pytest

from repro.engine import Executor
from repro.engine.system import research_4node
from repro.optimizer import Optimizer
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.table import Column, Schema, Table

from tests._engine_digest import FIXTURE, engine_digests
from tests._reference import run_reference


def _rows_from_table(table):
    return [
        {name: table.column(name)[i].item() for name in table.column_names}
        for i in range(table.n_rows)
    ]


@pytest.fixture(scope="module")
def tiny_db():
    rng = np.random.default_rng(42)
    n_items, n_sales, n_custs = 12, 60, 8
    item = Table(
        "titem",
        Schema(
            [
                Column("i_id", "int"),
                Column("i_cat", "str"),
                Column("i_price", "float"),
            ]
        ),
        {
            "i_id": np.arange(1, n_items + 1),
            "i_cat": rng.choice(["red", "blue", "green"], n_items),
            "i_price": np.round(rng.uniform(1, 50, n_items), 2),
        },
    )
    cust = Table(
        "tcust",
        Schema([Column("c_id", "int"), Column("c_region", "str")]),
        {
            "c_id": np.arange(1, n_custs + 1),
            "c_region": rng.choice(["n", "s"], n_custs),
        },
    )
    sales = Table(
        "tsales",
        Schema(
            [
                Column("s_id", "int"),
                Column("s_item", "int"),
                Column("s_cust", "int"),
                Column("s_qty", "int"),
                Column("s_amt", "float"),
            ]
        ),
        {
            "s_id": np.arange(1, n_sales + 1),
            "s_item": rng.integers(1, n_items + 1, n_sales),
            "s_cust": rng.integers(1, n_custs + 1, n_sales),
            "s_qty": rng.integers(1, 10, n_sales),
            "s_amt": np.round(rng.uniform(1, 100, n_sales), 2),
        },
    )
    catalog = Catalog()
    catalog.register_all([item, cust, sales])
    tables = {
        "titem": _rows_from_table(item),
        "tcust": _rows_from_table(cust),
        "tsales": _rows_from_table(sales),
    }
    config = research_4node()
    return Optimizer(catalog, config), Executor(catalog, config), tables


def normalise(rows):
    """Multiset of rows with floats rounded for comparison."""
    out = []
    for row in rows:
        canonical = []
        for value in row:
            if isinstance(value, (float, np.floating)):
                if math.isnan(float(value)):
                    canonical.append("nan")
                else:
                    canonical.append(round(float(value), 6))
            elif isinstance(value, (int, np.integer)):
                canonical.append(round(float(value), 6))
            else:
                canonical.append(str(value))
        out.append(tuple(canonical))
    return sorted(out)


def engine_rows(optimizer, executor, sql):
    optimized = optimizer.optimize(sql)
    result = executor.execute(optimized.plan)
    batch = result.batch
    columns = list(batch.columns.values())
    return [
        tuple(col[i].item() if hasattr(col[i], "item") else col[i]
              for col in columns)
        for i in range(batch.n_rows)
    ]


QUERIES = [
    # plain selections
    "SELECT s.s_id, s.s_amt FROM tsales s WHERE s.s_amt > 50",
    "SELECT s.s_id FROM tsales s WHERE s.s_qty BETWEEN 3 AND 6",
    "SELECT i.i_id FROM titem i WHERE i.i_cat IN ('red', 'blue')",
    "SELECT i.i_id FROM titem i WHERE i.i_cat LIKE 'r%'",
    "SELECT i.i_id FROM titem i WHERE NOT i.i_cat = 'red'",
    "SELECT s.s_id FROM tsales s WHERE s.s_amt > 20 AND s.s_qty < 5",
    "SELECT s.s_id FROM tsales s WHERE s.s_qty = 1 OR s.s_qty = 9",
    # projections and expressions
    "SELECT s.s_id, s.s_amt * s.s_qty AS total FROM tsales s WHERE s.s_id < 10",
    "SELECT CASE WHEN s.s_qty > 5 THEN 1 ELSE 0 END AS big FROM tsales s",
    # joins
    "SELECT s.s_id, i.i_cat FROM tsales s, titem i WHERE s.s_item = i.i_id",
    (
        "SELECT s.s_id FROM tsales s, titem i, tcust c "
        "WHERE s.s_item = i.i_id AND s.s_cust = c.c_id "
        "AND i.i_cat = 'red' AND c.c_region = 'n'"
    ),
    (
        "SELECT s.s_id, i.i_id FROM tsales s, titem i "
        "WHERE s.s_item = i.i_id AND s.s_amt > i.i_price"
    ),
    # theta join
    (
        "SELECT i1.i_id, i2.i_id FROM titem i1, titem i2 "
        "WHERE i1.i_price > i2.i_price * 3"
    ),
    # aggregation
    "SELECT count(*) AS c FROM tsales s WHERE s.s_qty > 5",
    "SELECT sum(s.s_amt) AS total, avg(s.s_qty) AS aq FROM tsales s",
    "SELECT min(s.s_amt) AS lo, max(s.s_amt) AS hi FROM tsales s",
    "SELECT count(DISTINCT s.s_item) AS d FROM tsales s",
    # group by
    (
        "SELECT i.i_cat, count(*) AS c, sum(s.s_amt) AS total "
        "FROM tsales s, titem i WHERE s.s_item = i.i_id "
        "GROUP BY i.i_cat"
    ),
    (
        "SELECT s.s_cust, sum(s.s_qty) AS q FROM tsales s "
        "GROUP BY s.s_cust HAVING sum(s.s_qty) > 10"
    ),
    (
        "SELECT i.i_cat, c.c_region, count(*) AS c "
        "FROM tsales s, titem i, tcust c "
        "WHERE s.s_item = i.i_id AND s.s_cust = c.c_id "
        "GROUP BY i.i_cat, c.c_region"
    ),
    # grouped DISTINCT aggregates: each group's distinct values
    (
        "SELECT s.s_cust, sum(DISTINCT s.s_qty) AS sq, "
        "avg(DISTINCT s.s_qty) AS aq, min(DISTINCT s.s_amt) AS lo, "
        "max(DISTINCT s.s_item) AS hi FROM tsales s GROUP BY s.s_cust"
    ),
    (
        "SELECT i.i_cat, sum(DISTINCT s.s_qty) AS sq, "
        "avg(DISTINCT i.i_price) AS ap, min(DISTINCT s.s_cust) AS lo, "
        "max(DISTINCT s.s_qty) AS hi, count(DISTINCT s.s_cust) AS d "
        "FROM tsales s, titem i WHERE s.s_item = i.i_id GROUP BY i.i_cat"
    ),
    # a self-join whose residual is one ``<>`` over a column of each side,
    # grouped on its probe side (s1; the filtered s2 is the smaller, built
    # side) and on its build side: the join counts its pairs, forming none
    (
        "SELECT s1.s_item, count(*) AS c, sum(s2.s_amt) AS total, "
        "min(s2.s_qty) AS lo FROM tsales s1, tsales s2 "
        "WHERE s1.s_item = s2.s_item AND s1.s_cust <> s2.s_cust "
        "AND s2.s_qty > 3 GROUP BY s1.s_item"
    ),
    (
        "SELECT s2.s_cust, count(*) AS c, max(s1.s_amt) AS hi, "
        "count(DISTINCT s1.s_item) AS d FROM tsales s1, tsales s2 "
        "WHERE s1.s_item = s2.s_item AND s2.s_cust <> s1.s_cust "
        "AND s2.s_qty > 3 GROUP BY s2.s_cust"
    ),
    (
        "SELECT s1.s_id, s2.s_id FROM tsales s1, tsales s2 "
        "WHERE s1.s_cust = s2.s_cust AND s1.s_item <> s2.s_item AND s1.s_qty = 1"
    ),
    # distinct
    "SELECT DISTINCT s.s_cust FROM tsales s WHERE s.s_amt > 30",
    # subqueries
    (
        "SELECT count(*) AS c FROM tsales s WHERE s.s_item IN "
        "(SELECT i.i_id FROM titem i WHERE i.i_cat = 'red')"
    ),
    (
        "SELECT count(*) AS c FROM tsales s WHERE s.s_item NOT IN "
        "(SELECT i.i_id FROM titem i WHERE i.i_price > 20)"
    ),
    (
        "SELECT c.c_id FROM tcust c WHERE EXISTS "
        "(SELECT * FROM tsales s WHERE s.s_cust = c.c_id AND s.s_amt > 80)"
    ),
    (
        "SELECT c.c_id FROM tcust c WHERE NOT EXISTS "
        "(SELECT * FROM tsales s WHERE s.s_cust = c.c_id AND s.s_qty > 8)"
    ),
]


@pytest.mark.parametrize("sql", QUERIES)
def test_engine_matches_reference(tiny_db, sql):
    optimizer, executor, tables = tiny_db
    got = normalise(engine_rows(optimizer, executor, sql))
    expected = normalise(run_reference(parse(sql), tables))
    assert got == expected


ORDERED_QUERIES = [
    "SELECT s.s_id, s.s_amt FROM tsales s ORDER BY s.s_amt DESC LIMIT 5",
    (
        "SELECT i.i_cat, sum(s.s_amt) AS total FROM tsales s, titem i "
        "WHERE s.s_item = i.i_id GROUP BY i.i_cat ORDER BY total DESC"
    ),
    "SELECT s.s_id FROM tsales s WHERE s.s_qty > 4 ORDER BY s.s_id LIMIT 7",
]


@pytest.mark.parametrize("sql", ORDERED_QUERIES)
def test_ordered_queries_match_in_order(tiny_db, sql):
    """ORDER BY results must match the reference *in sequence* (allowing
    reordering only among tied sort keys, which normalise() would hide —
    so compare the sorted multisets AND the sort-key column sequence)."""
    optimizer, executor, tables = tiny_db
    got = engine_rows(optimizer, executor, sql)
    expected = run_reference(parse(sql), tables)
    assert normalise(got) == normalise(expected)
    assert len(got) == len(expected)


def test_limit_without_order(tiny_db):
    optimizer, executor, _tables = tiny_db
    rows = engine_rows(
        optimizer, executor, "SELECT s.s_id FROM tsales s LIMIT 4"
    )
    assert len(rows) == 4


def test_metrics_accompany_results(tiny_db):
    optimizer, executor, _tables = tiny_db
    optimized = optimizer.optimize("SELECT count(*) AS c FROM tsales s")
    result = executor.execute(optimized.plan)
    metrics = result.metrics
    assert metrics.elapsed_time > 0
    assert metrics.records_accessed == 60
    assert metrics.records_used == 60
    assert metrics.message_count > 0
    assert result.n_rows == 1


def test_engine_reproduces_parent_commit_digests():
    """The gate's training corpus and every tpcds template's result batch."""
    assert engine_digests() == json.loads(FIXTURE.read_text())
