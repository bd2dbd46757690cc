"""The optimizer's template cache: a statement whose shape compiled before
is planned exactly as a fresh compile plans it.

``Optimizer.optimize(text)`` keeps each statement shape's analysis and, for
a later statement of that shape, copies it with the new literals and goes
straight to planning.  Every check here compares against a fresh compile
(``Optimizer(...).optimize(parse(text))``, which never meets the cache) on
``repr`` of the plan, cost, estimated rows, qualified query and warnings —
``repr`` so that ``Literal(1)`` and ``Literal(1.0)``, equal under ``==``,
still count as different — or on the error's type, message and position.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ParseError
from repro.optimizer.optimizer import Optimizer
from repro.sql.parser import parse
from repro.workloads.spec import builtin_workload_names, resolve_workload

from tests._template_digest import FIXTURE, template_digests

#: (spec, template) for every template of every built-in spec
TEMPLATES = [
    (name, template)
    for name in builtin_workload_names()
    for template in resolve_workload(name).templates
]


def outcome(compile_, sql: str) -> str:
    """The compile's plan, cost, estimate, query and warnings, or its error."""
    try:
        result = compile_(sql)
    except Exception as error:
        return repr((type(error).__name__, str(error), getattr(error, "position", None)))
    return repr(
        (result.plan, result.cost, result.estimated_rows, result.query, result.warnings)
    )


def fresh(catalog, config, sql: str) -> str:
    return outcome(lambda text: Optimizer(catalog, config).optimize(parse(text)), sql)


@pytest.fixture(scope="module")
def catalogs(tpcds_catalog, customer_catalog):
    return {
        name: customer_catalog
        if resolve_workload(name).spec.catalog.get("kind") == "customer"
        else tpcds_catalog
        for name in builtin_workload_names()
    }


@pytest.fixture(scope="module")
def warm(catalogs, config):
    """One optimizer per spec that has compiled three renders of each template."""
    optimizers = {name: Optimizer(catalog, config) for name, catalog in catalogs.items()}
    for name, template in TEMPLATES:
        rng = np.random.default_rng(5)
        for _ in range(3):
            optimizers[name].optimize(template.render(rng)[0])
    return optimizers


# ----------------------------------------------------------------------
# Against a fresh compile
# ----------------------------------------------------------------------


def test_every_template_warm_equals_fresh(warm, catalogs, config):
    for name, template in TEMPLATES:
        rng = np.random.default_rng(11)
        for _ in range(6):
            sql = template.render(rng)[0]
            assert outcome(warm[name].optimize, sql) == fresh(
                catalogs[name], config, sql
            ), sql
    stats = [optimizer.templates.stats() for optimizer in warm.values()]
    assert sum(s["hits"] for s in stats) > 2 * sum(s["misses"] for s in stats)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TEMPLATES), st.integers(0, 2**32 - 1))
def test_warm_cache_compile_equals_fresh_compile(warm, catalogs, config, case, seed):
    name, template = case
    sql = template.render(np.random.default_rng(seed))[0]
    assert outcome(warm[name].optimize, sql) == fresh(catalogs[name], config, sql)


#: Each place a literal can sit; every list is compiled three times over on
#: one optimizer, so later statements meet the analysis of earlier ones.
HAND_CASES = {
    "select-list CASE and HAVING": [
        "SELECT i.i_category, sum(CASE WHEN i.i_current_price > {} THEN 1 ELSE {} END)"
        " AS s FROM item i GROUP BY i.i_category HAVING count(*) > {}".format(*v)
        for v in ((10, 0, 5), (20, 1, 50), (99, 7, 0))
    ],
    "IN list, BETWEEN and unary minus": [
        "SELECT count(*) AS c FROM item i WHERE i.i_item_sk IN ({}, {}, {}) AND"
        " i.i_current_price BETWEEN {} AND {} AND i.i_manufact_id > -{}".format(*v)
        for v in ((1, 2, 3, 5, 50, 1), (7, 7, 9, 0, 10, 30), (100, 2, 3, 60, 20, 0))
    ],
    "IN subquery": [
        "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_item_sk IN (SELECT"
        f" i.i_item_sk FROM item i WHERE i.i_current_price > {a}) AND"
        f" ss.ss_quantity < {b}"
        for a, b in ((10, 50), (80, 5), (1, 99))
    ],
    "EXISTS and NOT EXISTS": [
        f"SELECT count(*) AS c FROM customer c WHERE c.c_birth_year > {a} AND {neg}"
        "EXISTS (SELECT 1 FROM store_sales ss WHERE ss.ss_customer_sk ="
        f" c.c_customer_sk AND ss.ss_quantity > {b})"
        for neg in ("", "NOT ")
        for a, b in ((1950, 10), (1980, 90), (1930, 1))
    ],
    "LIKE pattern and LIMIT": [
        f"SELECT i.i_item_sk FROM item i WHERE i.i_brand LIKE '{pattern}' AND"
        f" i.i_item_sk > {n} ORDER BY i.i_item_sk LIMIT {limit}"
        for pattern, n, limit in (
            ("a%", 5, 10), ("%b", 5, 10), ("a%", 50, 20), ("%b", 0, 10)
        )
    ],
    "1, 1.0, '1' and a doubled quote": [
        f"SELECT count(*) AS c FROM item i WHERE i.i_manufact_id = {value}"
        f" AND i.i_brand <> {text}"
        for value, text in (
            ("1", "'1'"), ("1.0", "'it''s'"), ("'1'", "'1'"), ("2", "'x'"),
            ("2.5", "'it''s'"), ("'it''s'", "'2'"), (".5", "''"),
        )
    ],
    "keyword case and comments between tokens": [
        "SELECT count(*) AS c FROM item i WHERE i.i_current_price > 5",
        "select COUNT(*) as c from ITEM I where I.I_CURRENT_PRICE > 6",
        "SELECT count(*) AS c -- the count\nFROM item i WHERE -- a note\n"
        "i.i_current_price > 7",
        "SELECT count(*)AS c FROM item i WHERE i.i_current_price>8",
    ],
    "ORDER BY that names a select item by its literal": [
        f"SELECT i.i_item_sk + {a} AS k FROM item i ORDER BY i.i_item_sk + {b}"
        for a, b in ((1, 1), (2, 2), (1, 2), (3, 3))
    ],
    "aggregates alike but for their literals": [
        f"SELECT sum(i.i_current_price * {a}) AS x, sum(i.i_current_price * {b}) AS y"
        " FROM item i"
        for a, b in ((2, 3), (2, 2), (4, 5), (6, 6))
    ],
    # JSON may carry a lone surrogate, which has no UTF-8 form.
    "a lone surrogate in a string literal and outside one": [
        f"SELECT count(*) AS c FROM item i WHERE i.i_brand = '\ud800{n}'"
        for n in range(3)
    ] + ["SELECT \ud800 FROM item i"],
}


@pytest.mark.parametrize("case", list(HAND_CASES))
def test_hand_cases_equal_fresh(tpcds_catalog, config, case):
    optimizer = Optimizer(tpcds_catalog, config)
    for _ in range(3):
        for sql in HAND_CASES[case]:
            assert outcome(optimizer.optimize, sql) == fresh(tpcds_catalog, config, sql)


def test_a_chain_as_deep_as_the_analysis_allows(tpcds_catalog, config):
    """The template walk recurses one frame per nesting level, as the
    analysis does: what compiles once compiles on every sighting (a
    walk of two frames a level raised RecursionError on the second)."""
    optimizer = Optimizer(tpcds_catalog, config)
    for n in range(4):
        sql = _WHERE.format(f"{n}+" + "+".join(["1"] * 600))
        warm = optimizer.optimize(sql)
        cold = Optimizer(tpcds_catalog, config).optimize(parse(sql))
        assert (warm.cost, warm.estimated_rows) == (cold.cost, cold.estimated_rows)
    assert optimizer.templates.stats()["hits"] == 2


def test_a_key_marking_other_tokens_than_the_parser_is_never_rebound(
    tpcds_catalog, config, monkeypatch
):
    """Which NUMBER and STRING tokens become literals is the parser's call.
    A key that marks others — here a LIMIT count too, as if the shape's
    rule had drifted from the grammar — is held but never rebound."""
    import repro.optimizer.optimizer as optimizer_module

    shape = optimizer_module.shape

    def drifted(text):
        key, values, pairs = shape(text)
        at = key.index("LIMIT") + 1
        return key[:at] + (int,) + key[at + 1:], values + [int(key[at])], pairs

    monkeypatch.setattr(optimizer_module, "shape", drifted)
    optimizer = Optimizer(tpcds_catalog, config)
    for n, limit in ((5, 10), (6, 20), (7, 30), (8, 40)):
        sql = f"SELECT i.i_item_sk FROM item i WHERE i.i_item_sk > {n} LIMIT {limit}"
        assert outcome(optimizer.optimize, sql) == fresh(tpcds_catalog, config, sql)
    assert optimizer.templates.stats()["hits"] == 0


def test_template_digests_reproduce_parent_commit(tpcds_catalog, customer_catalog, config):
    """Broken statements on a warm optimizer: the parent's plans and errors."""
    expected = json.loads(FIXTURE.read_text())
    assert sorted(expected) == builtin_workload_names()
    assert template_digests(tpcds_catalog, customer_catalog, config) == expected


# ----------------------------------------------------------------------
# Numbers too large for a float
# ----------------------------------------------------------------------

_WHERE = "SELECT count(*) AS c FROM item i WHERE i.i_item_sk > {}"
_LIMIT = "SELECT i.i_item_sk FROM item i LIMIT {}"

#: 309+ digits overflowed float() in the optimizer; 4 301+ overflowed int()
#: in the parser; a float literal that rounds to inf was planned as inf.
OVERFLOWS = {
    "literal, 400 digits": (_WHERE, "9" * 400),
    "literal, 5 000 digits": (_WHERE, "9" * 5000),
    "LIMIT, 400 digits": (_LIMIT, "9" * 400),
    "LIMIT, 5 000 digits": (_LIMIT, "9" * 5000),
    "float literal": (_WHERE, "9" * 400 + ".5"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_a_number_too_large_for_a_float_is_a_parse_error(tpcds_catalog, config, case):
    template, number = OVERFLOWS[case]
    sql = template.format(number)
    with pytest.raises(ParseError, match="too large for a float") as raised:
        parse(sql)
    assert raised.value.position == template.index("{")
    # An optimizer that knows the shape rejects it the same way.
    optimizer = Optimizer(tpcds_catalog, config)
    for _ in range(3):
        optimizer.optimize(template.format("7.5" if "." in number else "7"))
    assert optimizer.templates.stats()["hits"] == 1
    assert outcome(optimizer.optimize, sql) == fresh(tpcds_catalog, config, sql)


# ----------------------------------------------------------------------
# Bounds, invalidation, failures
# ----------------------------------------------------------------------


def test_two_thousand_shapes_stay_under_the_bound(tpcds_catalog, config):
    optimizer = Optimizer(tpcds_catalog, config)
    for n in range(2000):
        for value in (1, 2):
            optimizer.optimize(
                f"SELECT count(*) AS c FROM item t{n} WHERE t{n}.i_item_sk > {value}"
            )
        stats = optimizer.templates.stats()
        assert stats["size"] <= stats["max_entries"]
    assert stats["size"] == stats["max_entries"]


def test_a_catalog_version_bump_empties_the_cache(tpcds_catalog, config):
    optimizer = Optimizer(tpcds_catalog, config)
    sql = "SELECT count(*) AS c FROM item i WHERE i.i_item_sk > {}"
    for n in range(3):
        optimizer.optimize(sql.format(n))
    assert optimizer.templates.stats()["hits"] == 1
    tpcds_catalog.analyze("item")  # same rows, new version
    optimizer.optimize(sql.format(7))
    stats = optimizer.templates.stats()
    assert (stats["size"], stats["hits"]) == (1, 1)


def test_a_failing_statement_is_never_cached(tpcds_catalog, config):
    optimizer = Optimizer(tpcds_catalog, config)
    for sql in ("SELECT i.i_brand FROM item i GROUP BY i.i_item_sk + 1",
                "SELECT x FROM no_such_table t WHERE t.x > 1", "selec 1"):
        for _ in range(3):
            assert outcome(optimizer.optimize, sql) == fresh(tpcds_catalog, config, sql)
    assert optimizer.templates.stats()["size"] == 0


def test_threads_sharing_one_cache(tpcds_catalog, config):
    """Eight threads, switching every microsecond, on one optimizer: every
    plan is a fresh compile's and no lookup goes uncounted."""
    optimizer = Optimizer(tpcds_catalog, config)
    sqls = [
        template.render(np.random.default_rng(seed))[0]
        for name, template in TEMPLATES if name == "oltp"
        for seed in range(4)
    ]
    expected = {sql: fresh(tpcds_catalog, config, sql) for sql in sqls}
    mismatches: list[str] = []

    def work(offset: int) -> None:
        for sql in sqls[offset:] + sqls[:offset]:
            if outcome(optimizer.optimize, sql) != expected[sql]:
                mismatches.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
    stats = optimizer.templates.stats()
    assert stats["hits"] + stats["misses"] == 8 * len(sqls)
    assert stats["hits"] > 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def test_counts_after_repeats(tpcds_catalog, config):
    """First sighting and second (which admits the shape) miss; the rest
    hit.  A statement handed over as a tree never looks the cache up."""
    optimizer = Optimizer(tpcds_catalog, config)
    sql = "SELECT count(*) AS c FROM item i WHERE i.i_item_sk > {}"
    obs.reset_trace()
    obs.reset_metrics()
    obs.enable_tracing()
    obs.enable_metrics()
    try:
        for n in range(5):
            optimizer.optimize(sql.format(n))
        optimizer.optimize(parse(sql.format(9)))
        spans = [root for root in obs.drain_trace() if root.name == "optimizer.optimize"]
        snapshot = obs.metrics_snapshot()
    finally:
        obs.disable_tracing()
        obs.disable_metrics()
        obs.reset_metrics()
    assert [span.attributes.get("template") for span in spans] == [
        "miss", "miss", "hit", "hit", "hit", None
    ]
    assert snapshot["repro_optimizer_template_hits_total"]["value"] == 3
    assert snapshot["repro_optimizer_template_misses_total"]["value"] == 2
    stats = optimizer.templates.stats()
    assert (stats["size"], stats["hits"], stats["misses"]) == (1, 3, 2)
