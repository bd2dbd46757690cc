"""Digests of what the statement front end produces, per built-in spec.

``frontend_digests`` parses and plans a seeded pool from every spec in
``specs/*.yaml`` and hashes ``repr(parse(sql))`` and
``repr((plan, cost, estimated_rows, warnings))``; it also breaks every
statement with one seeded word-level edit and hashes what ``parse`` then
does — the AST, or the error's type, message and position.  The checked-in
fixture ``tests/fixtures/frontend_digest.json`` was written by running
this file against the commit *before* the front-end rewrite (PR 14)::

    PYTHONPATH=<parent checkout>/src python tests/_frontend_digest.py

so the test that compares against it holds the rewrite to bit-identical
ASTs, plans, costs, estimates, warnings and parse errors.  Regenerate it
only with a change that means to alter one of those.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

FIXTURE = Path(__file__).parent / "fixtures" / "frontend_digest.json"
POOL_SIZE = 400
POOL_SEED = 1409
#: catalog recipes of ``tests/conftest.py`` (``tpcds_catalog`` / ``customer_catalog``)
TPCDS_RECIPE = {"scale_factor": 0.15, "seed": 123}
CUSTOMER_RECIPE = {"seed": 321, "scale": 0.3}


#: what a broken statement may get in place of (or next to) one of its words
_JUNK = (
    "(", ")", ",", ".", "=", "<>", "!", "-", "*", "'", "'x'", "1.5", "7",
    "x", "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN",
    "LIKE", "IS", "NULL", "CASE", "WHEN", "END", "EXISTS", "AS", "BY",
    "LIMIT", "DISTINCT", "JOIN", "ON", "--",
)


def break_statement(sql: str, rng: random.Random) -> str:
    """``sql`` with one word dropped, doubled, swapped or replaced."""
    words = sql.split()
    at = rng.randrange(len(words))
    edit = rng.randrange(4)
    if edit == 0:
        del words[at]
    elif edit == 1:
        words.insert(at, words[at])
    elif edit == 2 and at + 1 < len(words):
        words[at], words[at + 1] = words[at + 1], words[at]
    else:
        words[at] = rng.choice(_JUNK)
    return " ".join(words)


def parse_outcome(sql: str) -> str:
    """What ``parse`` makes of ``sql``: the AST or the typed error."""
    from repro.errors import SQLError
    from repro.sql.parser import parse

    try:
        return repr(parse(sql))
    except SQLError as error:
        return repr((type(error).__name__, str(error), error.position))


def frontend_digests(tpcds_catalog, customer_catalog, config) -> dict:
    """``{spec: {"statements", "templates", "parse_sha256", "plan_sha256",
    "broken_sha256"}}``."""
    from repro.optimizer import Optimizer
    from repro.sql.parser import parse
    from repro.workloads.generator import generate_pool
    from repro.workloads.spec import builtin_workload_names, resolve_workload

    digests = {}
    for name in builtin_workload_names():
        kind = resolve_workload(name).spec.catalog.get("kind")
        catalog = customer_catalog if kind == "customer" else tpcds_catalog
        optimizer = Optimizer(catalog, config)
        parsed = hashlib.sha256()
        planned = hashlib.sha256()
        broken = hashlib.sha256()
        rng = random.Random(POOL_SEED)
        pool = generate_pool(POOL_SIZE, seed=POOL_SEED, workload=name)
        for instance in pool:
            parsed.update(repr(parse(instance.sql)).encode("utf-8"))
            result = optimizer.optimize(instance.sql)
            planned.update(
                repr(
                    (result.plan, result.cost, result.estimated_rows, result.warnings)
                ).encode("utf-8")
            )
            broken.update(
                parse_outcome(break_statement(instance.sql, rng)).encode("utf-8")
            )
        digests[name] = {
            "statements": len(pool),
            "templates": len({instance.template for instance in pool}),
            "parse_sha256": parsed.hexdigest(),
            "plan_sha256": planned.hexdigest(),
            "broken_sha256": broken.hexdigest(),
        }
    return digests


if __name__ == "__main__":
    from repro.engine.system import research_4node
    from repro.workloads.customer import build_customer_catalog
    from repro.workloads.tpcds import build_tpcds_catalog

    result = frontend_digests(
        build_tpcds_catalog(**TPCDS_RECIPE),
        build_customer_catalog(**CUSTOMER_RECIPE),
        research_4node(),
    )
    FIXTURE.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
