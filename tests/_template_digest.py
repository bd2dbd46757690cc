"""Digests of what a warm optimizer makes of broken statements, per spec.

``template_digests`` warms one optimizer per built-in spec on the seeded
pool of ``tests/_frontend_digest.py`` (every statement compiled three
times, so every shape's analysis is cached), then compiles each statement
broken by ``break_statement`` three times over and hashes every outcome:
the plan, cost, estimated rows and warnings, or the error's type, message
and position.  The checked-in fixture ``tests/fixtures/template_digest.json``
was written by running this file against the commit *before* the
optimizer cached analyses by statement shape, from the repository root::

    PYTHONPATH=<parent checkout>/src python -m tests._template_digest

so the test that compares against it holds a compile that meets a known
shape to the outcome of one that does not.  Regenerate it only with a
change that means to alter one of those outcomes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from tests._frontend_digest import (
    CUSTOMER_RECIPE,
    POOL_SEED,
    POOL_SIZE,
    TPCDS_RECIPE,
    break_statement,
)

FIXTURE = Path(__file__).parent / "fixtures" / "template_digest.json"
BREAK_SEED = 2603
#: compiles of each statement: the third meets a cached analysis
REPEATS = 3


def compile_outcome(optimizer, sql: str) -> str:
    """What ``optimizer.optimize(sql)`` makes of ``sql``: the plan or the error."""
    try:
        result = optimizer.optimize(sql)
    except Exception as error:  # the parent's outcome, whatever it was
        position = getattr(error, "position", None)
        return repr((type(error).__name__, str(error), position))
    return repr((result.plan, result.cost, result.estimated_rows, result.warnings))


def template_digests(tpcds_catalog, customer_catalog, config) -> dict:
    """``{spec: {"statements", "broken_sha256"}}``."""
    from repro.optimizer import Optimizer
    from repro.workloads.generator import generate_pool
    from repro.workloads.spec import builtin_workload_names, resolve_workload

    digests = {}
    for name in builtin_workload_names():
        kind = resolve_workload(name).spec.catalog.get("kind")
        catalog = customer_catalog if kind == "customer" else tpcds_catalog
        optimizer = Optimizer(catalog, config)
        pool = generate_pool(POOL_SIZE, seed=POOL_SEED, workload=name)
        for _ in range(REPEATS):
            for instance in pool:
                optimizer.optimize(instance.sql)
        rng = random.Random(BREAK_SEED)
        broken = hashlib.sha256()
        for instance in pool:
            sql = break_statement(instance.sql, rng)
            for _ in range(REPEATS):
                broken.update(compile_outcome(optimizer, sql).encode("utf-8"))
        digests[name] = {
            "statements": len(pool),
            "broken_sha256": broken.hexdigest(),
        }
    return digests


if __name__ == "__main__":
    from repro.engine.system import research_4node
    from repro.workloads.customer import build_customer_catalog
    from repro.workloads.tpcds import build_tpcds_catalog

    result = template_digests(
        build_tpcds_catalog(**TPCDS_RECIPE),
        build_customer_catalog(**CUSTOMER_RECIPE),
        research_4node(),
    )
    FIXTURE.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
