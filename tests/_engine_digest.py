"""Digests of what the simulated engine produces on the gate's training set.

``engine_digests`` builds the fixed training corpus the gate benchmark
trains on (``tpcds``, 300 queries, scale 0.05, seed 7) and hashes its
performance, plan-feature and optimizer-cost matrices; it then executes
the first pool instance of every template in ``specs/tpcds.yaml`` and
hashes the result batch — column names, dtypes and bytes, in order.  The
checked-in fixture ``tests/fixtures/engine_digest.json`` was written by
running this file against the commit *before* the engine's sort-based key
kernels were replaced (PR 16)::

    PYTHONPATH=<parent checkout>/src python tests/_engine_digest.py

so the test that compares against it holds the rewrite to a bit-identical
corpus and bit-identical query answers.  Regenerate it only with a change
that means to alter one of those.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).parent / "fixtures" / "engine_digest.json"
#: the gate's training set (``bench/sizes.py``)
WORKLOAD = "tpcds"
N_QUERIES = 300
SCALE = 0.05
SEED = 7


def array_digest(array) -> str:
    """sha256 over an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    sha = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode("utf-8"))
    sha.update(array.tobytes())
    return sha.hexdigest()


def batch_digest(batch) -> str:
    """sha256 over a result batch: names, dtypes, shapes, bytes, in order."""
    sha = hashlib.sha256()
    for name, array in batch.columns.items():
        sha.update(name.encode("utf-8") + b"\x00")
        sha.update(array_digest(array).encode("ascii"))
    return sha.hexdigest()


def engine_digests() -> dict:
    """``{"corpus": {...matrix digests}, "templates": {name: batch digest}}``."""
    from repro.engine import Executor
    from repro.engine.system import research_4node
    from repro.experiments.corpus import build_corpus
    from repro.optimizer import Optimizer
    from repro.workloads.generator import generate_pool
    from repro.workloads.spec import build_catalog_for, resolve_workload

    compiled = resolve_workload(WORKLOAD)
    catalog = build_catalog_for(compiled.spec, scale=SCALE, seed=SEED)
    config = research_4node()
    pool = generate_pool(N_QUERIES, seed=SEED, workload=compiled)
    corpus = build_corpus(catalog, config, pool)
    optimizer = Optimizer(catalog, config)
    executor = Executor(catalog, config)
    first = {}
    for instance in pool:
        first.setdefault(instance.template, instance)
    templates = {}
    for template in compiled.templates:
        plan = optimizer.optimize(first[template.name].sql).plan
        templates[template.name] = batch_digest(executor.execute(plan).batch)
    return {
        "corpus": {
            "queries": len(corpus),
            "performance_sha256": array_digest(corpus.performance_matrix()),
            "features_sha256": array_digest(corpus.feature_matrix()),
            "optimizer_cost_sha256": array_digest(corpus.optimizer_costs()),
        },
        "templates": templates,
    }


if __name__ == "__main__":
    result = engine_digests()
    FIXTURE.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
