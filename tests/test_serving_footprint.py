"""What a serving process imports and holds.

The predictor answers before a query runs, from the optimizer's plan, and
the plan reads catalog statistics only.  So a process that loads an
artifact and forecasts — in process, batched, or through the daemon —
imports none of the training side (corpus builder, workload-spec reader,
pool generator, catalog generators, engine, lint packs, process pools),
and generates no table rows until it is asked to execute something.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import QueryPerformancePredictor
from repro.errors import CatalogError
from repro.workloads.generator import generate_pool
from repro.workloads.tpcds import build_tpcds_catalog

#: Modules (and their submodules) a serving process must never import:
#: the training side, process pools, and the stdlib HTTP stacks (the
#: daemon, its client and the supervisor frame HTTP in
#: ``repro.serve.wire``; ``http.client`` would pull in ``ssl``, and
#: either one ``email``).
UNSERVED_MODULES = (
    "repro.experiments",
    "repro.workloads.spec",
    "repro.workloads.generator",
    "repro.workloads.tpcds",
    "repro.workloads.customer",
    "repro.workloads.templates",
    "repro.engine.executor",
    "repro.engine.operators",
    "repro.core.online",
    "repro.core.regression",
    "repro.analysis.codebase",
    "repro.analysis.concurrency",
    "repro.analysis.runner",
    "repro.storage.shared",
    "multiprocessing",
    "concurrent.futures",
    "numpy.random",
    "http.server",
    "http.client",
    "ssl",
    "email",
)

SQLS = [
    "SELECT count(*) AS c FROM store_sales ss WHERE ss.ss_quantity > 30",
    "SELECT i.i_category, sum(ss.ss_sales_price) AS s FROM store_sales ss, "
    "item i WHERE ss.ss_item_sk = i.i_item_sk GROUP BY i.i_category",
    "SELECT count(*) AS c FROM item i",
]

#: Loads the artifact named by argv[1], forecasts one statement, a batch
#: and one daemon request, then prints the modules it has imported.
SERVE = """
import json, sys
import repro.cli
from repro.api import QueryPerformancePredictor
from repro.serve import PredictionDaemon, ServeClient
sqls = json.loads(sys.argv[2])
service = QueryPerformancePredictor.load(sys.argv[1])
service.forecast(sqls[0])
service.forecast_many(sqls)
daemon = PredictionDaemon(artifact=sys.argv[1])
daemon.start()
try:
    with ServeClient(*daemon.address) as client:
        client.forecast(sqls[1])
finally:
    daemon.stop()
print(json.dumps(sorted(sys.modules)))
"""


def _environment() -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The gate-sized model (``tpcds``, 300 queries, scale 0.05, seed 7),
    trained here and saved for the processes and loads below."""
    service = QueryPerformancePredictor.train_on_workload(
        "tpcds", n_queries=300, scale=0.05, seed=7
    )
    path = tmp_path_factory.mktemp("serving") / "model.npz"
    service.save(path)
    return service, path


def test_a_fresh_serving_process_imports_no_training_module(trained):
    _, path = trained
    result = subprocess.run(
        [sys.executable, "-c", SERVE, str(path), json.dumps(SQLS)],
        capture_output=True, text=True, env=_environment(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    found = [
        name for name in loaded
        if any(name == m or name.startswith(m + ".") for m in UNSERVED_MODULES)
    ]
    assert found == []


def test_statistics_only_forecasts_equal_those_over_the_rows(trained):
    """Bit for bit, on the gate's 600 statements: the statistics the
    artifact carries plan every statement as the recipe's catalog does."""
    _, path = trained
    sqls = [query.sql for query in generate_pool(600, seed=31)]
    rows = build_tpcds_catalog(scale_factor=0.05, seed=7)
    over_rows = QueryPerformancePredictor.load(path, catalog=rows)
    statistics_only = QueryPerformancePredictor.load(path)
    pairs = zip(
        sqls, statistics_only.forecast_many(sqls), over_rows.forecast_many(sqls)
    )
    assert [sql for sql, ours, theirs in pairs if repr(ours) != repr(theirs)] == []


def test_rows_are_generated_on_the_first_execution(trained):
    service, path = trained
    loaded = QueryPerformancePredictor.load(path)
    with pytest.raises(CatalogError, match="holds no rows"):
        loaded.catalog.table("store_sales")
    for sql in SQLS:
        assert loaded.measure(sql) == service.measure(sql)
    rows = loaded.executor.catalog.table("store_sales")
    assert rows.n_rows == service.catalog.stats("store_sales").row_count
    assert repr(loaded.forecast_many(SQLS)) == repr(service.forecast_many(SQLS))


def test_a_loaded_service_trains_again_and_saves(trained, tmp_path):
    _, path = trained
    loaded = QueryPerformancePredictor.load(path)
    loaded.fit_pool(generate_pool(40, seed=3))
    again = tmp_path / "again.npz"
    loaded.save(again)
    reloaded = QueryPerformancePredictor.load(again)
    assert reloaded.pipeline.metadata["n_training_queries"] == 40
    assert repr(reloaded.forecast_many(SQLS)) == repr(loaded.forecast_many(SQLS))
