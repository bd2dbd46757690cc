"""repro — reproduction of "Predicting Multiple Metrics for Queries:
Better Decisions Enabled by Machine Learning" (Ganapathi et al., ICDE
2009).

The package contains both the paper's contribution and every substrate it
depends on:

* :mod:`repro.sql` / :mod:`repro.storage` / :mod:`repro.engine` /
  :mod:`repro.optimizer` — a from-scratch simulated shared-nothing
  parallel DBMS (the HP Neoview stand-in) that parses, plans and actually
  executes SQL over generated data while measuring the paper's six
  performance metrics.
* :mod:`repro.workloads` — TPC-DS-like database, query templates
  (standard + "problem query"), and the separate customer schema.
* :mod:`repro.core` — KCCA prediction plus the baselines the experiments
  run (linear regression, CCA, SQL-text features).
* :mod:`repro.experiments` — the experiment table, one row per paper
  table/figure (`python -m repro.experiments`).

Quickstart::

    from repro import QueryPerformancePredictor

    predictor = QueryPerformancePredictor.train_on_tpcds(n_queries=200)
    report = predictor.explain("SELECT count(*) FROM store_sales ss ...")
    print(report)

No package here imports a sibling submodule when it is imported: a name
a package re-exports (``from repro.serve import ServeClient``) is
resolved on first use (PEP 562), so a process pays for the layers it
calls and a serving process never loads the corpus builder, the
workload-spec reader or the code-base lint packs.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``: each name of ``exports``
    (name -> defining submodule, relative to ``package``) is looked up in
    that submodule, which is imported the first time one of its names is."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{module}"), name)

    return __getattr__


_EXPORTS = {"QueryPerformancePredictor": "api"}
__all__ = [*_EXPORTS, "__version__"]
__getattr__ = lazy_exports(__name__, _EXPORTS)
