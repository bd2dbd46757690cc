"""Workloads: TPC-DS-like database, query templates and query pools.

* :mod:`repro.workloads.tpcds` — scaled-down TPC-DS-style star schema and
  deterministic data generator (the paper's training/test database).
* :mod:`repro.workloads.spec` — declarative workload specifications:
  schema-versioned YAML/JSON files declaring tables, value pools,
  parameterised templates with per-placeholder value strategies, family
  tags and mix weights (``specs/*.yaml``).
* :mod:`repro.workloads.templates` — accessors for the TPC-DS spec's
  standard decision-support mix and the "problem query" templates the
  paper wrote to manufacture long-running golf balls and bowling balls.
* :mod:`repro.workloads.generator` — compiled-spec instantiation into
  query pools.
* :mod:`repro.workloads.categories` — feather / golf ball / bowling ball
  categorisation by measured elapsed time (paper Figure 2).
* :mod:`repro.workloads.customer` — a separate customer schema and
  workload for the cross-schema transfer experiment (Experiment 4).
"""
