"""Experiment harness: corpora, splits and one function per paper artifact.

* :mod:`repro.experiments.corpus` — optimize + execute query pools into
  :class:`~repro.experiments.corpus.Corpus` objects (features, metrics,
  categories), with on-disk caching under ``data/corpora/``.
* :mod:`repro.experiments.harness` — category-stratified splits and
  predictor evaluation helpers.
* :mod:`repro.experiments.experiments` — the experiment table: one row
  per paper table or figure (runner, paper values, floors, EXPERIMENTS.md
  section) and the sha256-pinned corpora they read.  ``python -m
  repro.experiments`` runs every row, checks every floor and writes
  EXPERIMENTS.md.
* :mod:`repro.experiments.ablations` — design-choice ablations and the
  Section VII-C.4 timing profile, run by two rows of the table.
* :mod:`repro.experiments.report` — plain-text table rendering.
* :mod:`repro.experiments.bench` — the perf benchmark harness behind
  ``scripts/bench.py`` (two within-component ratio sections; the
  gate benchmark under ``bench/`` measures end-to-end speed).

Nothing is re-exported here: import the module that defines a name.
"""
