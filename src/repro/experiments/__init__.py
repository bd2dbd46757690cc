"""Experiment harness: corpora, splits and one function per paper artifact.

* :mod:`repro.experiments.corpus` — optimize + execute query pools into
  :class:`~repro.experiments.corpus.Corpus` objects (features, metrics,
  categories), with on-disk caching under ``data/corpora/``.
* :mod:`repro.experiments.harness` — category-stratified splits and
  predictor evaluation helpers.
* :mod:`repro.experiments.experiments` — ``fig2`` .. ``fig17`` and the
  three design-choice tables; each returns a result object the benchmark
  suite prints and EXPERIMENTS.md records.
* :mod:`repro.experiments.report` — plain-text table rendering.
* :mod:`repro.experiments.bench` — the perf benchmark harness behind
  ``scripts/bench.py`` (two within-component ratio sections; the
  gate benchmark under ``bench/`` measures end-to-end speed).

Nothing is re-exported here: import the module that defines a name.
"""
