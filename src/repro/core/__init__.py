"""The paper's contribution: KCCA-based multi-metric query prediction.

Pipeline (Sections V–VI of the paper):

1. :mod:`repro.core.features` turns optimizer plans into query feature
   vectors (operator instance counts + estimated-cardinality sums) and
   executions into six-element performance vectors.
2. :mod:`repro.core.kernels` builds Gaussian kernel matrices with the
   paper's scale-factor heuristic.
3. :mod:`repro.core.kcca` solves the regularised KCCA generalised
   eigenproblem, yielding maximally correlated query / performance
   projections.
4. :mod:`repro.core.predictor` projects a new query, finds its k nearest
   training neighbours in the projection, and averages their *raw*
   performance vectors (sidestepping the kernel pre-image problem).

Baselines evaluated and rejected by the paper are implemented alongside:
per-metric linear regression (:mod:`repro.core.regression`), classical
CCA (:mod:`repro.core.cca`), and SQL-text features
(:mod:`repro.sql.text_features`).
"""
