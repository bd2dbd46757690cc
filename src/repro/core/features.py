"""Query feature vectors (paper Section VI-D, Figure 9).

The winning representation is built from the optimizer's query plan: for
every physical operator kind, an *instance count* and an *estimated
cardinality sum*.  E.g. a plan with two sorts of estimated cardinalities
3 000 and 45 000 contributes ``sort_count = 2`` and
``sort_cardinality = 48 000``.

The vector layout is fixed by the engine's operator vocabulary, so models
trained on one schema can score plans from another — which is what makes
the cross-schema transfer of Experiment 4 possible at all.

The vectors hold raw values, as in the paper.  With a Gaussian kernel the
raw encoding makes similarity be dominated by the largest cardinalities
(small queries collapse into one cluster), which is also what the paper's
projections show; the predictor therefore conditions them itself
(:class:`~repro.core.predictor.KCCAPredictor` ``log_features``), and the
``feature encoding`` ablation of the experiment table compares the
log-scaled and raw encodings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.plan import OperatorKind, PlanNode

__all__ = [
    "PLAN_FEATURE_NAMES",
    "plan_feature_vector",
    "plan_feature_matrix",
]

_KINDS = tuple(kind.value for kind in OperatorKind)

#: Column offset of each operator kind's (count, cardinality) pair.
_KIND_COLUMN = {kind: 2 * index for index, kind in enumerate(_KINDS)}

#: Feature names, in vector order: count then cardinality per operator.
PLAN_FEATURE_NAMES = tuple(
    name
    for kind in _KINDS
    for name in (f"{kind}_count", f"{kind}_cardinality")
)


def plan_feature_vector(plan: PlanNode) -> np.ndarray:
    """The 2-per-operator feature vector of one physical plan."""
    counts = plan.operator_counts()
    cardinalities = plan.cardinality_sums()
    values = []
    for kind in _KINDS:
        values.append(float(counts.get(kind, 0)))
        values.append(float(cardinalities.get(kind, 0.0)))
    return np.array(values, dtype=np.float64)


def plan_feature_matrix(plans: Sequence[PlanNode]) -> np.ndarray:
    """Feature matrix for many plans, shape (n_plans, 2 * n_kinds).

    The batch path of :func:`plan_feature_vector`: each plan is walked
    exactly once (filling its count and cardinality columns in place)
    instead of twice, and the matrix is preallocated rather than stacked —
    this is what ``forecast_many`` feeds the kernel with.
    """
    matrix = np.zeros((len(plans), len(PLAN_FEATURE_NAMES)), dtype=np.float64)
    for row, plan in enumerate(plans):
        out = matrix[row]
        for node in plan.walk():
            column = _KIND_COLUMN[node.kind.value]
            out[column] += 1.0
            out[column + 1] += float(node.estimated_rows)
    return matrix
