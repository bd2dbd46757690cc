"""Two-step prediction with query-type-specific models (Experiment 3).

Step 1: a first KCCA model classifies a new query as a feather, golf ball
or bowling ball by majority vote over its nearest neighbours' *categories*
(e.g. two feathers and a golf ball -> feather).

Step 2: the query is predicted by a second KCCA model trained only on
queries of that category.

The paper found this more accurate than the single model (predictive risk
0.82 vs 0.55 on elapsed time), at the cost of occasional misrouting for
queries near category boundaries — both behaviours are reproduced.

Prediction is batched: one router projection classifies every query, then
each specialist predicts all queries routed to it in one kernel-cross
evaluation (instead of one per query).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from repro.core.base import settings
from repro.core.predictor import KCCAPredictor, PredictionDetail
from repro.engine.metrics import METRIC_NAMES
from repro.errors import ModelError, NotFittedError
from repro.workloads.categories import QueryCategory, categorize

__all__ = ["TwoStepPredictor"]

_ELAPSED_INDEX = METRIC_NAMES.index("elapsed_time")

#: Categories with fewer training queries than this are folded into the
#: router model (their queries are still predictable; they just reuse the
#: global model).
MIN_CATEGORY_SIZE = 8


class TwoStepPredictor:
    """Classify query type, then predict with a type-specific model.

    Args:
        predictor_kwargs: forwarded to every inner :class:`KCCAPredictor`.
    """

    def __init__(self, **predictor_kwargs: object) -> None:
        self.predictor_kwargs = predictor_kwargs
        self._router: Optional[KCCAPredictor] = None
        self._categories: Optional[list[QueryCategory]] = None
        self._specialists: dict[QueryCategory, KCCAPredictor] = {}

    # ------------------------------------------------------------------

    def fit(
        self, query_features: np.ndarray, performance: np.ndarray
    ) -> "TwoStepPredictor":
        query_features = np.asarray(query_features, dtype=np.float64)
        performance = np.asarray(performance, dtype=np.float64)
        if query_features.shape[0] != performance.shape[0]:
            raise ModelError("feature and performance row counts differ")
        self._router = KCCAPredictor(**self.predictor_kwargs).fit(
            query_features, performance
        )
        elapsed = performance[:, _ELAPSED_INDEX]
        self._categories = [categorize(value) for value in elapsed]
        self._specialists = {}
        counts = Counter(self._categories)
        k = self._router.k_neighbors
        for category, count in counts.items():
            if count >= max(MIN_CATEGORY_SIZE, k + 1):
                member = np.array(
                    [c == category for c in self._categories], dtype=bool
                )
                specialist = KCCAPredictor(**self.predictor_kwargs)
                specialist.fit(query_features[member], performance[member])
                self._specialists[category] = specialist
        return self

    # ------------------------------------------------------------------

    @property
    def router(self) -> KCCAPredictor:
        """The global step-1 model; doubles as the confidence scorer."""
        if self._router is None:
            raise NotFittedError("TwoStepPredictor is not fitted")
        return self._router

    def _vote(self, details: list[PredictionDetail]) -> list[QueryCategory]:
        labels = []
        for detail in details:
            votes = Counter(
                self._categories[i] for i in detail.neighbor_indices
            )
            labels.append(votes.most_common(1)[0][0])
        return labels

    def classify(self, query_features: np.ndarray) -> list[QueryCategory]:
        """Step 1: majority-vote category of each query's neighbours."""
        if self._router is None or self._categories is None:
            raise NotFittedError("TwoStepPredictor is not fitted")
        return self._vote(self._router.predict_detailed(query_features))

    def predict_batch(
        self, query_features: np.ndarray
    ) -> tuple[np.ndarray, list[PredictionDetail]]:
        """Batched step-2 predictions plus the router's neighbour details.

        The router projects every query once; queries are then grouped by
        predicted category and each specialist scores its whole group in
        one kernel-cross evaluation.  Queries whose category has no
        specialist reuse the router's own neighbour predictions, so they
        cost nothing extra.
        """
        if self._router is None or self._categories is None:
            raise NotFittedError("TwoStepPredictor is not fitted")
        features = np.atleast_2d(np.asarray(query_features, dtype=np.float64))
        details = self._router.predict_detailed(features)
        labels = self._vote(details)
        predictions = np.empty((features.shape[0], len(METRIC_NAMES)))
        groups: dict[QueryCategory, list[int]] = {}
        for index, label in enumerate(labels):
            groups.setdefault(label, []).append(index)
        for label, rows in groups.items():
            specialist = self._specialists.get(label)
            if specialist is None:
                for index in rows:
                    predictions[index] = details[index].prediction
            else:
                predictions[rows] = specialist.predict(features[rows])
        return predictions, details

    def predict(self, query_features: np.ndarray) -> np.ndarray:
        """Step 2: per-category specialist prediction (router fallback)."""
        predictions, _details = self.predict_batch(query_features)
        return predictions

    @property
    def trained_categories(self) -> tuple[QueryCategory, ...]:
        """Categories that received their own specialist model."""
        return tuple(sorted(self._specialists, key=lambda c: c.value))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Hyper-parameters plus router/specialist states when fitted."""
        fitted = None
        if self._router is not None:
            fitted = {
                "router": self._router.state_dict(),
                "categories": [c.value for c in self._categories],
                "specialists": {
                    category.value: model.state_dict()
                    for category, model in self._specialists.items()
                },
            }
        return {
            "config": {"predictor_kwargs": dict(self.predictor_kwargs)},
            "fitted": fitted,
        }

    def load_state_dict(self, state: dict) -> "TwoStepPredictor":
        """Restore a :meth:`state_dict` export (inverse operation).

        Raises:
            ModelError: the config holds a key beside ``predictor_kwargs``
                (but for the retired ``min_category_size``, which is
                dropped), or ``predictor_kwargs`` one that
                :class:`KCCAPredictor` does not take.
        """
        config = dict(state["config"])
        config.pop("min_category_size", None)  # now MIN_CATEGORY_SIZE
        predictor_kwargs = settings(config.pop("predictor_kwargs"))
        if config:
            raise ModelError(f"unknown two-step setting(s) {sorted(config)}")
        try:
            KCCAPredictor(**predictor_kwargs)
        except TypeError as error:
            raise ModelError(f"two-step predictor_kwargs: {error}") from None
        self.__init__(**predictor_kwargs)
        fitted = state.get("fitted")
        if fitted is not None:
            self._router = KCCAPredictor().load_state_dict(fitted["router"])
            self._categories = [
                QueryCategory(value) for value in fitted["categories"]
            ]
            self._specialists = {
                QueryCategory(value): KCCAPredictor().load_state_dict(sub)
                for value, sub in fitted["specialists"].items()
            }
        return self
