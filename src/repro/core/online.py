"""Sliding-window online retraining (paper Section VIII future work).

The paper plans "techniques to make KCCA more amenable to continuous
retraining (e.g., to reflect recently executed queries) ... a sliding
training set of data with a larger emphasis on more recently executed
queries".  This module implements exactly that:

* a bounded FIFO window of the most recent (features, performance)
  observations;
* periodic refits (every ``refit_interval`` new observations) so the
  cubic KCCA solve is amortised over many insertions;
* optional recency emphasis: recent observations are duplicated in the
  fit, increasing their weight in the kernel without changing the
  prediction-time machinery.

The ``sec8-online`` row of the experiment table
(:func:`repro.experiments.experiments.sec8_online_retraining`) shows the
effect on a workload whose system "drifts" mid-stream (e.g. after the OS
upgrade that hurt the paper's bowling-ball predictions in Figure 10).
The predictor is an experiment, not a service model: it is never saved.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.predictor import KCCAPredictor
from repro.errors import ModelError, NotFittedError

if TYPE_CHECKING:  # runtime wiring only; avoids a core -> obs import
    from repro.obs.drift import DriftMonitor

__all__ = ["OnlinePredictor"]


class OnlinePredictor:
    """KCCA predictor over a sliding window of recent observations.

    Args:
        window_size: maximum observations kept.
        refit_interval: refit after this many new observations (1 =
            always fresh, larger = cheaper).
        recency_boost: most-recent fraction of the window duplicated at
            fit time (0 disables the emphasis).
        predictor_kwargs: forwarded to the inner :class:`KCCAPredictor`.
    """

    def __init__(
        self,
        window_size: int = 500,
        refit_interval: int = 25,
        recency_boost: float = 0.0,
        min_fit_size: int = 20,
        **predictor_kwargs: object,
    ) -> None:
        if window_size < 4:
            raise ModelError("window_size must be at least 4")
        if refit_interval < 1:
            raise ModelError("refit_interval must be >= 1")
        if not 0.0 <= recency_boost <= 1.0:
            raise ModelError("recency_boost must be in [0, 1]")
        self.window_size = window_size
        self.refit_interval = refit_interval
        self.recency_boost = recency_boost
        self.min_fit_size = min_fit_size
        self.predictor_kwargs = predictor_kwargs
        self._features: deque[np.ndarray] = deque(maxlen=window_size)
        self._performance: deque[np.ndarray] = deque(maxlen=window_size)
        self._since_refit = 0
        self._model: Optional[KCCAPredictor] = None
        self.refit_count = 0
        # Runtime-only wiring: a DriftMonitor fed with each observation's
        # pre-refit residual; see set_monitor().
        self._monitor: Optional["DriftMonitor"] = None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._features)

    @property
    def is_ready(self) -> bool:
        """True once enough observations arrived to fit a model."""
        return self._model is not None

    @property
    def model(self) -> KCCAPredictor:
        """The most recently fitted inner model."""
        if self._model is None:
            raise NotFittedError(
                "OnlinePredictor has not seen enough observations"
            )
        return self._model

    def fit(
        self, query_features: np.ndarray, performance: np.ndarray
    ) -> "OnlinePredictor":
        """Bulk-load a training set through the sliding window.

        Observes every row in order (respecting the window bound), then
        forces a refit so the model reflects the final window.
        """
        query_features = np.atleast_2d(
            np.asarray(query_features, dtype=np.float64)
        )
        performance = np.atleast_2d(np.asarray(performance, dtype=np.float64))
        if query_features.shape[0] != performance.shape[0]:
            raise ModelError("feature and performance row counts differ")
        for row in range(query_features.shape[0]):
            self._features.append(query_features[row].copy())
            self._performance.append(performance[row].copy())
            self._since_refit += 1
        if len(self._features) < self.min_fit_size:
            raise ModelError(
                f"fit needs at least {self.min_fit_size} observations"
            )
        self._refit()
        return self

    def set_monitor(
        self, monitor: Optional["DriftMonitor"]
    ) -> "OnlinePredictor":
        """Attach a :class:`repro.obs.drift.DriftMonitor` (or None).

        Every subsequent :meth:`observe` first predicts the incoming
        query with the *current* model and feeds the (predicted, actual)
        pair to the monitor — the residual a live deployment would see,
        measured before the observation can influence a refit.  The
        monitor is runtime wiring, not part of the model.
        """
        self._monitor = monitor
        return self

    @property
    def monitor(self) -> Optional["DriftMonitor"]:
        """The attached drift monitor, or None."""
        return self._monitor

    def observe(
        self, features: np.ndarray, performance: np.ndarray
    ) -> None:
        """Record one executed query; refits when the interval elapses."""
        features = np.asarray(features, dtype=float).ravel()
        performance = np.asarray(performance, dtype=float).ravel()
        if self._features and len(features) != len(self._features[0]):
            raise ModelError("feature width changed mid-stream")
        if self._monitor is not None and self._model is not None:
            predicted = self._model.predict(features[None, :])[0]
            self._monitor.record(predicted, performance)
        self._features.append(features)
        self._performance.append(performance)
        self._since_refit += 1
        should_fit = len(self._features) >= self.min_fit_size and (
            self._model is None or self._since_refit >= self.refit_interval
        )
        if should_fit:
            self._refit()

    def _refit(self) -> None:
        features = np.vstack(self._features)
        performance = np.vstack(self._performance)
        if self.recency_boost > 0.0:
            boost_count = max(int(len(features) * self.recency_boost), 1)
            features = np.vstack([features, features[-boost_count:]])
            performance = np.vstack([performance, performance[-boost_count:]])
        self._model = KCCAPredictor(**self.predictor_kwargs).fit(
            features, performance
        )
        self._since_refit = 0
        self.refit_count += 1

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict with the most recent fitted model."""
        return self.model.predict(features)
