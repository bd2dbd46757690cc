"""Graceful degradation at serve time: KCCA → regression → cost heuristic.

The LinkedIn operability study (PAPERS.md) found that deployed learned
predictors fail operationally — stale artifacts, drifted workloads —
far more often than they fail statistically; and *Can the Optimizer Cost
be Used to Predict Query Execution Times?* shows the optimizer's own
cost estimate, calibrated, is a usable coarse predictor.  Together they
dictate the serving posture implemented here: never refuse a forecast,
degrade through progressively simpler models and *say which one
answered*.

:class:`FallbackChain` is a drop-in :class:`~repro.core.base.Model`
wrapping three stages, each behind its own
:class:`~repro.resilience.breaker.CircuitBreaker`:

1. ``kcca`` — the paper's primary predictor (any Model: KCCA, two-step,
   online);
2. ``regression`` — the per-metric least-squares baseline of Section
   V-A (coarse, negative-clipped, but independent of the kernel
   machinery);
3. ``heuristic`` — calibrated optimizer cost mapped to seconds, scaling
   the training corpus's median metric profile; pure arithmetic, the
   last resort that cannot meaningfully fail.

A stage is skipped while its breaker is open; a breaker opens after
consecutive failures *or* when an attached
:class:`~repro.obs.drift.DriftMonitor` reports degradation, then probes
(half-open) and closes again once the stage heals.  Every prediction is
labelled with the stage that served it, surfaced through
``PredictionPipeline.score_many`` → ``api.forecast_many`` → the CLI.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from repro.core.base import SerializableModel, model_class, register_model
from repro.core.calibration import CostCalibrator
from repro.core.predictor import KCCAPredictor
from repro.core.regression import MultiMetricRegression
from repro.engine.metrics import METRIC_NAMES
from repro.errors import ModelError, NotFittedError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.seam import stage as _stage
from repro.resilience.breaker import CircuitBreaker

__all__ = ["FallbackChain", "CostHeuristicPredictor", "STAGE_NAMES"]

#: Chain stages in degradation order.
STAGE_NAMES = ("kcca", "regression", "heuristic")

_ELAPSED_INDEX = METRIC_NAMES.index("elapsed_time")


@register_model
class CostHeuristicPredictor(SerializableModel):
    """Last-resort predictor from the optimizer's cost estimate alone.

    Training stores the corpus's per-metric *median profile*; when
    optimizer costs are available a fitted
    :class:`~repro.core.calibration.CostCalibrator` maps each cost to
    calibrated seconds and the profile is scaled proportionally (a query
    predicted to run 4x the median elapsed time is charged 4x the median
    I/Os, messages, ...).  Without costs the raw median profile is
    returned — maximally coarse, never unavailable.
    """

    def __init__(self) -> None:
        self._profile: Optional[np.ndarray] = None
        self._calibrator: Optional[CostCalibrator] = None

    @property
    def is_calibrated(self) -> bool:
        """Whether a cost→seconds calibration is fitted."""
        return self._calibrator is not None

    def fit(
        self, query_features: np.ndarray, performance: np.ndarray
    ) -> "CostHeuristicPredictor":
        """Store the training median metric profile (features unused)."""
        performance = np.atleast_2d(np.asarray(performance, dtype=np.float64))
        if performance.shape[0] < 1:
            raise ModelError("fit requires at least one performance row")
        self._profile = np.median(performance, axis=0)
        return self

    def fit_costs(
        self, optimizer_costs: np.ndarray, elapsed: np.ndarray
    ) -> "CostHeuristicPredictor":
        """Fit the optimizer-cost → seconds calibration (Section VIII)."""
        self._calibrator = CostCalibrator().fit(optimizer_costs, elapsed)
        return self

    def predict(
        self,
        query_features: np.ndarray,
        optimizer_costs: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(n, n_metrics) heuristic predictions.

        With costs and a calibration, each row is the median profile
        scaled by ``calibrated_seconds / median_elapsed``; otherwise the
        unscaled profile.
        """
        if self._profile is None:
            raise NotFittedError("CostHeuristicPredictor is not fitted")
        n = np.atleast_2d(np.asarray(query_features)).shape[0]
        predictions = np.tile(self._profile, (n, 1)).astype(np.float64)
        if optimizer_costs is not None and self._calibrator is not None:
            seconds = self._calibrator.predict_seconds(
                np.asarray(optimizer_costs, dtype=np.float64).ravel()
            )
            median_elapsed = max(self._profile[_ELAPSED_INDEX], 1e-9)
            scale = seconds / median_elapsed
            predictions *= scale[:, None]
            predictions[:, _ELAPSED_INDEX] = seconds
        return predictions

    # -- persistence (Model protocol) -----------------------------------

    def state_dict(self) -> dict:
        return {
            "config": {},
            "fitted": (
                None
                if self._profile is None
                else {
                    "profile": self._profile,
                    "calibrator": (
                        self._calibrator.state_dict()
                        if self._calibrator is not None
                        else None
                    ),
                }
            ),
        }

    def load_state_dict(self, state: dict) -> "CostHeuristicPredictor":
        self.__init__()
        fitted = state.get("fitted")
        if fitted is not None:
            self._profile = np.asarray(fitted["profile"], dtype=np.float64)
            if fitted.get("calibrator") is not None:
                self._calibrator = CostCalibrator().load_state_dict(
                    fitted["calibrator"]
                )
        return self


class _Stage:
    """One chain stage: name, model, breaker."""

    __slots__ = ("name", "model", "breaker")

    def __init__(self, name: str, model, breaker: CircuitBreaker) -> None:
        self.name = name
        self.model = model
        self.breaker = breaker


@register_model
class FallbackChain(SerializableModel):
    """Degrading predictor chain with per-stage circuit breakers.

    Args:
        primary: the stage-1 model (defaults to a fresh
            :class:`~repro.core.predictor.KCCAPredictor`); any
            :class:`~repro.core.base.Model` works.
        breaker_failures: consecutive stage failures that open its
            breaker.
        breaker_reset_seconds: open time before a half-open probe.
        half_open_successes: probe successes required to close.
        clock: injectable time source shared by all three breakers.
    """

    def __init__(
        self,
        primary=None,
        breaker_failures: int = 3,
        breaker_reset_seconds: float = 30.0,
        half_open_successes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.breaker_failures = int(breaker_failures)
        self.breaker_reset_seconds = float(breaker_reset_seconds)
        self.half_open_successes = int(half_open_successes)
        self.clock = clock
        primary = primary if primary is not None else KCCAPredictor()
        self._stages = [
            _Stage("kcca", primary, self._make_breaker("kcca")),
            _Stage(
                "regression",
                MultiMetricRegression(tuple(METRIC_NAMES)),
                self._make_breaker("regression"),
            ),
            _Stage(
                "heuristic",
                CostHeuristicPredictor(),
                self._make_breaker("heuristic"),
            ),
        ]
        self.last_served: Optional[str] = None
        self._monitor = None

    def _make_breaker(self, name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name=f"fallback_{name}",
            failure_threshold=self.breaker_failures,
            reset_timeout=self.breaker_reset_seconds,
            half_open_successes=self.half_open_successes,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # Stage access
    # ------------------------------------------------------------------

    @property
    def primary(self):
        """The stage-1 model."""
        return self._stages[0].model

    def stage(self, name: str) -> _Stage:
        """Look up a stage by name (``kcca`` / ``regression`` /
        ``heuristic``)."""
        for stage in self._stages:
            if stage.name == name:
                return stage
        raise ModelError(f"unknown fallback stage {name!r}")

    def breaker(self, name: str) -> CircuitBreaker:
        """The named stage's circuit breaker."""
        return self.stage(name).breaker

    def set_monitor(self, monitor) -> "FallbackChain":
        """Attach a :class:`~repro.obs.drift.DriftMonitor` (or None).

        While the monitor reports ``degraded``, the primary stage's
        breaker is forced open on every prediction, so traffic fails
        over even though the model itself still returns numbers — wrong
        numbers are an outage too.  Runtime wiring; not persisted.
        """
        self._monitor = monitor
        return self

    @property
    def monitor(self):
        return self._monitor

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self, query_features: np.ndarray, performance: np.ndarray
    ) -> "FallbackChain":
        """Fit every stage on the same training matrices."""
        for stage in self._stages:
            stage.model.fit(query_features, performance)
        return self

    def fit_with_costs(
        self,
        query_features: np.ndarray,
        performance: np.ndarray,
        optimizer_costs: np.ndarray,
    ) -> "FallbackChain":
        """Fit all stages and calibrate the cost heuristic."""
        self.fit(query_features, performance)
        elapsed = np.asarray(performance, dtype=np.float64)[:, _ELAPSED_INDEX]
        if len(elapsed) >= 3:
            self.stage("heuristic").model.fit_costs(optimizer_costs, elapsed)
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict_labeled(
        self,
        query_features: np.ndarray,
        optimizer_costs: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, str, Optional[list]]:
        """Serve a batch through the first healthy stage.

        Returns ``(predictions, stage_name, details)`` where ``details``
        is the primary model's per-query neighbour evidence when stage 1
        served (None otherwise — downstream confidence scoring is only
        meaningful in the kernel projection).

        Raises:
            ModelError: only when *every* stage fails or is open.
        """
        features = np.atleast_2d(np.asarray(query_features, dtype=np.float64))
        if self._monitor is not None and self._monitor.degraded:
            self._stages[0].breaker.force_open("drift monitor degraded")
        errors: list[str] = []
        for stage in self._stages:
            if not stage.breaker.allow():
                errors.append(f"{stage.name}: breaker open")
                continue
            try:
                with _stage(f"fallback.{stage.name}", stage=stage.name):
                    predictions, details = self._invoke(
                        stage, features, optimizer_costs
                    )
            except Exception as error:  # noqa: BLE001 - stage isolation
                stage.breaker.record_failure(
                    f"{type(error).__name__}: {error}"
                )
                errors.append(f"{stage.name}: {type(error).__name__}: {error}")
                continue
            stage.breaker.record_success()
            self.last_served = stage.name
            if metrics_enabled():
                get_registry().counter(
                    f"repro_fallback_served_total_{stage.name}",
                    "prediction batches served by this fallback stage",
                ).inc()
            return predictions, stage.name, details
        raise ModelError(
            "every fallback stage failed or is open: " + "; ".join(errors)
        )

    def _invoke(
        self,
        stage: _Stage,
        features: np.ndarray,
        optimizer_costs: Optional[np.ndarray],
    ) -> tuple[np.ndarray, Optional[list]]:
        if stage.name == "kcca":
            predict_batch = getattr(stage.model, "predict_batch", None)
            if predict_batch is not None:
                return predict_batch(features)
            return stage.model.predict(features), None
        if stage.name == "regression":
            # The baseline predicts physically impossible negatives
            # (Figures 3-4); a serving answer must not.
            return np.maximum(stage.model.predict(features), 0.0), None
        return stage.model.predict(features, optimizer_costs), None

    def predict(self, query_features: np.ndarray) -> np.ndarray:
        """Model-protocol predict: first healthy stage, labels dropped."""
        return self.predict_labeled(query_features)[0]

    def predict_batch(
        self, query_features: np.ndarray
    ) -> tuple[np.ndarray, Optional[list]]:
        """Batched predictions plus details when the primary served."""
        predictions, _stage, details = self.predict_labeled(query_features)
        return predictions, details

    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Chain health for dashboards: per-stage breaker state."""
        return {
            "last_served": self.last_served,
            "drift_degraded": (
                bool(self._monitor.degraded)
                if self._monitor is not None
                else None
            ),
            "stages": {s.name: s.breaker.status() for s in self._stages},
        }

    # ------------------------------------------------------------------
    # Persistence (Model protocol)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Breaker configuration plus each stage's full state."""
        return {
            "config": {
                "breaker_failures": self.breaker_failures,
                "breaker_reset_seconds": self.breaker_reset_seconds,
                "half_open_successes": self.half_open_successes,
                "primary_class": type(self.primary).__name__,
            },
            "stages": {
                stage.name: stage.model.state_dict()
                for stage in self._stages
            },
        }

    def load_state_dict(self, state: dict) -> "FallbackChain":
        """Restore stage models; breakers restart closed (runtime state)."""
        config = state["config"]
        primary_cls = model_class(config["primary_class"])
        primary = primary_cls.__new__(primary_cls)
        primary.load_state_dict(state["stages"]["kcca"])
        self.__init__(
            primary=primary,
            breaker_failures=int(config["breaker_failures"]),
            breaker_reset_seconds=float(config["breaker_reset_seconds"]),
            half_open_successes=int(config["half_open_successes"]),
        )
        self.stage("regression").model.load_state_dict(
            state["stages"]["regression"]
        )
        self.stage("heuristic").model.load_state_dict(
            state["stages"]["heuristic"]
        )
        return self
