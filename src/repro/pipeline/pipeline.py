"""The end-to-end prediction pipeline: featurize → model → calibrate → confide.

The paper's central claim is train-once / use-everywhere: one KCCA model
feeds workload management, capacity planning and system sizing.  This
module is the composition layer that makes that true in code:

* **featurizer** — a :class:`~repro.core.features.FeatureSpace` turning
  optimizer plans into the fixed-width feature matrix;
* **model** — any :class:`~repro.core.base.Model` (KCCA, two-step,
  online, regression baseline);
* **calibration** — a :class:`~repro.core.calibration.CostCalibrator`
  fitted on the training corpus's optimizer costs (the paper's
  Section VIII cost-to-seconds mapping);
* **confidence** — a :class:`~repro.core.confidence.ConfidenceModel`
  flagging queries far from anything seen in training.

Prediction is batched end-to-end: :meth:`PredictionPipeline.score_many`
projects N queries with **one** kernel-cross evaluation per underlying
model and derives predictions *and* confidence from the same projection.

Pipelines persist to a single versioned ``.npz`` artifact
(:meth:`~PredictionPipeline.save` / :meth:`~PredictionPipeline.load`)
fingerprinted against the catalog and system configuration they were
trained on, and carrying that catalog's statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro.core.base import (
    Model,
    checked_array,
    model_class,
    read_state,
    restoring,
    write_state,
)
from repro.core.calibration import CostCalibrator
from repro.core.confidence import ConfidenceModel, ConfidenceReport
from repro.core.features import FeatureSpace
from repro.core.online import OnlinePredictor
from repro.core.predictor import KCCAPredictor
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import METRIC_NAMES
from repro.engine.plan import PlanNode
from repro.engine.system import SystemConfig
from repro.errors import ModelError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.obs.seam import stage
from repro.pipeline.artifact import (
    ARTIFACT_SCHEMA_VERSION,
    catalog_fingerprint,
    catalog_state,
    check_fingerprint,
    statistics_catalog,
    system_fingerprint,
)
from repro.storage.catalog import Catalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.corpus import Corpus

__all__ = ["PredictionPipeline", "ScoredPrediction"]

_ELAPSED_INDEX = METRIC_NAMES.index("elapsed_time")


def _fingerprints(
    catalog: Optional[Catalog], config: Optional[SystemConfig]
) -> dict[str, str]:
    """Fingerprints of whichever parts of an environment are given."""
    found = {}
    if catalog is not None:
        found["catalog"] = catalog_fingerprint(catalog)
    if config is not None:
        found["system"] = system_fingerprint(config)
    return found


def _holding(state: object, name: str) -> Iterator[dict]:
    """Every dict in a nested state that has the key ``name``."""
    if isinstance(state, dict):
        if name in state:
            yield state
        for value in state.values():
            yield from _holding(value, name)


@dataclass(frozen=True)
class ScoredPrediction:
    """One query's pipeline output.

    Attributes:
        prediction: (n_metrics,) predicted performance vector.
        confidence: anomaly assessment, or None when the model family has
            no kernel projection to measure distances in (regression).
        stage: always None: the fitted model is the only stage.  Kept
            because ``bench/layers.py`` reads it; the benchmark's next
            revision may drop it.
    """

    prediction: np.ndarray
    confidence: Optional[ConfidenceReport]
    stage: Optional[str] = None


class PredictionPipeline:
    """Composable featurizer → model → calibration → confidence stages.

    Args:
        model: any :class:`~repro.core.base.Model`; default a fresh
            :class:`KCCAPredictor`.
        feature_space: the featurizer stage; default the plan feature
            space of Figure 9.
        confidence_threshold: z-score above which a query is flagged
            anomalous.
        metadata: free-form JSON-able dict persisted with the artifact
            (training provenance, catalog spec, ...).
    """

    def __init__(
        self,
        model: Optional[Model] = None,
        feature_space: Optional[FeatureSpace] = None,
        confidence_threshold: float = 3.0,
        metadata: Optional[dict] = None,
    ) -> None:
        self.model: Model = model if model is not None else KCCAPredictor()
        self.feature_space = feature_space or FeatureSpace.for_plans()
        self.confidence_threshold = confidence_threshold
        self.calibrator: Optional[CostCalibrator] = None
        self.confidence: Optional[ConfidenceModel] = None
        self.fingerprints: dict[str, str] = {}
        self.metadata: dict = dict(metadata or {})
        #: Digest of the artifact bytes :meth:`load` restored this from.
        self.artifact_digest: Optional[str] = None
        #: The statistics-only catalog :meth:`load` restored, when the
        #: artifact was saved with its catalog.
        self.catalog: Optional[Catalog] = None

    # ------------------------------------------------------------------
    # Stage access
    # ------------------------------------------------------------------

    @property
    def scorer(self) -> Optional[KCCAPredictor]:
        """The KCCA model whose projection measures confidence distances.

        The model itself for a plain KCCA predictor, the public router
        for the two-step predictor, the current inner model for the
        online predictor, and None for models without a kernel
        projection (the regression baseline).
        """
        model = self.model
        if isinstance(model, TwoStepPredictor):
            return model.router
        if isinstance(model, OnlinePredictor):
            return model.model if model.is_ready else None
        if isinstance(model, KCCAPredictor):
            return model
        return None

    def featurize(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Stage 1: plans to the (n, width) feature matrix."""
        with stage("pipeline.featurize", n=len(plans)):
            return self.feature_space.matrix_from_plans(plans)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        performance: np.ndarray,
        optimizer_costs: Optional[np.ndarray] = None,
    ) -> "PredictionPipeline":
        """Fit every stage from training matrices.

        Args:
            features: (n, p) query feature matrix.
            performance: (n, m) measured performance matrix.
            optimizer_costs: per-query abstract optimizer costs; enables
                the calibration stage when given.
        """
        with stage(
            "pipeline.fit",
            n=int(np.asarray(features).shape[0]),
            model=type(self.model).__name__,
        ):
            self.model.fit(features, performance)
            scorer = self.scorer
            with stage("pipeline.fit.confidence"):
                self.confidence = (
                    ConfidenceModel(scorer, threshold=self.confidence_threshold)
                    if scorer is not None
                    else None
                )
            if optimizer_costs is not None and len(optimizer_costs) >= 3:
                elapsed = np.asarray(performance, dtype=np.float64)[
                    :, _ELAPSED_INDEX
                ]
                self.calibrator = CostCalibrator().fit(optimizer_costs, elapsed)
            if metrics_enabled():
                get_registry().gauge(
                    "repro_model_train_size",
                    "training rows behind the active pipeline model",
                ).set(np.asarray(features).shape[0])
        return self

    def fit_corpus(self, corpus: "Corpus") -> "PredictionPipeline":
        """Fit from an executed corpus (features, metrics and costs)."""
        return self.fit(
            corpus.feature_matrix(),
            corpus.performance_matrix(),
            corpus.optimizer_costs(),
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted performance vectors, shape (n, n_metrics)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        with stage("pipeline.predict", n=features.shape[0]):
            return self.model.predict(features)

    def predict_many(self, features: np.ndarray) -> np.ndarray:
        """Batch alias of :meth:`predict` (one kernel-cross per model)."""
        return self.predict(features)

    def score_many(
        self,
        features: np.ndarray,
        optimizer_costs: Optional[np.ndarray] = None,
    ) -> list[ScoredPrediction]:
        """Predictions *and* confidence from a single projection pass.

        The model projects all queries once (``predict_batch``); the
        confidence stage reuses the resulting neighbour distances, so N
        queries cost one kernel-cross evaluation per underlying model
        rather than 2N.

        Args:
            optimizer_costs: ignored.  Kept because ``bench/layers.py``
                passes it; the benchmark's next revision may drop it.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        with stage("pipeline.score_many", n=features.shape[0]):
            predict_batch = getattr(self.model, "predict_batch", None)
            if predict_batch is not None:
                predictions, details = predict_batch(features)
            else:
                predictions, details = self.model.predict(features), None
            with stage("pipeline.confidence"):
                if self.confidence is not None and details is not None:
                    reports: Sequence[Optional[ConfidenceReport]] = (
                        self.confidence.assess_details(details)
                    )
                else:
                    reports = [None] * predictions.shape[0]
            if metrics_enabled():
                anomalous = sum(
                    1 for r in reports if r is not None and r.anomalous
                )
                get_registry().counter(
                    "repro_confidence_anomalous_total",
                    "queries flagged far from the training distribution",
                ).inc(anomalous)
            return [
                ScoredPrediction(
                    prediction=predictions[i],
                    confidence=reports[i],
                )
                for i in range(predictions.shape[0])
            ]

    def calibrated_seconds(self, optimizer_costs: np.ndarray) -> np.ndarray:
        """Stage 3: optimizer cost units to calibrated wall-clock seconds."""
        if self.calibrator is None:
            raise ModelError(
                "pipeline has no calibration stage (fit with optimizer costs)"
            )
        return self.calibrator.predict_seconds(optimizer_costs)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def fingerprint_environment(
        self, catalog: Optional[Catalog], config: Optional[SystemConfig]
    ) -> None:
        """Record the training environment's fingerprints on the pipeline."""
        self.fingerprints.update(_fingerprints(catalog, config))

    def check_environment(
        self,
        catalog: Optional[Catalog],
        config: Optional[SystemConfig],
        source: str,
    ) -> None:
        """Refuse (``ModelError`` naming ``source``, the artifact) a catalog
        or configuration other than the one fingerprinted at training."""
        for kind, actual in _fingerprints(catalog, config).items():
            check_fingerprint(kind, self.fingerprints.get(kind), actual, source)

    def save(
        self,
        path: Path,
        catalog: Optional[Catalog] = None,
        config: Optional[SystemConfig] = None,
    ) -> None:
        """Persist the pipeline as one versioned ``.npz`` artifact.

        Args:
            path: artifact destination.
            catalog / config: training environment; when given, their
                fingerprints are (re)computed and embedded so load-time
                verification can refuse mismatched environments, and the
                catalog's statistics are stored.
        """
        self.fingerprint_environment(catalog, config)
        model_state = self.model.state_dict()
        state = {
            "model": model_state,
            "calibrator": (
                self.calibrator.state_dict()
                if self.calibrator is not None
                else None
            ),
            "confidence": (
                {
                    "median": self.confidence.calibration[0],
                    "scale": self.confidence.calibration[1],
                    "threshold": self.confidence.threshold,
                }
                if self.confidence is not None
                else None
            ),
            "feature_space": {
                "names": list(self.feature_space.names),
                "log_scale": self.feature_space.log_scale,
            },
            "catalog": catalog_state(catalog) if catalog is not None else None,
        }
        write_state(
            path,
            state,
            type(self).__name__,
            extra_manifest={
                "artifact": {
                    "schema_version": ARTIFACT_SCHEMA_VERSION,
                    "model_class": type(self.model).__name__,
                    "fingerprints": dict(self.fingerprints),
                    "kernel": model_state.get("config", {}),
                    "confidence_threshold": self.confidence_threshold,
                    "metadata": self.metadata,
                }
            },
        )

    @classmethod
    def load(
        cls,
        path: Path,
        catalog: Optional[Catalog] = None,
        config: Optional[SystemConfig] = None,
    ) -> "PredictionPipeline":
        """Load an artifact, verifying fingerprints when an environment
        is supplied.

        Args:
            path: artifact to read.
            catalog / config: when given, their fingerprints must match
                the ones stored in the artifact.

        Raises:
            ModelError: unknown schema version, unknown model class, a
                body that cannot be restored, or a fingerprint mismatch.
        """
        state, manifest, digest = read_state(path, expected_class=cls.__name__)
        with restoring(path):
            artifact = manifest.get("artifact", {})
            version = artifact.get("schema_version")
            if version != ARTIFACT_SCHEMA_VERSION:
                raise ModelError(
                    f"pipeline schema version {version!r}, "
                    f"this build reads version {ARTIFACT_SCHEMA_VERSION}"
                )
            cls_model = model_class(artifact.get("model_class", ""))
            model = cls_model.__new__(cls_model)
            model.load_state_dict(state["model"])
            # A forecast names its columns by METRIC_NAMES.
            for holder in _holding(state["model"], "train_performance"):
                checked_array(
                    holder, "train_performance", None, len(METRIC_NAMES)
                )

            space_state = state.get("feature_space") or {}
            feature_space = FeatureSpace(
                tuple(space_state.get("names", ())),
                log_scale=bool(space_state.get("log_scale", False)),
            )
            pipeline = cls(
                model=model,
                feature_space=feature_space,
                confidence_threshold=float(
                    artifact.get("confidence_threshold", 3.0)
                ),
                metadata=artifact.get("metadata"),
            )
            pipeline.fingerprints = dict(artifact.get("fingerprints", {}))
            pipeline.artifact_digest = digest
            if state.get("catalog") is not None:
                pipeline.catalog = statistics_catalog(state["catalog"])
            if state.get("calibrator") is not None:
                pipeline.calibrator = CostCalibrator().load_state_dict(
                    state["calibrator"]
                )
            confidence_state = state.get("confidence")
            scorer = pipeline.scorer
            if confidence_state is not None and scorer is not None:
                pipeline.confidence = ConfidenceModel.from_calibration(
                    scorer,
                    median=confidence_state["median"],
                    scale=confidence_state["scale"],
                    threshold=confidence_state["threshold"],
                )
        pipeline.check_environment(catalog, config, str(path))
        return pipeline
