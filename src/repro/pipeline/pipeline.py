"""The end-to-end prediction pipeline: model → confidence.

The paper's central claim is train-once / use-everywhere: one KCCA model
feeds workload management, capacity planning and system sizing.  This
module is the composition layer that makes that true in code.  A pipeline
holds exactly what a forecast reads:

* **model** — a :class:`~repro.core.predictor.KCCAPredictor` or a
  :class:`~repro.core.two_step.TwoStepPredictor`, scoring the
  :func:`~repro.core.features.plan_feature_matrix` rows of optimizer
  plans;
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
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

from repro.core.base import checked_array, read_state, restoring, write_state
from repro.core.confidence import ConfidenceModel, ConfidenceReport
from repro.core.features import PLAN_FEATURE_NAMES
from repro.core.predictor import KCCAPredictor
from repro.core.two_step import TwoStepPredictor
from repro.engine.metrics import METRIC_NAMES
from repro.engine.system import SystemConfig
from repro.errors import ModelError, NotFittedError
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

__all__ = ["PipelineModel", "PredictionPipeline", "ScoredPrediction"]

#: The model families a service trains, and so the ones an artifact holds.
PipelineModel = Union[KCCAPredictor, TwoStepPredictor]

_MODEL_CLASSES: dict[str, type] = {
    cls.__name__: cls for cls in (KCCAPredictor, TwoStepPredictor)
}


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
        confidence: anomaly assessment.
        stage: always None: the fitted model is the only stage.  Kept
            because ``bench/layers.py`` reads it; the benchmark's next
            revision may drop it.
    """

    prediction: np.ndarray
    confidence: ConfidenceReport
    stage: Optional[str] = None


class PredictionPipeline:
    """A fitted model and the confidence model over its projection.

    Args:
        model: the model stage; default a fresh :class:`KCCAPredictor`.
        confidence_threshold: z-score above which a query is flagged
            anomalous.
        metadata: free-form JSON-able dict persisted with the artifact
            (training provenance, catalog spec, ...).
    """

    def __init__(
        self,
        model: Optional[PipelineModel] = None,
        confidence_threshold: float = 3.0,
        metadata: Optional[dict] = None,
    ) -> None:
        self.model: PipelineModel = (
            model if model is not None else KCCAPredictor()
        )
        self.confidence_threshold = confidence_threshold
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
    def scorer(self) -> KCCAPredictor:
        """The KCCA model whose projection measures confidence distances:
        the model itself, or the two-step predictor's public router."""
        model = self.model
        return model.router if isinstance(model, TwoStepPredictor) else model

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        performance: np.ndarray,
    ) -> "PredictionPipeline":
        """Fit every stage from training matrices.

        Args:
            features: (n, p) query feature matrix.
            performance: (n, m) measured performance matrix.
        """
        with stage(
            "pipeline.fit",
            n=int(np.asarray(features).shape[0]),
            model=type(self.model).__name__,
        ):
            self.model.fit(features, performance)
            with stage("pipeline.fit.confidence"):
                self.confidence = ConfidenceModel(
                    self.scorer, threshold=self.confidence_threshold
                )
            if metrics_enabled():
                get_registry().gauge(
                    "repro_model_train_size",
                    "training rows behind the active pipeline model",
                ).set(np.asarray(features).shape[0])
        return self

    def fit_corpus(self, corpus: "Corpus") -> "PredictionPipeline":
        """Fit from an executed corpus (features and metrics)."""
        return self.fit(
            corpus.feature_matrix(),
            corpus.performance_matrix(),
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted performance vectors, shape (n, n_metrics)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        with stage("pipeline.predict", n=features.shape[0]):
            return self.model.predict(features)

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
        if self.confidence is None:
            raise NotFittedError("the pipeline is not fitted")
        with stage("pipeline.score_many", n=features.shape[0]):
            predictions, details = self.model.predict_batch(features)
            with stage("pipeline.confidence"):
                reports = self.confidence.assess_details(details)
            if metrics_enabled():
                anomalous = sum(1 for report in reports if report.anomalous)
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
        if self.confidence is None:
            raise NotFittedError("the pipeline is not fitted")
        self.fingerprint_environment(catalog, config)
        model_state = self.model.state_dict()
        median, scale = self.confidence.calibration
        state = {
            "model": model_state,
            "confidence": {
                "median": median,
                "scale": scale,
                "threshold": self.confidence.threshold,
            },
            # What the rows the model scores are: written for readers of
            # the artifact, checked on load.
            "feature_space": {
                "names": list(PLAN_FEATURE_NAMES),
                "log_scale": False,
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
            ModelError: unknown schema version, a model class other than
                the two a service trains, features other than the plan
                features this build computes, a body that cannot be
                restored, or a fingerprint mismatch.
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
            name = artifact.get("model_class")
            if name not in _MODEL_CLASSES:
                raise ModelError(
                    f"unknown model class {name!r}; a pipeline holds one "
                    f"of {sorted(_MODEL_CLASSES)}"
                )
            model_cls = _MODEL_CLASSES[name]
            model = model_cls.__new__(model_cls)
            model.load_state_dict(state["model"])
            # A forecast names its columns by METRIC_NAMES.
            for holder in _holding(state["model"], "train_performance"):
                checked_array(
                    holder, "train_performance", None, len(METRIC_NAMES)
                )
            space = state["feature_space"]
            if tuple(space["names"]) != PLAN_FEATURE_NAMES:
                raise ModelError(
                    "its feature space is not the plan features this "
                    f"build computes ({len(space['names'])} names, "
                    f"expected {len(PLAN_FEATURE_NAMES)})"
                )
            if space["log_scale"]:
                raise ModelError(
                    "its feature space is log-scaled; this build scores "
                    "raw plan features"
                )
            pipeline = cls(
                model=model,
                confidence_threshold=float(
                    artifact.get("confidence_threshold", 3.0)
                ),
                metadata=artifact.get("metadata"),
            )
            pipeline.fingerprints = dict(artifact.get("fingerprints", {}))
            pipeline.artifact_digest = digest
            if state.get("catalog") is not None:
                pipeline.catalog = statistics_catalog(state["catalog"])
            confidence = state["confidence"]
            pipeline.confidence = ConfidenceModel.from_calibration(
                pipeline.scorer,
                median=confidence["median"],
                scale=confidence["scale"],
                threshold=confidence["threshold"],
            )
        pipeline.check_environment(catalog, config, str(path))
        return pipeline
