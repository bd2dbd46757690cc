"""Train-once / serve-many prediction pipelines with persistence.

* :class:`~repro.pipeline.pipeline.PredictionPipeline` — a KCCA or
  two-step model and its confidence model, with batch scoring (one
  kernel-cross evaluation per model for N queries).
* :mod:`~repro.pipeline.artifact` — versioned ``.npz`` + JSON-manifest
  artifacts, fingerprinted against the training catalog and system
  configuration; mismatches are refused on load.
"""

from repro import lazy_exports

_EXPORTS = {
    "ARTIFACT_SCHEMA_VERSION": "artifact",
    "catalog_fingerprint": "artifact",
    "system_fingerprint": "artifact",
    "PredictionPipeline": "pipeline",
    "ScoredPrediction": "pipeline",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
