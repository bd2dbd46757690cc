"""Rewriting saved model artifacts: a structurally valid ``.npz`` whose
manifest or arrays say something the writer never would.

``DAMAGED_BODIES`` are the shapes found by hand (ROADMAP 3(b)): each
loaded, or escaped as an untyped error — some only at forecast time, some
as a silently wrong forecast — and the damage the catalog statistics an
artifact carries since pipeline schema 2 can take.  Every one must be a
``ModelError`` from ``load``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional

import numpy as np

_FITTED = "state/model/fitted"
_KCCA = f"{_FITTED}/kcca/fitted"


def tamper(
    path: Path,
    manifest: Optional[Callable] = None,
    arrays: Optional[Callable] = None,
) -> None:
    """Rewrite a saved artifact in place after ``manifest(manifest_dict)``
    and/or ``arrays(array_table)`` mutated its two halves."""
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    document = json.loads(bytes(data.pop("__manifest__")).decode("utf-8"))
    if manifest is not None:
        manifest(document)
    if arrays is not None:
        arrays(data)
    data["__manifest__"] = np.frombuffer(
        json.dumps(document).encode("utf-8"), dtype=np.uint8
    )
    with open(path, "wb") as handle:
        np.savez(handle, **data)


def _set(table: dict, key: str, change: Callable) -> None:
    table[key] = change(table[key])


def _metadata(document: dict) -> dict:
    return document["artifact"]["metadata"]


def _fitted(document: dict) -> dict:
    return document["state"]["model"]["fitted"]


def _tables(document: dict) -> dict:
    return document["state"]["catalog"]


def _fallback_chain(document: dict) -> None:
    """What an artifact saved with ``train --fallback`` said of its model:
    a chain class this build no longer has, wrapping the KCCA model."""
    document["artifact"]["model_class"] = "FallbackChain"
    document["state"]["model"]["config"]["primary_class"] = "KCCAPredictor"
    _metadata(document)["fallback"] = True


#: name -> (manifest mutation, array mutation), either may be None.
DAMAGED_BODIES = {
    "array_absent_from_zip": (
        None, lambda data: data.pop("state/model/fitted/train_features")),
    "state_without_model": (
        lambda doc: doc["state"].pop("model"), None),
    "state_is_a_number": (
        lambda doc: doc.update(state=5), None),
    "kcca_array_missing": (
        lambda doc: doc["state"]["model"]["fitted"]["kcca"]["fitted"].pop(
            "alpha"), None),
    "alpha_with_seven_rows": (
        None, lambda data: _set(data, f"{_KCCA}/alpha", lambda a: a[:7])),
    "two_metric_columns": (
        None, lambda data: _set(
            data, "state/model/fitted/train_performance", lambda a: a[:, :2])),
    "unknown_system_config_key": (
        lambda doc: _metadata(doc)["system_config"].update(warp_factor=9),
        None),
    "unknown_model_config_key": (
        lambda doc: doc["state"]["model"]["config"].update(warp_factor=9),
        None),
    "scale_factor_is_a_word": (
        lambda doc: _metadata(doc)["catalog_spec"].update(scale_factor="big"),
        None),
    "confidence_threshold_is_a_word": (
        lambda doc: doc["artifact"].update(confidence_threshold="high"), None),
    "alpha_all_nan": (
        None, lambda data: _set(
            data, f"{_KCCA}/alpha", lambda a: np.full_like(a, np.nan))),
    "tau_x_nan": (lambda doc: _fitted(doc).update(tau_x=float("nan")), None),
    "tau_x_zero": (lambda doc: _fitted(doc).update(tau_x=0.0), None),
    "tau_x_negative": (lambda doc: _fitted(doc).update(tau_x=-1.0), None),
    "x_scaler_std_all_nan": (
        None, lambda data: _set(
            data, f"{_FITTED}/x_scaler/std", lambda a: np.full_like(a, np.nan))),
    "x_scaler_mean_five_entries": (
        None, lambda data: _set(
            data, f"{_FITTED}/x_scaler/mean", lambda a: a[:5])),
    "catalog_table_missing": (lambda doc: _tables(doc).pop("item"), None),
    "catalog_histogram_nan": (
        lambda doc: _tables(doc)["store_sales"]["columns"][0].update(
            histogram=[float("nan")] * 33), None),
    "catalog_rows_not_an_integer": (
        lambda doc: _tables(doc)["store_sales"].update(rows=7500.5), None),
    "model_class_is_fallback_chain": (_fallback_chain, None),
}


def damage(path: Path, shape: str) -> Path:
    """Apply the named ``DAMAGED_BODIES`` shape to the artifact at ``path``."""
    manifest, arrays = DAMAGED_BODIES[shape]
    tamper(path, manifest=manifest, arrays=arrays)
    return path
