"""The unified ``Model`` protocol and model persistence.

Every predictor family in :mod:`repro.core` — the KCCA predictor, the
two-step type-specific predictor, the sliding-window online predictor and
the regression baseline — implements one contract:

* ``fit(query_features, performance) -> self``
* ``predict(query_features) -> (n, n_metrics) array``
* ``state_dict() -> dict`` — a ``{"config": ..., "fitted": ...}`` export
  of everything needed to reconstruct the model;
* ``load_state_dict(state) -> self`` — the inverse.

:class:`SerializableModel` turns the ``state_dict`` export into on-disk
persistence: one ``.npz`` file holding every array plus a JSON manifest
(schema version, model class, the non-array state).  A model trained in
one process can therefore be saved and loaded in another, which is what
lets one trained model serve many downstream decisions (workload
management, capacity planning, sizing) instead of retraining per use.

The format is deliberately dependency-free (numpy + json only, no
pickle), so artifacts are safe to load and stable across Python versions.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Protocol, Type, runtime_checkable

import numpy as np

from repro.errors import ModelError, ReproError
from repro.ioutils import NPZ_READ_ERRORS, atomic_savez
from repro.resilience.faults import fault_site

__all__ = [
    "Model",
    "SerializableModel",
    "MODEL_SCHEMA_VERSION",
    "register_model",
    "model_class",
    "pack_state",
    "unpack_state",
    "write_state",
    "read_state",
    "artifact_digest",
    "checked_array",
    "finite_input",
    "restoring",
]

#: Bump when the on-disk state layout changes incompatibly; artifacts
#: with a different version are refused on load.  Version 2 stores a
#: KCCA fit's projections and centring constants, not its N x N kernels.
MODEL_SCHEMA_VERSION = 2

_ARRAY_KEY = "__array__"


@runtime_checkable
class Model(Protocol):
    """The contract every predictor family implements."""

    def fit(self, query_features: np.ndarray, performance: np.ndarray) -> "Model":
        """Train from (n, p) features and (n, m) performance vectors."""
        ...

    def predict(self, query_features: np.ndarray) -> np.ndarray:
        """Predicted performance vectors, shape (n, n_metrics)."""
        ...

    def state_dict(self) -> dict:
        """Everything needed to reconstruct the model, as arrays + JSON."""
        ...

    def load_state_dict(self, state: dict) -> "Model":
        """Restore the model (hyper-parameters and fitted state)."""
        ...


# ----------------------------------------------------------------------
# Model registry (class name -> class), used by artifact loading
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type] = {}

#: The modules defining the registered classes.  A class registers when
#: its module is imported, and nothing else imports them all.
_MODEL_MODULES = (
    "repro.core.online",
    "repro.core.predictor",
    "repro.core.regression",
    "repro.core.two_step",
)


def register_model(cls: type) -> type:
    """Class decorator: make ``cls`` loadable by name from artifacts."""
    _REGISTRY[cls.__name__] = cls
    return cls


def model_class(name: str) -> type:
    """Resolve a registered model class by name.

    Raises:
        ModelError: for names no registered model claims.
    """
    for module in _MODEL_MODULES:
        importlib.import_module(module)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown model class {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# ----------------------------------------------------------------------
# State (de)serialisation: nested dicts of arrays + JSON-able scalars
# ----------------------------------------------------------------------


def pack_state(
    state: Any, arrays: dict[str, np.ndarray], path: str = "state"
) -> Any:
    """Split ``state`` into a JSON-able skeleton plus an array table.

    Arrays are moved into ``arrays`` under their slash-joined path and
    replaced by ``{"__array__": path}`` placeholders; dicts and lists are
    recursed into; everything else must already be JSON-serialisable.
    """
    if isinstance(state, np.ndarray):
        arrays[path] = state
        return {_ARRAY_KEY: path}
    if isinstance(state, dict):
        return {
            str(key): pack_state(value, arrays, f"{path}/{key}")
            for key, value in state.items()
        }
    if isinstance(state, (list, tuple)):
        return [
            pack_state(value, arrays, f"{path}/{index}")
            for index, value in enumerate(state)
        ]
    if isinstance(state, (np.integer,)):
        return int(state)
    if isinstance(state, (np.floating,)):
        return float(state)
    if isinstance(state, (np.bool_,)):
        return bool(state)
    return state


def unpack_state(skeleton: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`pack_state` (tuples come back as lists)."""
    if isinstance(skeleton, dict):
        if set(skeleton) == {_ARRAY_KEY}:
            return arrays[skeleton[_ARRAY_KEY]]
        return {
            key: unpack_state(value, arrays) for key, value in skeleton.items()
        }
    if isinstance(skeleton, list):
        return [unpack_state(value, arrays) for value in skeleton]
    return skeleton


def write_state(
    path: Path,
    state: dict,
    model_class_name: str,
    extra_manifest: Optional[dict] = None,
) -> None:
    """Persist a model state dict as ``.npz`` arrays + a JSON manifest.

    The artifact is written atomically (temp file + ``os.replace``): a
    crash mid-save leaves any previous artifact at ``path`` intact, and
    readers never observe a truncated file.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    fault_site("artifact.write", path=str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    skeleton = pack_state(state, arrays)
    manifest = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "model_class": model_class_name,
        "state": skeleton,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    payload = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    atomic_savez(path, __manifest__=payload, **arrays)


def artifact_digest(data: bytes) -> str:
    """Content identity of an artifact's bytes (sha256, 16 hex chars)."""
    return hashlib.sha256(data).hexdigest()[:16]


def checked_array(state: dict, name: str, *shape: Optional[int]) -> np.ndarray:
    """``state[name]`` as a finite array of ``shape`` (``None``: any extent).

    Restored state is outside input: unchecked, a wrong shape surfaces as
    a numpy error at forecast time and a NaN as a plausible forecast.
    """
    array = np.asarray(state[name])
    if array.ndim != len(shape) or any(
        want is not None and got != want
        for got, want in zip(array.shape, shape)
    ):
        raise ModelError(
            f"fitted array {name!r} has shape {array.shape}, expected {shape}"
        )
    if not np.isfinite(array).all():
        raise ModelError(f"fitted array {name!r} holds a non-finite value")
    return array


def finite_input(values: Any, name: str) -> np.ndarray:
    """``values`` as ``float64``, or :class:`ModelError` naming the ``fit``
    input and how many of its entries are NaN or infinite: a solver given
    one fails, if at all, with an error that says neither."""
    array = np.asarray(values, dtype=np.float64)
    bad = array.size - int(np.count_nonzero(np.isfinite(array)))
    if bad:
        raise ModelError(f"cannot fit: {name} hold {bad} non-finite value(s)")
    return array


@contextmanager
def restoring(path: Path) -> Iterator[None]:
    """Scope in which state read from the artifact at ``path`` is restored:
    a missing key, wrong type or unparsable value in the manifest of a
    readable artifact is a :class:`ModelError` naming the artifact."""
    try:
        yield
    except ReproError as error:  # raised without knowing the path
        raise ModelError(f"model artifact {path}: {error}") from error
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ModelError(
            f"model artifact {path} has a damaged body "
            f"({type(error).__name__}: {error})"
        ) from error


def read_state(
    path: Path, expected_class: Optional[str] = None
) -> tuple[dict, dict, str]:
    """Load ``(state, manifest, digest)`` written by :func:`write_state`.

    The file is read once: ``digest`` is :func:`artifact_digest` of the
    very bytes ``state`` was parsed from.

    Raises:
        ModelError: on a missing/corrupt manifest, an unknown schema
            version, a class mismatch (when ``expected_class`` is given)
            or an array the manifest names but the file lacks.
    """
    path = Path(path)
    fault_site("artifact.read", path=str(path))
    try:
        raw = path.read_bytes()
        with np.load(io.BytesIO(raw), allow_pickle=False) as data:
            try:
                manifest = json.loads(
                    bytes(data["__manifest__"].tobytes()).decode("utf-8")
                )
                if not isinstance(manifest, dict):
                    raise ValueError("manifest is not an object")
            except (KeyError, ValueError) as error:
                raise ModelError(
                    f"{path} is not a model artifact (bad manifest)"
                ) from error
            arrays = {
                key: data[key] for key in data.files if key != "__manifest__"
            }
    except NPZ_READ_ERRORS as error:
        raise ModelError(f"cannot read model artifact {path}: {error}") from error
    version = manifest.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelError(
            f"model artifact {path} has schema version {version!r}, "
            f"this build reads version {MODEL_SCHEMA_VERSION}"
        )
    if expected_class is not None:
        found = manifest.get("model_class")
        if found != expected_class:
            raise ModelError(
                f"model artifact {path} holds a {found!r}, "
                f"expected {expected_class!r}"
            )
    with restoring(path):
        state = unpack_state(manifest["state"], arrays)
    return state, manifest, artifact_digest(raw)


class SerializableModel:
    """Mixin adding ``save(path)`` / ``load(path)`` on top of state dicts.

    Subclasses implement ``state_dict`` / ``load_state_dict``; the mixin
    handles the on-disk format and class checking.
    """

    def state_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def load_state_dict(self, state: dict) -> "SerializableModel":  # pragma: no cover
        raise NotImplementedError

    def save(self, path: Path) -> None:
        """Write this model to ``path`` (npz arrays + JSON manifest)."""
        write_state(path, self.state_dict(), type(self).__name__)

    @classmethod
    def load(cls: Type["SerializableModel"], path: Path) -> "SerializableModel":
        """Load a model of exactly this class from ``path``."""
        state, _manifest, _digest = read_state(path, expected_class=cls.__name__)
        model = cls.__new__(cls)
        with restoring(path):
            model.load_state_dict(state)
        return model
