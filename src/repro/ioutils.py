"""Crash-safe file writing and shared-memory data-plane primitives.

A process killed mid-``np.savez_compressed`` leaves a torn half-written
file at the destination path; the next reader then fails on what looks
like a corrupt artifact even though the previous, good version was
overwritten to produce it.  The helpers here make every on-disk artifact
write atomic: the payload goes to a temporary file *in the destination
directory* (same filesystem, so the final rename cannot cross devices),
is flushed and fsynced, and only then moved over the destination with
:func:`os.replace` — which POSIX guarantees is atomic.  A crash at any
point leaves either the old complete file or the new complete file,
never a torn one.

The second half of the module is the **array plane**: publish a mapping
of numpy arrays once — into a single ``multiprocessing.shared_memory``
segment, or a memory-mapped spill file as fallback — and let any number
of worker processes *attach* zero-copy read-only views instead of
re-pickling the arrays per worker (see docs/PERFORMANCE.md, "Data
plane").  Plane creation is confined to this module by static-analysis
rule RD011, so segment lifecycle (the registry below, ``atexit``
cleanup, resource-tracker hygiene) has exactly one owner.

This module sits below everything else in the package (it imports only
the standard library, numpy and the fault-site registry at import time)
so any layer — model artifacts, corpus caches, checkpoint journals —
can use it without import cycles.  ``multiprocessing`` is imported by
the functions that publish and attach planes, so a process that only
writes files never loads it.
"""

from __future__ import annotations

import atexit
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

import numpy as np

from repro.resilience.faults import fault_site

if TYPE_CHECKING:
    from multiprocessing import shared_memory

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_savez",
    "fsync_dir",
    "ArrayPlaneHandle",
    "ArrayPlane",
    "AttachedArrays",
    "publish_arrays",
    "attach_arrays",
    "active_plane_names",
    "close_all_planes",
]


def fsync_dir(directory: Union[str, Path]) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on some filesystems
        pass
    finally:
        os.close(fd)


def _atomic_replace(
    path: Path, write_payload: Callable[[object], None], suffix: str
) -> None:
    """Write via a same-directory temp file, fsync, then atomically rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=suffix, dir=path.parent
    )
    tmp_path = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            write_payload(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            tmp_path.unlink()
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload``."""
    _atomic_replace(Path(path), lambda handle: handle.write(payload), ".tmp")


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_savez(path: Union[str, Path], **arrays: np.ndarray) -> None:
    """Atomic drop-in for ``np.savez_compressed(path, **arrays)``.

    Unlike ``np.savez_compressed`` this never appends ``.npz`` to the
    path implicitly — callers pass the exact destination — and the
    destination is only ever a complete archive.
    """
    _atomic_replace(
        Path(path),
        lambda handle: np.savez_compressed(handle, **arrays),
        ".npz.tmp",
    )


# ----------------------------------------------------------------------
# Shared-memory array plane
# ----------------------------------------------------------------------

#: Offset alignment for packed arrays; generous enough for any numpy
#: dtype and for cache-line-friendly access.
_PLANE_ALIGN = 64


@dataclass(frozen=True)
class ArrayPlaneHandle:
    """Picklable descriptor of a published array plane.

    Ship this to worker processes (it is a few hundred bytes no matter
    how large the arrays are) and call :func:`attach_arrays` there.

    Attributes:
        backend: ``"shm"`` (POSIX shared memory) or ``"mmap"`` (spill
            file on disk).
        name: shared-memory segment name, or the spill file path.
        nbytes: total payload size of the plane.
        entries: per-array ``(key, dtype_str, shape, offset)`` records.
    """

    backend: str
    name: str
    nbytes: int
    entries: tuple[tuple[str, str, tuple[int, ...], int], ...]


def _pack_layout(
    arrays: Mapping[str, np.ndarray],
) -> tuple[list[tuple[str, np.ndarray, int]], int]:
    """Assign an aligned offset to each array; return layout + total."""
    layout: list[tuple[str, np.ndarray, int]] = []
    offset = 0
    for key, value in arrays.items():
        array = np.ascontiguousarray(value)
        offset = -(-offset // _PLANE_ALIGN) * _PLANE_ALIGN
        layout.append((key, array, offset))
        offset += array.nbytes
    return layout, offset


#: Planes created (and therefore owned) by this process, by name.  A
#: forked worker inherits the dict but never cleans up through it: every
#: entry records the owning PID and cleanup is a no-op elsewhere.
_ACTIVE_PLANES: dict[str, "ArrayPlane"] = {}


class ArrayPlane:
    """Owner handle for a published plane; closing unlinks the backing.

    Created only by :func:`publish_arrays`.  The owner keeps the segment
    (or spill file) alive; :meth:`close` — idempotent, also run by the
    ``atexit`` hook and usable as a context manager — releases it.  A
    crash between publish and close is covered twice: the interpreter's
    ``atexit`` hook for clean-ish deaths, and (for shm) the
    ``multiprocessing`` resource tracker for hard kills.
    """

    def __init__(
        self,
        handle: ArrayPlaneHandle,
        shm: Optional[shared_memory.SharedMemory],
    ) -> None:
        self.handle = handle
        self._shm = shm
        self._owner_pid = os.getpid()
        self._closed = False
        _ACTIVE_PLANES[handle.name] = self

    def close(self) -> None:
        """Release and unlink the backing storage (idempotent)."""
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        _ACTIVE_PLANES.pop(self.handle.name, None)
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
        elif self.handle.backend == "mmap":
            try:
                os.unlink(self.handle.name)
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ArrayPlane":
        return self

    def __exit__(self, *_exc: object) -> bool:
        self.close()
        return False


class AttachedArrays:
    """Zero-copy read-only views over a published plane.

    Mapping-like: ``attached["key"]`` returns the array view.  Keep this
    object alive as long as any view is in use — it pins the underlying
    shared-memory buffer (or memory map).  :meth:`close` drops the local
    mapping only; it never unlinks the plane (the publisher owns that).
    """

    def __init__(
        self,
        handle: ArrayPlaneHandle,
        arrays: dict[str, np.ndarray],
        shm: Optional[shared_memory.SharedMemory],
    ) -> None:
        self.handle = handle
        self._arrays = arrays
        self._shm = shm

    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def keys(self):  # noqa: ANN201 - mapping convenience
        return self._arrays.keys()

    def close(self) -> None:
        """Drop the local attachment (views become invalid)."""
        self._arrays = {}
        if self._shm is not None:
            try:
                self._shm.close()
            except (OSError, BufferError):  # pragma: no cover - views alive
                pass
            self._shm = None


def publish_arrays(
    arrays: Mapping[str, np.ndarray],
    backend: str = "auto",
    spill_dir: Optional[Union[str, Path]] = None,
) -> ArrayPlane:
    """Pack ``arrays`` into one shared plane; return the owner handle.

    Args:
        arrays: name → numpy array (any dtype, made C-contiguous).
        backend: ``"shm"``, ``"mmap"``, or ``"auto"`` (shared memory,
            falling back to a spill file when /dev/shm is unavailable).
        spill_dir: directory for the ``mmap`` spill file (default: the
            system temp dir).

    The returned :class:`ArrayPlane` owns the storage; its picklable
    ``.handle`` is what workers attach to.
    """
    if backend not in ("auto", "shm", "mmap"):
        raise ValueError(f"unknown array-plane backend {backend!r}")
    fault_site("artifact.write", kind="plane", backend=backend)
    layout, total = _pack_layout(arrays)
    if backend in ("auto", "shm"):
        try:
            return _publish_shm(layout, total)
        except OSError:
            if backend == "shm":
                raise
    return _publish_mmap(layout, total, spill_dir)


def _publish_shm(
    layout: list[tuple[str, np.ndarray, int]], total: int
) -> ArrayPlane:
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        entries = []
        for key, array, offset in layout:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=shm.buf, offset=offset
            )
            view[...] = array
            entries.append((key, array.dtype.str, tuple(array.shape), offset))
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    handle = ArrayPlaneHandle(
        backend="shm", name=shm.name, nbytes=total, entries=tuple(entries)
    )
    return ArrayPlane(handle, shm)


def _publish_mmap(
    layout: list[tuple[str, np.ndarray, int]],
    total: int,
    spill_dir: Optional[Union[str, Path]],
) -> ArrayPlane:
    directory = str(spill_dir) if spill_dir is not None else None
    fd, path = tempfile.mkstemp(prefix="repro-plane-", suffix=".bin",
                                dir=directory)
    try:
        with os.fdopen(fd, "wb") as sink:
            sink.truncate(max(total, 1))
            entries = []
            for key, array, offset in layout:
                sink.seek(offset)
                sink.write(array.tobytes())
                entries.append(
                    (key, array.dtype.str, tuple(array.shape), offset)
                )
            sink.flush()
            os.fsync(sink.fileno())
    except BaseException:
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover
            pass
        raise
    handle = ArrayPlaneHandle(
        backend="mmap", name=path, nbytes=total, entries=tuple(entries)
    )
    return ArrayPlane(handle, None)


def attach_arrays(handle: ArrayPlaneHandle) -> AttachedArrays:
    """Attach zero-copy read-only views to a published plane.

    The worker-side half of the data plane: no bytes are copied — views
    are constructed directly over the shared buffer (or memory map) and
    marked read-only, so a worker cannot corrupt its peers' data.

    Shared-memory attaches are scrubbed from this process's
    ``multiprocessing`` resource tracker: on Python < 3.13 *every*
    ``SharedMemory`` constructor registers the segment, so without the
    unregister a worker's tracker would whine about (or even unlink) a
    segment the publisher still owns.
    """
    fault_site("artifact.read", kind="plane", backend=handle.backend)
    arrays: dict[str, np.ndarray] = {}
    if handle.backend == "shm":
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=handle.name, create=False)
        if handle.name not in _ACTIVE_PLANES:
            # Attach-side registration (unconditional before 3.13): the
            # publisher's tracker entry is the one that must survive.
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except (AttributeError, KeyError):  # pragma: no cover
                pass
        for key, dtype, shape, offset in handle.entries:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
            view.flags.writeable = False
            arrays[key] = view
        return AttachedArrays(handle, arrays, shm)
    if handle.backend == "mmap":
        for key, dtype, shape, offset in handle.entries:
            mapped = np.memmap(
                handle.name, dtype=np.dtype(dtype), mode="r",
                offset=offset, shape=shape,
            )
            arrays[key] = mapped
        return AttachedArrays(handle, arrays, None)
    raise ValueError(f"unknown array-plane backend {handle.backend!r}")


def active_plane_names() -> tuple[str, ...]:
    """Names of planes published (and not yet closed) by this process."""
    pid = os.getpid()
    return tuple(
        sorted(
            name
            for name, plane in _ACTIVE_PLANES.items()
            if plane._owner_pid == pid
        )
    )


def close_all_planes() -> int:
    """Close every plane this process still owns; returns the count.

    Registered with ``atexit`` so an exception that unwinds past the
    publisher cannot leak ``/dev/shm`` segments; also the test hook for
    asserting the registry is empty.
    """
    closed = 0
    for name in active_plane_names():
        plane = _ACTIVE_PLANES.get(name)
        if plane is not None:
            plane.close()
            closed += 1
    return closed


atexit.register(close_all_planes)
