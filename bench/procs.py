"""Nothing the benchmark starts outlives it.

Besides the daemon (which :class:`bench.served.DaemonProcess` stops
itself) a run starts processes it never sees: ``multiprocessing`` forks
corpus-build workers and, for the shared-memory data plane, a resource
tracker that exits only once its pipe closes - normally *after* this
process has gone.  So the benchmark adopts every orphaned descendant,
and before it exits stops and waits for all of its children.

Imports nothing from ``repro``: it has to work when a run fails early.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from pathlib import Path

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def adopt_orphans() -> bool:
    """Re-parent orphaned descendants (a worker's worker, a daemon's
    child) to this process instead of init, so ``reap_children`` sees them."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def die_with_parent() -> None:
    """``preexec_fn``: SIGTERM the child if the benchmark dies without
    unwinding (SIGKILL, a crash of the interpreter)."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def child_pids() -> list[int]:
    """Direct children of this process, zombies included."""
    me = os.getpid()
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces and brackets
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return found


def _stop_resource_tracker() -> None:
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    try:
        # closes the tracker's pipe and waits for it
        tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass  # never started, already gone, or another Python's internals


def _signal_children(signum: int) -> None:
    for pid in child_pids():
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def reap_children(grace_s: float = 15.0) -> None:
    """Stop every child and wait until each has ended: terminate, wait,
    kill what overruns ``grace_s``.  Returns with no child left."""
    _stop_resource_tracker()
    kill_at = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            # also reaches children adopted since the last pass
            overdue = time.monotonic() > kill_at
            _signal_children(signal.SIGKILL if overdue else signal.SIGTERM)
            time.sleep(0.02)
