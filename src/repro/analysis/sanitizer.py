"""Runtime concurrency sanitizer: tracked locks, lock-order and lockset
checking for the threaded serving stack.

Every lock in ``repro/serve``, ``repro/obs`` and ``repro/resilience`` is
created through :func:`make_lock` / :func:`make_rlock` /
:func:`make_condition`, which return thin wrappers around the stdlib
primitives.  When the sanitizer is off (the default) an acquire is one
global flag load away from the raw primitive; when ``REPRO_SANITIZE=1``
every acquire/release additionally records ``(thread, lock, held-set)``
into a per-process store and three checkers run over the stream:

* **lock-order graph** (CC101) — each acquire while other tracked locks
  are held adds a directed edge ``held -> acquired``; observing both
  ``A -> B`` and ``B -> A`` anywhere in the process lifetime is a
  potential deadlock, reported with both acquisition sites;
* **Eraser-style lockset** (CC102) — shared state registered with
  :func:`guarded_by` refines a candidate lockset on every
  :func:`note_access`: ``C(v) := C(v) ∩ held``.  When the candidate set
  becomes empty and the state has been touched by more than one thread,
  the access is a data race candidate;
* **hold-time watchdog** (CC103) — a tracked lock held longer than
  ``REPRO_SANITIZE_HOLD_MS`` (default 50) was almost certainly held
  across a blocking call (socket send, ``subprocess``, ``sleep``) and is
  reported with the hold duration.

Findings reuse the Pack-A :class:`~repro.analysis.findings.Finding`
machinery — stable ``CC1xx`` rule IDs, text/JSON rendering,
``LINT_SCHEMA_VERSION`` — and :func:`dump_sanitizer_report` renders the
accumulated report (the pytest session-end hook in ``tests/conftest.py``
calls it and fails the run on any finding).
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from types import FrameType
from typing import Callable, Optional, Union

from repro.analysis.engine import findings_to_report
from repro.analysis.findings import Finding
from repro.analysis.rules import RuleInfo, register

__all__ = [
    "LOCK_ORDER_INVERSION",
    "LOCKSET_EMPTY",
    "LONG_HOLD",
    "TrackedLock",
    "TrackedRLock",
    "TrackedCondition",
    "make_lock",
    "make_rlock",
    "make_condition",
    "guarded_by",
    "note_access",
    "enable_sanitizer",
    "disable_sanitizer",
    "sanitizer_enabled",
    "sanitizer_findings",
    "sanitizer_acquire_count",
    "reset_sanitizer",
    "dump_sanitizer_report",
]

LOCK_ORDER_INVERSION = register(
    RuleInfo(
        id="CC101",
        name="lock-order-inversion",
        severity="error",
        pack="concurrency",
        summary="two tracked locks acquired in opposite orders "
        "(potential deadlock)",
    )
)

LOCKSET_EMPTY = register(
    RuleInfo(
        id="CC102",
        name="lockset-empty-race",
        severity="error",
        pack="concurrency",
        summary="guarded shared state accessed by multiple threads with "
        "an empty candidate lockset (Eraser)",
    )
)

LONG_HOLD = register(
    RuleInfo(
        id="CC103",
        name="lock-held-across-blocking-call",
        severity="warning",
        pack="concurrency",
        summary="tracked lock held past the hold-time budget, indicating "
        "a blocking call under the lock",
    )
)

#: Hold-time budget in milliseconds before CC103 fires (overridable via
#: the REPRO_SANITIZE_HOLD_MS environment variable).
DEFAULT_HOLD_BUDGET_MS = 50.0

_ENABLED = os.environ.get("REPRO_SANITIZE") == "1"

_SELF_FILE = os.path.abspath(__file__)


def enable_sanitizer() -> None:
    """Turn acquire/release tracking on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable_sanitizer() -> None:
    """Turn tracking off; accumulated findings are kept."""
    global _ENABLED
    _ENABLED = False


def sanitizer_enabled() -> bool:
    """Whether tracked locks are currently recording."""
    return _ENABLED


def _hold_budget_ms() -> float:
    raw = os.environ.get("REPRO_SANITIZE_HOLD_MS")
    if not raw:
        return DEFAULT_HOLD_BUDGET_MS
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_HOLD_BUDGET_MS


def _caller_site() -> tuple[str, int, str]:
    """(path, line, function) of the nearest frame outside this module."""
    frame: Optional[FrameType] = sys._getframe(2)
    while frame is not None:
        path = frame.f_code.co_filename
        if os.path.abspath(path) != _SELF_FILE:
            return (_relativize(path), frame.f_lineno, frame.f_code.co_name)
        frame = frame.f_back
    return ("<unknown>", 0, "<unknown>")


def _relativize(path: str) -> str:
    """Best-effort repo-relative posix path for report locations."""
    normalized = path.replace(os.sep, "/")
    marker = "/src/repro/"
    index = normalized.rfind(marker)
    if index >= 0:
        return "repro/" + normalized[index + len(marker):]
    for anchor in ("/tests/", "/scripts/"):
        index = normalized.rfind(anchor)
        if index >= 0:
            return normalized[index + 1:]
    return normalized.rsplit("/", 1)[-1]


def _stack_summary(limit: int = 6) -> str:
    """A compact one-line stack for finding messages."""
    frames = [
        f"{_relativize(entry.filename)}:{entry.lineno}:{entry.name}"
        for entry in traceback.extract_stack()
        if os.path.abspath(entry.filename) != _SELF_FILE
    ]
    return " <- ".join(reversed(frames[-limit:]))


class _Store:
    """Per-process acquire/release record and the three checkers.

    All internal state is guarded by ``_mutex``, a raw (untracked) lock:
    the store cannot track itself.  Held-sets are kept per thread as
    ordered lists so edge insertion sees the acquisition order.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        # thread id -> ordered [(lock id, name, site, acquire perf time)]
        self._held: dict[int, list[tuple[int, str, str, float]]] = {}
        # (earlier name, later name) -> (site, stack) of first observation
        self._edges: dict[tuple[str, str], tuple[str, str]] = {}
        # re-entrant depth: (thread id, lock id) -> count
        self._depth: dict[tuple[int, int], int] = {}
        # guarded state name -> declared lock name
        self._guards: dict[str, str] = {}
        # guarded state name -> candidate lockset (None until first access)
        self._locksets: dict[str, Optional[frozenset[str]]] = {}
        # guarded state name -> set of accessing thread ids
        self._accessors: dict[str, set[int]] = {}
        self._findings: list[Finding] = []
        self._finding_keys: set[tuple[object, ...]] = set()
        self._acquires = 0

    # -- recording ----------------------------------------------------

    def note_acquire(self, lock_id: int, name: str, reentrant: bool) -> None:
        thread_id = threading.get_ident()
        site_path, site_line, site_fn = _caller_site()
        site = f"{site_path}:{site_line}:{site_fn}"
        now = time.perf_counter()
        with self._mutex:
            self._acquires += 1
            if reentrant:
                depth_key = (thread_id, lock_id)
                depth = self._depth.get(depth_key, 0)
                self._depth[depth_key] = depth + 1
                if depth:
                    return  # inner re-acquire: no new edges, no new hold
            held = self._held.setdefault(thread_id, [])
            for _, held_name, held_site, _ in held:
                if held_name != name:
                    self._add_edge(held_name, name, held_site, site)
            held.append((lock_id, name, site, now))

    def note_release(self, lock_id: int, name: str, reentrant: bool) -> None:
        thread_id = threading.get_ident()
        now = time.perf_counter()
        with self._mutex:
            if reentrant:
                depth_key = (thread_id, lock_id)
                depth = self._depth.get(depth_key, 0)
                if depth > 1:
                    self._depth[depth_key] = depth - 1
                    return
                self._depth.pop(depth_key, None)
            held = self._held.get(thread_id, [])
            for index in range(len(held) - 1, -1, -1):
                if held[index][0] == lock_id:
                    _, _, site, acquired_at = held.pop(index)
                    self._check_hold(name, site, now - acquired_at)
                    return
            # Release of a lock acquired before tracking was enabled (or
            # handed across threads): nothing to unwind.

    def note_access(self, state: str) -> None:
        thread_id = threading.get_ident()
        with self._mutex:
            guard = self._guards.get(state)
            if guard is None:
                return
            held_names = frozenset(
                name for _, name, _, _ in self._held.get(thread_id, [])
            )
            accessors = self._accessors.setdefault(state, set())
            accessors.add(thread_id)
            candidate = self._locksets.get(state)
            if candidate is None:
                candidate = held_names
            else:
                candidate = candidate & held_names
            self._locksets[state] = candidate
            if not candidate and len(accessors) > 1:
                self._record(
                    LOCKSET_EMPTY,
                    key=("lockset", state),
                    message=(
                        f"{LOCKSET_EMPTY.name}: shared state '{state}' "
                        f"(declared guarded_by '{guard}') accessed with an "
                        f"empty candidate lockset by thread {thread_id}; "
                        f"held: {sorted(held_names) or 'nothing'}; "
                        f"stack: {_stack_summary()}"
                    ),
                )

    def register_guard(self, state: str, lock_name: str) -> None:
        with self._mutex:
            self._guards[state] = lock_name
            # Re-registration (e.g. a rebuilt daemon) resets the
            # candidate set so stale history cannot poison a new object.
            self._locksets[state] = None
            self._accessors[state] = set()

    # -- checkers -----------------------------------------------------

    def _add_edge(
        self, earlier: str, later: str, earlier_site: str, later_site: str
    ) -> None:
        edge = (earlier, later)
        if edge not in self._edges:
            self._edges[edge] = (later_site, _stack_summary())
        reverse = self._edges.get((later, earlier))
        if reverse is not None:
            reverse_site, reverse_stack = reverse
            self._record(
                LOCK_ORDER_INVERSION,
                key=("inversion", frozenset((earlier, later))),
                message=(
                    f"{LOCK_ORDER_INVERSION.name}: '{earlier}' -> '{later}' "
                    f"at {later_site} inverts '{later}' -> '{earlier}' "
                    f"previously observed at {reverse_site} "
                    f"(stack: {_stack_summary()}; "
                    f"earlier stack: {reverse_stack})"
                ),
            )

    def _check_hold(self, name: str, site: str, held_seconds: float) -> None:
        held_ms = held_seconds * 1000.0
        if held_ms <= _hold_budget_ms():
            return
        self._record(
            LONG_HOLD,
            key=("hold", name, site),
            message=(
                f"{LONG_HOLD.name}: '{name}' held {held_ms:.1f}ms "
                f"(budget {_hold_budget_ms():.0f}ms) after acquire at "
                f"{site}; move blocking work outside the lock"
            ),
        )

    def _record(
        self, rule: RuleInfo, key: tuple[object, ...], message: str
    ) -> None:
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        path, line, _ = _caller_site()
        self._findings.append(
            Finding(
                rule_id=rule.id,
                severity=rule.severity,
                path=path,
                line=line,
                column=0,
                message=message,
            )
        )

    # -- reporting ----------------------------------------------------

    def findings(self) -> list[Finding]:
        with self._mutex:
            return list(self._findings)

    def acquire_count(self) -> int:
        with self._mutex:
            return self._acquires

    def reset(self) -> None:
        with self._mutex:
            self._held.clear()
            self._edges.clear()
            self._depth.clear()
            self._guards.clear()
            self._locksets.clear()
            self._accessors.clear()
            self._findings.clear()
            self._finding_keys.clear()
            self._acquires = 0


_STORE = _Store()


class TrackedLock:
    """A named, non-reentrant lock created by :func:`make_lock`.

    Disabled-mode acquire is one module-global load and branch on top of
    the raw :class:`threading.Lock`.
    """

    __slots__ = ("name", "_lock")
    _reentrant = False

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and _ENABLED:
            _STORE.note_acquire(id(self), self.name, self._reentrant)
        return acquired

    def release(self) -> None:
        if _ENABLED:
            _STORE.note_release(id(self), self.name, self._reentrant)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class TrackedRLock(TrackedLock):
    """A named re-entrant lock; inner re-acquires are not re-recorded."""

    __slots__ = ()
    _reentrant = True

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.RLock()

    def locked(self) -> bool:
        # RLock has no locked() on 3.11.  The owning thread would pass a
        # non-blocking probe (re-entrancy), so check ownership first.
        if self._lock._is_owned():  # type: ignore[attr-defined]
            return True
        acquired = self._lock.acquire(blocking=False)
        if acquired:
            self._lock.release()
        return not acquired


class TrackedCondition:
    """A named condition variable with tracked lock bookkeeping.

    ``wait``/``wait_for`` release the underlying lock while blocked, so
    the held-set drops the condition for the duration — otherwise every
    idle consumer would trip the hold-time watchdog.
    """

    __slots__ = ("name", "_cond")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cond = threading.Condition()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._cond.acquire(blocking, timeout)
        if acquired and _ENABLED:
            _STORE.note_acquire(id(self), self.name, False)
        return acquired

    def release(self) -> None:
        if _ENABLED:
            _STORE.note_release(id(self), self.name, False)
        self._cond.release()

    def __enter__(self) -> "TrackedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if _ENABLED:
            _STORE.note_release(id(self), self.name, False)
        try:
            return self._cond.wait(timeout)
        finally:
            if _ENABLED:
                _STORE.note_acquire(id(self), self.name, False)

    def wait_for(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
    ) -> bool:
        if _ENABLED:
            _STORE.note_release(id(self), self.name, False)
        try:
            return self._cond.wait_for(predicate, timeout)
        finally:
            if _ENABLED:
                _STORE.note_acquire(id(self), self.name, False)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<TrackedCondition {self.name!r}>"


TrackedPrimitive = Union[TrackedLock, TrackedRLock, TrackedCondition]


def make_lock(name: str) -> TrackedLock:
    """The factory every production lock goes through (Pack C CC001)."""
    return TrackedLock(name)


def make_rlock(name: str) -> TrackedRLock:
    """Factory for re-entrant locks."""
    return TrackedRLock(name)


def make_condition(name: str) -> TrackedCondition:
    """Factory for condition variables."""
    return TrackedCondition(name)


def guarded_by(state: str, lock: Union[str, TrackedPrimitive]) -> None:
    """Declare that ``state`` (a dotted shared-state name) is protected
    by ``lock``; every :func:`note_access` then refines its lockset."""
    lock_name = lock if isinstance(lock, str) else lock.name
    _STORE.register_guard(state, lock_name)


def note_access(state: str) -> None:
    """Record an access to registered shared state (no-op when off)."""
    if _ENABLED:
        _STORE.note_access(state)


def sanitizer_findings() -> list[Finding]:
    """Every CC1xx finding accumulated so far, in observation order."""
    return _STORE.findings()


def sanitizer_acquire_count() -> int:
    """Tracked acquires recorded since the last reset (bench/tests).

    Only counts while the sanitizer is enabled; the serving overhead
    benchmark uses it to turn per-op microbenchmark deltas into a
    per-request cost estimate.
    """
    return _STORE.acquire_count()


def reset_sanitizer() -> None:
    """Drop all recorded state and findings (tests)."""
    _STORE.reset()


def dump_sanitizer_report(
    as_json: bool = False,
) -> tuple[int, Union[str, dict[str, object]]]:
    """(finding count, rendered report) for the session-end hook."""
    findings = sanitizer_findings()
    if as_json:
        return len(findings), findings_to_report(findings)
    if not findings:
        return 0, "sanitizer: clean (no CC1xx findings)"
    lines = [finding.render() for finding in findings]
    lines.append(f"sanitizer: {len(findings)} finding(s)")
    return len(findings), "\n".join(lines)
