"""End-to-end deadline budgets with cooperative cancellation.

A :class:`Deadline` is a monotonic budget attached to one request (or
one serving micro-batch): it remembers when it started, how much wall
time it was given, and how that time was spent per pipeline stage.  The
production hot path never kills a thread — instead each stage boundary
(``optimize`` → ``featurize`` → ``predict``, crossed through
:func:`repro.obs.seam.stage`) checks the budget on entry and charges the
stage on exit, and a spent budget surfaces as a structured
:class:`~repro.errors.DeadlineExceededError` which the serving daemon
maps to a 504 (*never* a silently late answer).

The current deadline travels on a thread-local, mirroring the
``repro.obs`` span stack: :func:`deadline_scope` installs one for a
block and :func:`current_deadline` reads it; with no deadline installed
a stage boundary pays a thread-local load plus a ``None`` check.

Usage (what the serving batcher does)::

    deadline = Deadline(budget_s=0.250, clock=clock)
    with deadline_scope(deadline):
        forecasts = service.forecast_many(sqls)   # stages check + account
    print(deadline.stage_ms)   # {"optimize": 1.7, "featurize": 0.1, ...}

The clock is injectable so tier transitions and expiry are unit-testable
without sleeping (``tests/test_serve_deadline.py`` drives a fake clock).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.analysis.sanitizer import make_lock
from repro.errors import DeadlineExceededError

__all__ = ["Deadline", "deadline_scope", "current_deadline"]


class Deadline:
    """A monotonic time budget with per-stage accounting.

    Args:
        budget_s: total wall-time budget in seconds; ``None`` means
            unbounded (accounting still accrues, checks never raise).
        clock: monotonic time source (injectable for tests); the stage
            seam times the stages of a request on it too.
    """

    __slots__ = ("budget_s", "clock", "_started", "stage_ms", "_lock")

    def __init__(
        self,
        budget_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s is not None and budget_s < 0:
            budget_s = 0.0
        self.budget_s = budget_s
        self.clock = clock
        self._started = clock()
        self.stage_ms: dict[str, float] = {}
        self._lock = make_lock("resilience.deadline")

    @classmethod
    def after_ms(
        cls,
        budget_ms: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now (None = unbounded)."""
        return cls(
            budget_s=None if budget_ms is None else budget_ms / 1e3,
            clock=clock,
        )

    # -- time queries ----------------------------------------------------

    @property
    def budget_ms(self) -> Optional[float]:
        return None if self.budget_s is None else self.budget_s * 1e3

    def fork(self) -> "Deadline":
        """A deadline that expires when this one does, with no stage
        readings yet (what a micro-batch runs under)."""
        twin = Deadline(self.budget_s, self.clock)
        twin._started = self._started
        return twin

    def elapsed_s(self) -> float:
        """Wall time spent since the deadline started."""
        return max(0.0, self.clock() - self._started)

    def remaining_s(self) -> float:
        """Budget left (``inf`` when unbounded; negative never returned)."""
        if self.budget_s is None:
            return float("inf")
        return max(0.0, self.budget_s - self.elapsed_s())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.budget_s is not None and self.elapsed_s() >= self.budget_s

    def check(self, stage: str) -> float:
        """Raise :class:`DeadlineExceededError` when the budget is spent;
        return the clock reading it was judged at.

        The cooperative cancellation point: called at stage boundaries,
        so a request never burns compute its caller has already given
        up on — and no thread is ever killed.
        """
        now = self.clock()
        if self.budget_s is None:
            return now
        elapsed = max(0.0, now - self._started)
        if elapsed >= self.budget_s:
            raise DeadlineExceededError(
                f"deadline of {self.budget_s * 1e3:.1f} ms spent before "
                f"stage {stage!r} ({elapsed * 1e3:.1f} ms elapsed)",
                stage=stage,
                budget_ms=self.budget_s * 1e3,
                elapsed_ms=elapsed * 1e3,
            )
        return now

    # -- accounting ------------------------------------------------------

    def account(self, stage: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``stage``."""
        with self._lock:
            self.stage_ms[stage] = (
                self.stage_ms.get(stage, 0.0) + max(0.0, seconds) * 1e3
            )

    def to_payload(self) -> dict:
        """JSON-able snapshot (responses, status pages, test assertions)."""
        return {
            "budget_ms": (
                None if self.budget_s is None else round(self.budget_s * 1e3, 3)
            ),
            "elapsed_ms": round(self.elapsed_s() * 1e3, 3),
            "stage_ms": {
                name: round(ms, 3) for name, ms in sorted(self.stage_ms.items())
            },
        }


# ----------------------------------------------------------------------
# The thread-local current deadline (mirrors the obs span stack)
# ----------------------------------------------------------------------

_LOCAL = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline installed on this thread, or None."""
    return getattr(_LOCAL, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` as this thread's current deadline for a block.

    Scopes nest: the previous deadline is restored on exit.  Passing
    ``None`` explicitly clears the scope for the block (used by code
    that must not inherit a caller's budget).
    """
    previous = getattr(_LOCAL, "deadline", None)
    _LOCAL.deadline = deadline
    try:
        yield deadline
    finally:
        _LOCAL.deadline = previous

