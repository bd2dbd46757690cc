"""Circuit breaker: stop hammering a failing dependency, probe, self-heal.

The serving-side complement of :mod:`repro.resilience.retry`: retries
handle *transient* failures, a breaker handles *persistent* ones.  After
``failure_threshold`` consecutive failures the breaker *opens* and
callers are refused without paying for doomed calls.  After
``reset_timeout`` seconds it *half-opens*: one probe call is let
through; if it succeeds the breaker *closes* and normal service
resumes, if it fails the breaker re-opens and the timer restarts.

The clock is injectable so state transitions are unit-testable without
sleeping, and every transition is mirrored into the metrics registry
when enabled (``repro_breaker_state_<name>``: 0 closed / 1 half-open /
2 open).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ReproError
from repro.obs.metrics import get_registry, metrics_enabled

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """Closed / open / half-open state machine around one dependency.

    Args:
        name: label for metrics and status reports.
        failure_threshold: consecutive failures that open the breaker.
        reset_timeout: seconds the breaker stays open before allowing a
            half-open probe.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ReproError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ReproError("reset_timeout must be non-negative")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self.clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.open_count = 0
        self.trip_reason: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the timer ran."""
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self.clock() - self._opened_at >= self.reset_timeout
        ):
            self._transition(HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now (probes included)."""
        return self.state != OPEN

    def record_success(self) -> None:
        """Note a successful call; the probe's success closes a half-open
        breaker."""
        state = self.state
        if state == HALF_OPEN:
            self._transition(CLOSED)
        elif state == CLOSED:
            self._consecutive_failures = 0

    def record_failure(self, reason: Optional[str] = None) -> None:
        """Note a failed call; may open the breaker."""
        state = self.state
        if state == HALF_OPEN:
            self._open(reason or "half-open probe failed")
            return
        if state == OPEN:
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._open(
                reason
                or f"{self._consecutive_failures} consecutive failures"
            )

    def status(self) -> dict:
        """JSON-able state for dashboards and the CLI."""
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "open_count": self.open_count,
            "trip_reason": self.trip_reason,
        }

    # ------------------------------------------------------------------

    def _open(self, reason: str) -> None:
        self._opened_at = self.clock()
        self.open_count += 1
        self.trip_reason = reason
        self._transition(OPEN)

    def _transition(self, state: str) -> None:
        self._state = state
        if state == CLOSED:
            self._consecutive_failures = 0
            self._opened_at = None
            self.trip_reason = None
        if metrics_enabled() and self.name:
            get_registry().gauge(
                f"repro_breaker_state_{self.name}",
                "circuit breaker state: 0 closed, 1 half-open, 2 open",
            ).set(_STATE_GAUGE[state])
