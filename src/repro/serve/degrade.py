"""Tiered service degradation for the serving daemon.

Under sustained pressure the daemon does not fall over — it sheds
*quality* before it sheds *requests*, stepping down an explicit ladder
of service tiers and stepping back up when the pressure clears:

====  ===========  ====================================================
tier  name         what the daemon gives up
====  ===========  ====================================================
0     ``full``     nothing
1     ``stale``    freshness: a request whose every statement the
                   service's statement memo holds is answered with the
                   forecasts it last kept, labelled stale, without a
                   batch (so without the serving breaker) but through
                   the same admission review as any other answer (a
                   service without a fallback chain answers repeats
                   from the memo at every tier; for it only the label
                   changes)
====  ===========  ====================================================

The :class:`DegradeController` decides the tier.  Transitions are a
*deterministic* function of the injectable clock and the observed
pressure signals (queue depth, p99 vs SLO, breaker state) — no
randomness, no wall-clock reads — so tests drive the whole ladder with
a fake clock (``tests/test_serve_degrade.py``).  Hysteresis is built
in: stepping down requires pressure sustained for ``down_after_s``,
stepping up requires calm sustained for the (longer) ``up_after_s``,
and each transition restarts the window, so the ladder moves one tier
at a time and never flaps.

Every transition increments a step counter, updates the
``repro_serve_degrade_tier`` gauge, and is visible per-response via the
``degrade_tier`` field (plus ``served_by: "stale_cache"`` for
``stale``-tier answers from the memo).  See docs/SERVING.md.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.obs.metrics import get_registry, metrics_enabled

__all__ = [
    "DegradeController",
    "TIER_NAMES",
    "MAX_TIER",
]

#: Human names for the ladder's tiers, in step-down order.
TIER_NAMES = ("full", "stale")

MAX_TIER = len(TIER_NAMES) - 1

#: Observed p99 above ``slo_p99_ms`` times this counts as pressure.
P99_FACTOR = 1.5


class DegradeController:
    """Hysteretic tier selection from observed pressure signals.

    Args:
        queue_depth: queued statements at or above which the daemon
            counts as under pressure.
        slo_p99_ms: the SLO target; pressure when observed p99 exceeds
            ``slo_p99_ms * P99_FACTOR``.  None disables the p99 signal.
        down_after_s: how long pressure must be sustained before one
            step down.
        up_after_s: how long calm must be sustained before one step up
            (should exceed ``down_after_s``: recovery is deliberately
            the slower direction).
        force_tier: pin the ladder to a fixed tier (bench degraded-mode
            measurement, tests); None runs it freely.
        clock: monotonic time source — injectable so transitions are a
            pure function of fed timestamps.
    """

    def __init__(
        self,
        queue_depth: int = 64,
        slo_p99_ms: Optional[float] = None,
        down_after_s: float = 0.25,
        up_after_s: float = 1.0,
        force_tier: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.queue_depth = int(queue_depth)
        self.slo_p99_ms = slo_p99_ms
        self.down_after_s = float(down_after_s)
        self.up_after_s = float(up_after_s)
        self.force_tier = force_tier
        self._clock = clock
        self._lock = make_lock("serve.degrade.ladder")
        guarded_by("serve.degrade.tier", self._lock)
        self.tier = int(force_tier) if force_tier is not None else 0
        self._pressure_since: Optional[float] = None
        self._calm_since: Optional[float] = None
        self.step_downs = 0
        self.step_ups = 0
        self.last_reason = ""
        self.transitions: list[dict] = []
        self._record_gauge()

    # -- signals ---------------------------------------------------------

    def _pressure_reason(
        self,
        queue_depth: int,
        p99_ms: Optional[float],
        breaker_open: bool,
    ) -> str:
        """The first pressure signal firing, or '' when calm."""
        if breaker_open:
            return "breaker_open"
        if queue_depth >= self.queue_depth:
            return "queue_depth"
        if (
            self.slo_p99_ms is not None
            and p99_ms is not None
            and p99_ms > self.slo_p99_ms * P99_FACTOR
        ):
            return "p99_slo"
        return ""

    # -- the ladder ------------------------------------------------------

    def evaluate(
        self,
        queue_depth: int,
        p99_ms: Optional[float] = None,
        breaker_open: bool = False,
    ) -> int:
        """Feed one observation; returns the (possibly updated) tier.

        Deterministic: the resulting tier depends only on the sequence
        of observations and the clock values at which they were fed.
        """
        with self._lock:
            note_access("serve.degrade.tier")
            if self.force_tier is not None:
                self.tier = int(self.force_tier)
                return self.tier
            now = self._clock()
            reason = self._pressure_reason(queue_depth, p99_ms, breaker_open)
            if reason:
                self._calm_since = None
                if self._pressure_since is None:
                    self._pressure_since = now
                elif (
                    now - self._pressure_since >= self.down_after_s
                    and self.tier < MAX_TIER
                ):
                    self._transition_locked(self.tier + 1, reason, now)
                    self._pressure_since = now  # next step needs a new window
            else:
                self._pressure_since = None
                if self._calm_since is None:
                    self._calm_since = now
                elif (
                    now - self._calm_since >= self.up_after_s and self.tier > 0
                ):
                    self._transition_locked(self.tier - 1, "calm", now)
                    self._calm_since = now
            return self.tier

    def _transition_locked(self, to_tier: int, reason: str, now: float) -> None:
        """Apply one step (caller holds ``_lock``); records counters."""
        direction = "down" if to_tier > self.tier else "up"
        if direction == "down":
            self.step_downs += 1
        else:
            self.step_ups += 1
        self.transitions.append(
            {
                "from": self.tier,
                "to": to_tier,
                "direction": direction,
                "reason": reason,
                "at_s": round(now, 6),
            }
        )
        del self.transitions[:-64]  # bounded history
        self.tier = to_tier
        self.last_reason = reason
        self._record_gauge()
        if metrics_enabled():
            get_registry().counter(
                f"repro_serve_degrade_step_{direction}_total",
                f"degradation ladder steps {direction}",
            ).inc()

    def _record_gauge(self) -> None:
        if metrics_enabled():
            get_registry().gauge(
                "repro_serve_degrade_tier",
                "current degradation tier (0 = full service)",
            ).set(float(self.tier))

    # -- tier effects ----------------------------------------------------

    @property
    def tier_name(self) -> str:
        return TIER_NAMES[self.tier]

    def stale_ok(self) -> bool:
        """The last tier may answer repeats from the statement memo."""
        return self.tier >= MAX_TIER

    def status(self) -> dict:
        """JSON-able ladder state for ``/admin/status``."""
        with self._lock:
            note_access("serve.degrade.tier")
            return {
                "tier": self.tier,
                "tier_name": self.tier_name,
                "forced": self.force_tier is not None,
                "step_downs": self.step_downs,
                "step_ups": self.step_ups,
                "last_reason": self.last_reason,
                "signals": {
                    "queue_depth": self.queue_depth,
                    "slo_p99_ms": self.slo_p99_ms,
                    "p99_factor": P99_FACTOR,
                },
                "hysteresis": {
                    "down_after_s": self.down_after_s,
                    "up_after_s": self.up_after_s,
                },
                "transitions": list(self.transitions[-8:]),
            }
