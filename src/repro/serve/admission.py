"""Admission control driven by the predictions themselves.

The paper's headline use case is workload management: queue the
"bowling balls", fast-lane the "feathers".  This module implements that
decision loop for the serving daemon — *after* a request has been
predicted (prediction is cheap; execution is what the quotas meter),
the controller reviews the forecast:

* **Per-client quotas** — each client owns a token bucket denominated
  in *predicted seconds of query work*.  A client that keeps sending
  expensive queries exhausts its budget and gets 429 with a
  machine-readable ``retry_after_s``, while a chatty client sending
  cheap queries sails through.
* **Heavy-query shedding** — queries predicted to run longer than
  ``heavy_seconds`` are classed ``bowling_ball``; while the daemon is
  busy (inflight above ``shed_inflight``) they are shed with 503 +
  retry hints instead of monopolising the service.

Both mechanisms take an injectable ``clock`` (like
``resilience.breaker``) so tests refill buckets without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.sanitizer import guarded_by, make_lock, note_access

__all__ = ["TokenBucket", "AdmissionDecision", "AdmissionController"]

WEIGHT_FEATHER = "feather"
WEIGHT_BOWLING_BALL = "bowling_ball"

#: Smallest bucket table that inserting a bucket sweeps.
_SWEEP_MIN = 64


class TokenBucket:
    """A refilling budget of predicted-work seconds.

    Args:
        rate: tokens (predicted seconds) restored per wall second.
        burst: bucket capacity; also the initial balance.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = make_lock("serve.admission.bucket")

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_charge(self, amount: float) -> tuple[bool, float]:
        """Charge ``amount`` tokens if the balance covers it.

        A charge larger than the whole bucket (a query predicted to
        cost more than the burst) is admitted against a *full* bucket
        and drives the balance into bounded debt — so one bowling ball
        per refill window gets through instead of being starved
        forever; the debt then blocks the client until it refills.

        Returns ``(True, 0.0)`` on success, else ``(False, retry_s)``
        where ``retry_s`` is how long until the bucket could cover the
        charge at the configured refill rate.
        """
        with self._lock:
            self._refill_locked()
            needed = min(amount, self.burst)
            if needed <= self._tokens:
                self._tokens = max(self._tokens - amount, -self.burst)
                return True, 0.0
            retry = (
                (needed - self._tokens) / self.rate
                if self.rate > 0
                else float("inf")
            )
            return False, retry

    def balance(self) -> float:
        """The balance now; a read that refills nothing, so that looking
        never changes what a later charge decides."""
        with self._lock:
            elapsed = max(0.0, self._clock() - self._stamp)
            return min(self.burst, self._tokens + elapsed * self.rate)


@dataclass(frozen=True)
class AdmissionDecision:
    """Verdict on one predicted request."""

    admitted: bool
    weight_class: str
    status: int = 200
    reason: str = "admitted"
    retry_after_s: float = 0.0

    def to_payload(self) -> dict:
        return {
            "admitted": self.admitted,
            "weight_class": self.weight_class,
            "reason": self.reason,
            "retry_after_s": round(self.retry_after_s, 3),
        }


class AdmissionController:
    """Post-prediction admission review for the serving daemon.

    Args:
        quota_rate: per-client token refill (predicted seconds per wall
            second); None disables quotas.
        quota_burst: per-client bucket capacity.
        heavy_seconds: predicted-elapsed threshold for bowling balls;
            None disables weight classification and shedding.
        shed_inflight: shed bowling balls while the daemon has more
            than this many requests in flight.
        retry_after_s: baseline retry hint for shed responses.
        clock: monotonic time source shared with the buckets.
    """

    def __init__(
        self,
        quota_rate: Optional[float] = None,
        quota_burst: Optional[float] = None,
        heavy_seconds: Optional[float] = None,
        shed_inflight: int = 32,
        retry_after_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.quota_rate = quota_rate
        self.quota_burst = (
            quota_burst
            if quota_burst is not None
            else (60.0 * quota_rate if quota_rate else 0.0)
        )
        self.heavy_seconds = heavy_seconds
        self.shed_inflight = int(shed_inflight)
        self.retry_after_s = float(retry_after_s)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        #: Table size at which inserting a bucket first sweeps the table.
        self._sweep_at = _SWEEP_MIN
        self._lock = make_lock("serve.admission.controller")
        guarded_by("serve.admission.buckets", self._lock)
        self.admitted = 0
        self.quota_rejections = 0
        self.shed_rejections = 0

    def _charge(self, client: str, amount: float) -> tuple[bool, float]:
        """Charge ``client``'s bucket (see :meth:`TokenBucket.try_charge`).

        Under the table's lock, so a sweep never drops a bucket a charge
        is about to land in.
        """
        with self._lock:
            note_access("serve.admission.buckets")
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self._sweep_at:
                    self._sweep_locked()
                bucket = TokenBucket(
                    self.quota_rate or 0.0, self.quota_burst, self._clock
                )
                self._buckets[client] = bucket
            return bucket.try_charge(amount)

    def _sweep_locked(self) -> None:
        """Drop every bucket refilled to its burst: it decides exactly as
        the fresh one a next request would make, so the table holds only
        the clients still paying off a charge.  The next sweep waits for
        the table to double, which keeps inserting amortised O(1)."""
        for client in [client for client, bucket in self._buckets.items()
                       if bucket.balance() >= bucket.burst]:
            del self._buckets[client]
        self._sweep_at = max(_SWEEP_MIN, 2 * len(self._buckets))

    def classify(self, predicted_seconds: float) -> str:
        if self.heavy_seconds is not None and predicted_seconds > self.heavy_seconds:
            return WEIGHT_BOWLING_BALL
        return WEIGHT_FEATHER

    def review(
        self, client: str, predicted_seconds: float, inflight: int
    ) -> AdmissionDecision:
        """Review one predicted request for admission.

        Shedding is checked before quotas so a shed request does not
        also burn the client's budget.
        """
        weight = self.classify(predicted_seconds)
        if weight == WEIGHT_BOWLING_BALL and inflight > self.shed_inflight:
            with self._lock:
                self.shed_rejections += 1
            return AdmissionDecision(
                admitted=False,
                weight_class=weight,
                status=503,
                reason="shed_heavy",
                retry_after_s=max(self.retry_after_s, predicted_seconds),
            )
        if self.quota_rate is not None:
            ok, retry = self._charge(client, predicted_seconds)
            if not ok:
                with self._lock:
                    self.quota_rejections += 1
                return AdmissionDecision(
                    admitted=False,
                    weight_class=weight,
                    status=429,
                    reason="quota_exhausted",
                    retry_after_s=max(self.retry_after_s, retry),
                )
        with self._lock:
            self.admitted += 1
        return AdmissionDecision(admitted=True, weight_class=weight)

    def status(self) -> dict:
        """JSON-able snapshot for ``/admin/status``; ``clients`` lists the
        clients whose bucket is below its burst."""
        with self._lock:
            note_access("serve.admission.buckets")
            self._sweep_locked()
            balances = {
                client: round(bucket.balance(), 3)
                for client, bucket in sorted(self._buckets.items())
            }
            return {
                "quota_rate": self.quota_rate,
                "quota_burst": self.quota_burst if self.quota_rate else None,
                "heavy_seconds": self.heavy_seconds,
                "shed_inflight": self.shed_inflight,
                "admitted": self.admitted,
                "quota_rejections": self.quota_rejections,
                "shed_rejections": self.shed_rejections,
                "clients": balances,
            }
