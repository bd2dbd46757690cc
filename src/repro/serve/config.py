"""Tunable knobs for the prediction serving daemon.

One frozen dataclass holds every serving parameter — network binding,
micro-batching, admission control, breaker policy, SLO target, default
deadline and degradation ladder — so a daemon's behaviour is fully
described by a single value that tests, the CLI and the bench harness
can construct and log.  See docs/SERVING.md for the operational meaning
of each knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ServeError
from repro.serve.degrade import MAX_TIER

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving-daemon configuration.

    Attributes:
        host: interface to bind (default loopback).
        port: TCP port; 0 binds an ephemeral port (the daemon reports
            the actual one via ``address`` after start).
        max_batch: micro-batch size cap — the collector takes at most
            this many queued statements into one batch.  Batches form
            from whatever queued while the previous one was predicting;
            nothing is ever held back on a timer.
        max_queue: bound on queued (not yet batched) statements; further
            submissions are shed with 503 + retry hints, and one batch
            larger than the bound is refused with 400.
        quota_rate: per-client admission budget refill, in *predicted
            seconds of query work per wall second*; None disables
            quotas.  The paper's use case: the predictions themselves
            meter each client's workload.
        quota_burst: per-client budget cap (predicted seconds); defaults
            to ``60 * quota_rate`` when quotas are on.
        heavy_seconds: predicted elapsed time above which a query is a
            "bowling ball"; None disables weight classification.
        shed_inflight: shed bowling balls with 503 while more than this
            many requests are in flight (feathers always fast-lane).
        retry_after_s: baseline retry hint attached to shed responses.
        breaker_failures: consecutive batch-path failures that open the
            daemon's serving breaker.
        slo_p99_ms: target p99 request latency for the ``/admin/status``
            SLO section; None reports percentiles without a verdict.
        default_deadline_ms: deadline budget applied to requests that
            do not carry their own ``deadline_ms``; None leaves such
            requests unbounded.  An expired budget is a structured 504,
            never a silently late answer (docs/SERVING.md).
        degrade: run the degradation ladder — under sustained pressure
            the daemon steps down to its ``stale`` tier (a repeat is
            answered with the forecasts the memo last kept) and steps
            back up hysteretically.
        degrade_queue_depth: queued statements above which the ladder
            counts the daemon as under pressure.
        degrade_down_after_s: pressure must be sustained this long
            before the ladder steps down one tier.
        degrade_up_after_s: calm must be sustained this long before the
            ladder steps back up one tier (hysteresis: recovering is
            deliberately slower than degrading).
        degrade_force_tier: pin the ladder to one tier (testing); None
            runs it freely.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 32
    max_queue: int = 512
    quota_rate: Optional[float] = None
    quota_burst: Optional[float] = None
    heavy_seconds: Optional[float] = None
    shed_inflight: int = 32
    retry_after_s: float = 1.0
    breaker_failures: int = 5
    slo_p99_ms: Optional[float] = None
    default_deadline_ms: Optional[float] = None
    degrade: bool = False
    degrade_queue_depth: int = 64
    degrade_down_after_s: float = 0.25
    degrade_up_after_s: float = 1.0
    degrade_force_tier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ServeError("max_queue must be >= 1")
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ServeError("quota_rate must be positive when set")
        if self.heavy_seconds is not None and self.heavy_seconds <= 0:
            raise ServeError("heavy_seconds must be positive when set")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ServeError("default_deadline_ms must be positive when set")
        if self.degrade_force_tier is not None and not (
            0 <= self.degrade_force_tier <= MAX_TIER
        ):
            raise ServeError(
                f"degrade_force_tier must be a tier in 0..{MAX_TIER}"
            )
        if self.degrade_queue_depth < 1:
            raise ServeError("degrade_queue_depth must be >= 1")
        if self.degrade_down_after_s < 0 or self.degrade_up_after_s < 0:
            raise ServeError("degrade hysteresis windows must be non-negative")

    @property
    def effective_quota_burst(self) -> Optional[float]:
        """The burst cap actually applied when quotas are enabled."""
        if self.quota_rate is None:
            return None
        if self.quota_burst is not None:
            return self.quota_burst
        return 60.0 * self.quota_rate
