"""In-process metrics registry: counters, gauges and bucketed histograms.

The serving-side companion to :mod:`repro.obs.trace`: traces answer
"where did *this* request go", metrics answer "what is the fleet doing" —
request totals, latency percentiles, anomaly rates — cheap enough to keep
on permanently and scrape periodically.

Design constraints:

* zero dependencies (stdlib only), safe under threads (one registry
  lock for creation, one lock per instrument for updates);
* **off by default**: :func:`metrics_enabled` makes disabled
  instrumentation a flag check (the stage seam, :mod:`repro.obs.seam`,
  observes a stage's histogram only while it is on), so the hot path
  carries no cost until someone opts in;
* fixed-bucket histograms: quantiles (p50/p95/p99) are interpolated from
  bucket counts, exactly like a Prometheus server would, so the text
  export (:meth:`MetricsRegistry.render_prometheus`) and the in-process
  :meth:`~MetricsRegistry.snapshot` agree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from repro.analysis.sanitizer import guarded_by, make_lock, note_access
from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "reset_metrics",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
]

#: Default histogram buckets (seconds), exponential from 50us to 60s —
#: sized for this package's predict (~100us-10ms) and fit (~0.1-60s)
#: latencies.  Upper bounds; an implicit +Inf bucket catches the rest.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_ENABLED = False


def enable_metrics() -> None:
    """Turn metric recording on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable_metrics() -> None:
    """Turn metric recording off; accumulated values are kept."""
    global _ENABLED
    _ENABLED = False


def metrics_enabled() -> bool:
    """Whether instrumented code is currently recording metrics."""
    return _ENABLED


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = make_lock("obs.metrics.counter")

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Gauge:
    """A value that can go up and down (window sizes, accuracy rates)."""

    __slots__ = ("name", "help", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = make_lock("obs.metrics.gauge")

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    Args:
        name: metric name (``repro_predict_seconds``).
        buckets: ascending upper bounds; an implicit +Inf bucket is
            appended.  Defaults to :data:`DEFAULT_LATENCY_BUCKETS`.
    """

    __slots__ = (
        "name", "help", "buckets", "_counts", "_sum", "_count",
        "_min", "_max", "_lock",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
        if not bounds or list(bounds) != sorted(bounds):
            raise ReproError(
                f"histogram {name} buckets must be ascending and non-empty"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = make_lock("obs.metrics.histogram")

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile, linearly interpolated in its bucket.

        Bucket-resolution estimate (like Prometheus ``histogram_quantile``):
        exact only up to bucket width.  Returns NaN with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError("quantile must be in [0, 1]")
        with self._lock:
            count = self._count
            counts = list(self._counts)
            lo_seen, hi_seen = self._min, self._max
        if count == 0:
            return float("nan")
        target = q * count
        cumulative = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                # Interpolate within this bucket's [lower, upper) range,
                # clamped to actually-observed values at the extremes.
                lower = self.buckets[index - 1] if index > 0 else lo_seen
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else hi_seen
                )
                lower = max(lower, lo_seen)
                upper = min(upper, hi_seen) if upper >= lower else lower
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return hi_seen  # pragma: no cover - q == 1 handled above

    def percentiles(self) -> dict:
        """The conventional p50/p95/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def snapshot(self) -> dict:
        with self._lock:
            payload = {
                "type": self.kind,
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": {
                    str(bound): count
                    for bound, count in zip(self.buckets, self._counts)
                },
                "inf": self._counts[-1],
            }
        payload.update(self.percentiles())
        return payload


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: the same
    name always returns the same instrument, and asking for a name under
    a different type raises :class:`~repro.errors.ReproError` (a silent
    type change would corrupt dashboards).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = make_lock("obs.metrics.registry")
        guarded_by("obs.metrics.registry", self._lock)

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            note_access("obs.metrics.registry")
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help), Counter.kind
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge.kind)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), Histogram.kind
        )

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """``{name: instrument.snapshot()}`` for every instrument."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (counters get ``_total``)."""
        lines: list[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                cumulative = 0
                for bound in metric.buckets:
                    cumulative += snap["buckets"][str(bound)]
                    lines.append(
                        f'{name}_bucket{{le="{bound:g}"}} {cumulative}'
                    )
                cumulative += snap["inf"]
                lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{name}_sum {snap['sum']:.9g}")
                lines.append(f"{name}_count {snap['count']}")
            else:
                lines.append(f"{name} {metric.value:.9g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument (test helper)."""
        with self._lock:
            note_access("obs.metrics.registry")
            self._metrics.clear()


#: The process-wide default registry every instrumented call site uses.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def reset_metrics() -> None:
    """Clear the default registry (test helper)."""
    _REGISTRY.reset()
