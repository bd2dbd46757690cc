"""Observability for the train/serve path: tracing, metrics, drift.

Three zero-dependency building blocks (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — nestable :func:`span` context managers
  recording wall/CPU time and attributes into a thread-local trace tree,
  exportable as JSON and mergeable across worker processes;
* :mod:`repro.obs.metrics` — a process-wide registry of named counters,
  gauges and fixed-bucket histograms with :func:`metrics_snapshot` and a
  Prometheus text export;
* :mod:`repro.obs.drift` — :class:`DriftMonitor`, tracking the paper's
  within-20 %-relative-error fraction over a sliding window of live
  (predicted, actual) pairs and flagging degradation.

Everything is **disabled by default**: the instrumented hot path costs a
flag check per call site until :func:`enable_tracing` /
:func:`enable_metrics` opt in, so observability can ship inside the
production code rather than bolted onto benchmarks.
"""

from repro import lazy_exports

_EXPORTS = {
    "DriftMonitor": "drift",
    "relative_errors": "drift",
    "DEFAULT_LATENCY_BUCKETS": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "disable_metrics": "metrics",
    "enable_metrics": "metrics",
    "get_registry": "metrics",
    "metrics_enabled": "metrics",
    "reset_metrics": "metrics",
    "timed": "metrics",
    "Span": "trace",
    "attach_spans": "trace",
    "disable_tracing": "trace",
    "drain_trace": "trace",
    "enable_tracing": "trace",
    "export_trace": "trace",
    "pretty_trace": "trace",
    "reset_trace": "trace",
    "span": "trace",
    "trace_roots": "trace",
    "tracing_enabled": "trace",
}
__all__ = [*_EXPORTS, "metrics_snapshot"]
__getattr__ = lazy_exports(__name__, _EXPORTS)


def metrics_snapshot() -> dict:
    """Snapshot of the default registry (``{name: state}``)."""
    from repro.obs.metrics import get_registry

    return get_registry().snapshot()
