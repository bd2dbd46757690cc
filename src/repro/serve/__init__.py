"""Prediction serving: HTTP daemon, micro-batching, admission control.

The operational layer over :class:`repro.api.QueryPerformancePredictor`
(ROADMAP item 1): a stdlib-only HTTP/JSON daemon that micro-batches
concurrent clients onto the one-kernel-cross ``forecast_many`` path,
meters clients with prediction-driven admission control, hot-reloads
artifacts without dropping requests, and exposes Prometheus metrics +
SLO reporting.  See docs/SERVING.md.

Self-healing: ``repro.serve.supervisor`` runs the daemon as a
health-checked child with crash recovery on an inherited socket, and
requests carry end-to-end ``deadline_ms`` budgets enforced
cooperatively through the pipeline.

This package is the only place in the codebase allowed to import
``socket`` / ``socketserver``, and ``repro.serve.wire`` its one HTTP
implementation: no module imports the stdlib's HTTP server or client
(lint rule RD012).  ``repro/serve/supervisor.py`` is the only serving
file allowed to use ``os.fork`` / ``os.kill`` / ``signal.signal`` (rule RD013).
"""

from repro import lazy_exports

_EXPORTS = {
    "AdmissionController": "admission",
    "AdmissionDecision": "admission",
    "TokenBucket": "admission",
    "BatchTooLargeError": "batcher",
    "MicroBatcher": "batcher",
    "QueueFullError": "batcher",
    "ServeClient": "client",
    "ServeConfig": "config",
    "PredictionDaemon": "daemon",
    "forecast_payload": "daemon",
    "LoadReport": "loadgen",
    "LoadRequest": "loadgen",
    "generate_load": "loadgen",
    "run_load": "loadgen",
    "Supervisor": "supervisor",
    "SupervisorConfig": "supervisor",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
