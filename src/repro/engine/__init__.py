"""Simulated shared-nothing parallel database engine.

This package stands in for the paper's HP Neoview systems.  Physical plans
(:mod:`repro.engine.plan`) are executed for real over numpy-backed tables
(:mod:`repro.engine.operators`, :mod:`repro.engine.executor`), so record
counts are genuine; elapsed time, disk I/O and message traffic come from an
analytic resource model (:mod:`repro.engine.timing`) parameterised by a
:class:`~repro.engine.system.SystemConfig`.
"""

from repro import lazy_exports

_EXPORTS = {
    "SystemConfig": "system",
    "METRIC_NAMES": "metrics",
    "PerformanceMetrics": "metrics",
    "OperatorKind": "plan",
    "PlanNode": "plan",
    "Executor": "executor",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
