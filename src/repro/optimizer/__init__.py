"""Cost-based query optimizer for the simulated engine.

Translates a parsed :class:`~repro.sql.ast.Query` into a physical
:class:`~repro.engine.plan.PlanNode` tree annotated with estimated
cardinalities.  Estimation uses catalog statistics under textbook
independence/uniformity assumptions, so its errors — the very errors that
make optimizer cost a poor predictor of runtime (paper Section VII-C.1) —
arise organically rather than being injected.
"""

from repro import lazy_exports

_EXPORTS = {
    "Optimizer": "optimizer",
    "OptimizedQuery": "optimizer",
    "plan_cost": "cost",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
