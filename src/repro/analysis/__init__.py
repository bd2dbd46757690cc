"""Static analysis: codebase-contract lint, plan lint and the
concurrency pack.

Three rule packs behind one engine (see docs/STATIC_ANALYSIS.md):

* **Pack A** (``RDnnn``, :mod:`repro.analysis.codebase`) — AST rules
  that enforce the repository's codebase contracts (wall clock, fault
  sites, typing, network and process boundaries) on ``src/repro``
  itself; run them via ``scripts/check.py`` or
  :func:`repro.analysis.runner.run_checks`.
* **Pack B** (``PLnnn``, :mod:`repro.analysis.planlint`) — checks on
  compiled plan trees that flag pathological plans (cartesian products,
  inconsistent cardinalities, broadcast blowups, operator-vocabulary
  extrapolation) before a prediction is trusted; every
  ``Optimizer.optimize`` call runs the structural subset and attaches
  the warnings to its output and to :class:`repro.api.Forecast`.
* **Pack C** (``CCnnn``, :mod:`repro.analysis.concurrency` +
  :mod:`repro.analysis.sanitizer`) — concurrency correctness for the
  threaded serving stack: CC0xx are static AST rules (bare locks,
  unlocked global mutation, inconsistently locked attributes,
  anonymous event waits) run with Pack A, CC1xx are
  runtime findings from the ``REPRO_SANITIZE=1`` sanitizer (lock-order
  inversions, Eraser lockset races, hold-time violations).
"""

from repro import lazy_exports

_EXPORTS = {
    "LINT_SCHEMA_VERSION": "findings",
    "Finding": "findings",
    "PlanWarning": "findings",
    "RuleInfo": "rules",
    "all_rules": "rules",
    "get": "rules",
    "is_known": "rules",
    "lint_package": "engine",
    "lint_source": "engine",
    "CODE_RULES": "codebase",
    "CONCURRENCY_RULES": "concurrency",
    "dump_sanitizer_report": "sanitizer",
    "guarded_by": "sanitizer",
    "make_condition": "sanitizer",
    "make_lock": "sanitizer",
    "make_rlock": "sanitizer",
    "note_access": "sanitizer",
    "reset_sanitizer": "sanitizer",
    "sanitizer_enabled": "sanitizer",
    "sanitizer_findings": "sanitizer",
    "corpus_vocabulary": "planlint",
    "lint_plan": "planlint",
    "plan_vocabulary": "planlint",
    "vocabulary_warnings": "planlint",
    "CheckReport": "runner",
    "run_checks": "runner",
    "self_lint": "runner",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
