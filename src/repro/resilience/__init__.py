"""Resilience for the train/serve path: chaos, retries, checkpoints, fallback.

Four zero-dependency building blocks (see docs/ROBUSTNESS.md):

* :mod:`repro.resilience.faults` — deterministic fault injection: a
  seeded :class:`FaultPlan` arms named sites in the production code
  (``corpus.execute``, ``engine.operator``, ``artifact.read``,
  ``optimizer.optimize``, ``fallback.<stage>``) to raise, delay, corrupt
  or hard-kill on a schedule that is a pure function of
  ``(seed, site, call index)`` — every chaos test replays exactly;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`: exponential
  backoff with deterministic jitter, an exception allowlist and
  per-attempt/total deadlines, applied to corpus query execution and
  worker-pool crashes;
* :mod:`repro.resilience.checkpoint` — :class:`BuildJournal`: an
  append-only journal that lets a killed ``build_corpus`` resume where
  it died, bitwise-identically;
* :mod:`repro.resilience.deadline` — :class:`Deadline`: an end-to-end
  request time budget threaded through ``optimize → featurize →
  predict`` on a thread-local, checked cooperatively at stage
  boundaries (a spent budget is a structured
  :class:`~repro.errors.DeadlineExceededError`, never a killed thread)
  with per-stage wall-time accounting;
* :mod:`repro.resilience.fallback` — :class:`FallbackChain`: KCCA →
  per-metric regression → calibrated optimizer-cost heuristic, one
  :class:`CircuitBreaker` per stage, every prediction labelled with the
  stage that served it.

Everything is **off by default**: with no plan armed and no retry policy
passed, the instrumented hot path costs one module-global ``None`` check
per site and existing outputs are byte-for-byte unchanged.
"""

from repro import lazy_exports

_EXPORTS = {
    "CLOSED": "breaker",
    "HALF_OPEN": "breaker",
    "OPEN": "breaker",
    "CircuitBreaker": "breaker",
    "JOURNAL_FORMAT_VERSION": "checkpoint",
    "BuildJournal": "checkpoint",
    "Deadline": "deadline",
    "check_deadline": "deadline",
    "current_deadline": "deadline",
    "deadline_scope": "deadline",
    "stage_scope": "deadline",
    "STAGE_NAMES": "fallback",
    "CostHeuristicPredictor": "fallback",
    "FallbackChain": "fallback",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "arm": "faults",
    "armed": "faults",
    "armed_plan": "faults",
    "corrupt_array": "faults",
    "disarm": "faults",
    "fault_site": "faults",
    "DEFAULT_FATAL": "retry",
    "DEFAULT_RETRYABLE": "retry",
    "RetryPolicy": "retry",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
