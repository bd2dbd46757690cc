"""Deterministic fault injection for chaos testing the train/serve path.

A :class:`FaultPlan` arms named *fault sites* — fixed points the
production code already passes through (``corpus.execute``,
``engine.operator``, ``artifact.read``, ``artifact.write``,
``optimizer.optimize``, ``serve.batch``) — to raise, delay, corrupt
or hard-kill on chosen invocations.  Whether invocation *k* of site *s*
fires is a pure function of ``(plan seed, site, k)``, so every chaos run
is exactly reproducible: the same seed produces the same failure
schedule no matter when or where the test runs.

Sites mirror the ``repro.obs`` flag pattern: while no plan is armed the
per-site cost is one module-global load and a ``None`` check — the
machinery ships inside the production code, permanently, at ~zero cost
(``repro.experiments.bench`` measures it).

Usage::

    from repro.resilience import FaultPlan, armed

    plan = FaultPlan(seed=11)
    plan.on("corpus.execute", mode="raise", rate=0.2)        # seeded coin
    plan.on("engine.operator", mode="delay", calls={3}, delay=0.05)
    plan.on("serve.handler", mode="raise", match={"client": "ci"})
    with armed(plan):
        ...                 # chaos happens, deterministically
    print(plan.fired)       # {"corpus.execute": 7, ...}
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterable, Optional

import numpy as np

from repro.analysis.sanitizer import make_lock
from repro.errors import InjectedFault, ReproError
from repro.obs.metrics import get_registry, metrics_enabled
from repro.rng import child_generator

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "fault_site",
    "corrupt_array",
    "arm",
    "disarm",
    "armed",
    "armed_plan",
    "REGISTERED_SITES",
    "site_registered",
]

_MODES = ("raise", "delay", "corrupt", "exit", "hang")

#: The fixed fault-site vocabulary.  Production code may only declare
#: sites named here; the static analysis pass (rule RD006) enforces
#: this, so chaos plans written against the documented names keep
#: matching real injection points.
REGISTERED_SITES = frozenset(
    {
        "corpus.execute",
        "engine.operator",
        "artifact.read",
        "artifact.write",
        "optimizer.optimize",
        "serve.handler",
        "serve.batch",
        "serve.supervisor",
    }
)


def site_registered(name: str) -> bool:
    """Whether ``name`` is a registered fault-site name."""
    return name in REGISTERED_SITES


class FaultSpec:
    """One armed fault: where, when and how to fail.

    Args:
        site: fault-site name the spec is armed at.
        mode: ``raise`` (throw :class:`InjectedFault`), ``delay`` (sleep
            ``delay`` seconds), ``corrupt`` (the site's payload is
            overwritten with NaNs via :func:`corrupt_array`), ``exit``
            (kill the process with ``os._exit`` — simulates a crashed
            worker; the parent sees ``BrokenProcessPool`` and a
            supervisor sees a SIGKILL-shaped child death), or ``hang``
            (stall until just past the caller's current
            :class:`~repro.resilience.deadline.Deadline` — ``delay`` is
            the margin past expiry, or the absolute stall when no
            bounded deadline is installed — so deadline enforcement is
            testable under injected stalls).
        calls: explicit 1-based invocation indices to fire on.  Mutually
            composable with ``rate``; when both are unset the spec never
            fires.
        rate: probability any given invocation fires, decided by a coin
            derived from ``(seed, site, call index)`` — deterministic.
        match: ``{context_key: value}`` equality filters against the
            keyword context the site passes (e.g. ``query_id``).  All
            keys must match for the spec to fire.
        delay: sleep length for ``delay`` mode.
        message: override for the injected error message.
    """

    __slots__ = ("site", "mode", "calls", "rate", "match", "delay", "message")

    def __init__(
        self,
        site: str,
        mode: str = "raise",
        calls: Optional[Iterable[int]] = None,
        rate: float = 0.0,
        match: Optional[dict] = None,
        delay: float = 0.0,
        message: Optional[str] = None,
    ) -> None:
        if mode not in _MODES:
            raise ReproError(f"unknown fault mode {mode!r}; one of {_MODES}")
        if not 0.0 <= rate <= 1.0:
            raise ReproError("fault rate must be in [0, 1]")
        self.site = site
        self.mode = mode
        self.calls = frozenset(calls) if calls is not None else None
        self.rate = float(rate)
        self.match = dict(match) if match else None
        self.delay = float(delay)
        self.message = message

    def fires(self, seed: int, call_index: int, context: dict) -> bool:
        """Whether this spec fires on invocation ``call_index`` — a pure
        function of ``(seed, site, call_index)`` plus the context filter."""
        if self.match is not None:
            for key, value in self.match.items():
                if context.get(key) != value:
                    return False
        if self.calls is not None and call_index in self.calls:
            return True
        if self.rate > 0.0:
            coin = child_generator(seed, f"fault:{self.site}:{call_index}")
            return bool(coin.random() < self.rate)
        return False

    def describe(self) -> dict:
        """JSON-able summary (for logs and test assertions)."""
        return {
            "site": self.site,
            "mode": self.mode,
            "calls": sorted(self.calls) if self.calls is not None else None,
            "rate": self.rate,
            "match": self.match,
            "delay": self.delay,
        }


class FaultPlan:
    """A seeded, reproducible schedule of failures across named sites.

    The plan keeps one invocation counter per site; :meth:`check`
    consults every spec armed at that site and performs the first firing
    spec's action.  Plans are picklable (the internal lock is rebuilt on
    unpickle) so the corpus build can ship them to worker processes —
    each worker counts its own site invocations from 1.

    Args:
        seed: drives every ``rate``-based coin; two plans with the same
            seed and specs produce identical failure schedules.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: dict[str, list[FaultSpec]] = {}
        self._calls: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self._lock = make_lock("resilience.faults.plan")

    # -- construction ----------------------------------------------------

    def on(
        self,
        site: str,
        mode: str = "raise",
        calls: Optional[Iterable[int]] = None,
        rate: float = 0.0,
        match: Optional[dict] = None,
        delay: float = 0.0,
        message: Optional[str] = None,
    ) -> "FaultPlan":
        """Arm a fault at ``site`` (chainable); see :class:`FaultSpec`."""
        spec = FaultSpec(site, mode, calls, rate, match, delay, message)
        self._specs.setdefault(site, []).append(spec)
        return self

    def without_modes(self, modes: Iterable[str]) -> "FaultPlan":
        """A copy of this plan with the given fault modes stripped.

        Used by the resilient corpus build: ``exit`` faults model a
        *hardware-level* worker crash, so the replacement pool built
        after a crash does not re-arm them (a retried build would
        otherwise crash forever on the same deterministic schedule).
        """
        dropped = set(modes)
        clone = FaultPlan(self.seed)
        for site, specs in self._specs.items():
            for spec in specs:
                if spec.mode not in dropped:
                    clone._specs.setdefault(site, []).append(spec)
        return clone

    @property
    def sites(self) -> list[str]:
        """Site names with at least one armed spec."""
        return sorted(self._specs)

    def specs(self, site: str) -> list[FaultSpec]:
        """The specs armed at ``site`` (possibly empty)."""
        return list(self._specs.get(site, ()))

    # -- execution -------------------------------------------------------

    def check(self, site: str, context: dict) -> Optional[FaultSpec]:
        """Count one invocation of ``site`` and act on any firing spec.

        Returns the firing ``corrupt``-mode spec (the caller applies the
        corruption to its payload via :func:`corrupt_array`), or None.

        Raises:
            InjectedFault: when a ``raise`` spec fires.
        """
        specs = self._specs.get(site)
        if not specs:
            return None
        with self._lock:
            call_index = self._calls.get(site, 0) + 1
            self._calls[site] = call_index
        for spec in specs:
            if not spec.fires(self.seed, call_index, context):
                continue
            with self._lock:
                self.fired[site] = self.fired.get(site, 0) + 1
            if metrics_enabled():
                get_registry().counter(
                    "repro_faults_injected_total",
                    "faults fired by the armed FaultPlan",
                ).inc()
            if spec.mode == "delay":
                time.sleep(spec.delay)
                return None
            if spec.mode == "hang":
                time.sleep(_hang_stall(spec.delay))
                return None
            if spec.mode == "corrupt":
                return spec
            if spec.mode == "exit":
                os._exit(13)
            raise InjectedFault(
                spec.message
                or f"injected fault at {site} (call {call_index})",
                site=site,
                call_index=call_index,
            )
        return None

    def reset_counters(self) -> None:
        """Zero invocation and fired counters (not the armed specs)."""
        with self._lock:
            self._calls.clear()
            self.fired.clear()

    # -- pickling (worker processes) ------------------------------------

    def __getstate__(self) -> dict:
        state = {
            "seed": self.seed,
            "specs": self._specs,
            "calls": dict(self._calls),
            "fired": dict(self.fired),
        }
        return state

    def __setstate__(self, state: dict) -> None:
        self.seed = state["seed"]
        self._specs = state["specs"]
        self._calls = dict(state["calls"])
        self.fired = dict(state["fired"])
        self._lock = make_lock("resilience.faults.plan")


def _hang_stall(margin_s: float) -> float:
    """How long a ``hang`` fault sleeps.

    With a bounded :class:`~repro.resilience.deadline.Deadline` installed
    on the calling thread, the stall lands just past its expiry (the
    remaining budget plus ``margin_s``); otherwise ``margin_s`` is the
    absolute stall.  Either way the sleep is capped so a mis-armed plan
    cannot wedge a test run indefinitely.
    """
    from repro.resilience.deadline import current_deadline

    stall = margin_s
    deadline = current_deadline()
    if deadline is not None and deadline.budget_s is not None:
        stall = deadline.remaining_s() + max(margin_s, 0.02)
    return min(max(stall, 0.0), 30.0)


# ----------------------------------------------------------------------
# The armed-plan switch (mirrors the repro.obs enable flags)
# ----------------------------------------------------------------------

#: The armed plan, or None.  Sites read this once per invocation; the
#: disarmed fast path is a single global load + None test.
_ARMED: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` process-wide; sites start consulting it immediately."""
    global _ARMED
    _ARMED = plan


def disarm() -> None:
    """Disarm fault injection; sites return to their no-op fast path."""
    global _ARMED
    _ARMED = None


def armed_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    return _ARMED


@contextmanager
def armed(plan: FaultPlan):
    """Context manager: arm ``plan`` for the block, restore on exit."""
    previous = _ARMED
    arm(plan)
    try:
        yield plan
    finally:
        if previous is None:
            disarm()
        else:
            arm(previous)


def fault_site(site: str, **context) -> Optional[FaultSpec]:
    """Declare one invocation of a named fault site.

    The call the production code makes.  Disarmed, it is a global load
    and a ``None`` check; armed, the plan counts the invocation and may
    raise / sleep / kill the process.  Returns a firing ``corrupt`` spec
    for the caller to apply with :func:`corrupt_array`, else None.
    """
    plan = _ARMED
    if plan is None:
        return None
    return plan.check(site, context)


def corrupt_array(
    spec: Optional[FaultSpec], array: np.ndarray
) -> np.ndarray:
    """Apply a fired ``corrupt`` spec to a payload array.

    Returns ``array`` untouched when ``spec`` is None, else a NaN-filled
    copy — the canonical "the bytes came back wrong" corruption, which
    any downstream validation ought to catch.
    """
    if spec is None:
        return array
    return np.full_like(np.asarray(array, dtype=np.float64), np.nan)
