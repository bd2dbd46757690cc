"""The rule registry: stable IDs and metadata for every lint rule.

Rule IDs are part of the project's public surface — they appear in
suppression comments (``# repro: allow[RD004]``), JSON reports, CI logs
and docs/STATIC_ANALYSIS.md — so they are registered centrally, never
renumbered, never reused once retired, and duplicates are rejected at
import time.

Three ID namespaces:

* ``RDnnn`` — Pack A, codebase contracts (wall clock, fault sites,
  typing, network and process boundaries ...), run over ``src/repro``
  itself;
* ``PLnnn`` — Pack B, plan lint, run over compiled plan trees before
  execution;
* ``CCnnn`` — Pack C, concurrency: ``CC0xx`` are static AST rules run
  over ``src/repro``, ``CC1xx`` are runtime sanitizer findings emitted
  by :mod:`repro.analysis.sanitizer` when ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass

from repro.analysis.findings import SEVERITIES

__all__ = ["RuleInfo", "register", "get", "all_rules", "is_known"]

_ID_PATTERN = re.compile(r"^(RD|PL|CC)\d{3}$")


@dataclass(frozen=True)
class RuleInfo:
    """Metadata for one registered rule.

    Attributes:
        id: stable identifier (``RDnnn`` / ``PLnnn`` / ``CCnnn``),
            never reused.
        name: short kebab-case label (shows up in reports and docs).
        severity: ``error`` (fails ``scripts/check.py``) or ``warning``.
        pack: ``code`` (Pack A, AST lint), ``plan`` (Pack B) or
            ``concurrency`` (Pack C, static + runtime sanitizer).
        summary: one-line description of the contract being enforced.
    """

    id: str
    name: str
    severity: str
    pack: str
    summary: str


_REGISTRY: dict[str, RuleInfo] = {}


def register(info: RuleInfo) -> RuleInfo:
    """Register a rule under its stable ID (import-time validation)."""
    if not _ID_PATTERN.match(info.id):
        raise ValueError(f"bad rule id {info.id!r}: expected RDnnn, PLnnn or CCnnn")
    if info.severity not in SEVERITIES:
        raise ValueError(
            f"bad severity {info.severity!r} for {info.id}; one of {SEVERITIES}"
        )
    if info.pack not in ("code", "plan", "concurrency"):
        raise ValueError(f"bad pack {info.pack!r} for {info.id}")
    if info.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {info.id}")
    _REGISTRY[info.id] = info
    return info


#: The modules registering rules.  A pack registers its rules when it is
#: imported, and a process imports only the packs it runs.
_PACK_MODULES = (
    "repro.analysis.codebase",
    "repro.analysis.concurrency",
    "repro.analysis.planlint",
    "repro.analysis.sanitizer",
)


def _registry() -> dict[str, RuleInfo]:
    """Every pack's rules."""
    for module in _PACK_MODULES:
        importlib.import_module(module)
    return _REGISTRY


def get(rule_id: str) -> RuleInfo:
    """The registered rule for ``rule_id`` (KeyError when unknown)."""
    return _registry()[rule_id]


def is_known(rule_id: str) -> bool:
    """Whether ``rule_id`` names a registered rule."""
    return rule_id in _registry()


def all_rules(pack: str | None = None) -> tuple[RuleInfo, ...]:
    """Every registered rule, sorted by ID; optionally one pack only."""
    rules = sorted(_registry().values(), key=lambda info: info.id)
    if pack is not None:
        rules = [info for info in rules if info.pack == pack]
    return tuple(rules)
