"""The AST lint engine: suppressions, visitor dispatch, entry points.

The engine parses each source file once, builds a dispatch table from
node type to interested rules, and walks the tree a single time — adding
a rule costs one dict lookup per matching node, not another tree walk.

Suppressions are per line: a trailing ``# repro: allow[RD004]`` (or
``allow[RD004,RD013]``) comment on the *first* line of the flagged
statement silences exactly those rule IDs there and nowhere else.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence, Type

from repro.analysis.findings import Finding
from repro.analysis.rules import RuleInfo, register

__all__ = [
    "CodeRule",
    "LintContext",
    "dotted_name",
    "parse_suppressions",
    "lint_source",
    "lint_package",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]*)\]")

#: Engine-level rule: files the engine cannot parse are themselves a
#: finding, so a syntax error can never silently shrink lint coverage.
PARSE_ERROR = register(
    RuleInfo(
        id="RD000",
        name="unparseable-source",
        severity="error",
        pack="code",
        summary="source file could not be parsed as Python",
    )
)


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line number to the rule IDs allowed on that line."""
    allowed: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        ids: set[str] = set()
        for match in _ALLOW_RE.finditer(line):
            ids.update(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )
        if ids:
            allowed[lineno] = frozenset(ids)
    return allowed


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class LintContext:
    """Per-file lint state: path, suppressions, collected findings."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        self._allowed = parse_suppressions(source)

    def in_dir(self, *prefixes: str) -> bool:
        """Whether this file lives under any of the given prefixes."""
        return any(self.relpath.startswith(prefix) for prefix in prefixes)

    def report(self, rule: RuleInfo, node: ast.AST, message: str) -> None:
        """Record a finding unless suppressed on the node's first line."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        finding = Finding(
            rule_id=rule.id,
            severity=rule.severity,
            path=self.relpath,
            line=line,
            column=column,
            message=message,
        )
        if rule.id in self._allowed.get(line, frozenset()):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


class CodeRule:
    """Base class for Pack-A rules.

    Subclasses set ``info`` (a registered :class:`RuleInfo`) and
    ``node_types`` (the AST node classes they want dispatched), override
    :meth:`visit`, and may override :meth:`start` to precompute per-file
    state (rules are instantiated fresh for every file).
    """

    info: RuleInfo
    node_types: tuple[Type[ast.AST], ...] = ()

    def start(self, tree: ast.Module, context: LintContext) -> None:
        """Called once per file before the walk (optional)."""

    def visit(self, node: ast.AST, context: LintContext) -> None:
        """Called for every node whose type is in ``node_types``."""

    def report(
        self, context: LintContext, node: ast.AST, message: str
    ) -> None:
        context.report(self.info, node, message)


def lint_source(
    source: str,
    relpath: str,
    rules: Sequence[Type[CodeRule]],
) -> list[Finding]:
    """Lint one file's source text under its repo-relative posix path."""
    context = LintContext(relpath, source)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        context.findings.append(
            Finding(
                rule_id=PARSE_ERROR.id,
                severity=PARSE_ERROR.severity,
                path=relpath,
                line=error.lineno or 1,
                column=error.offset or 0,
                message=f"{PARSE_ERROR.name}: {error.msg}",
            )
        )
        return context.findings

    instances = [rule() for rule in rules]
    dispatch: dict[Type[ast.AST], list[CodeRule]] = {}
    for instance in instances:
        instance.start(tree, context)
        for node_type in instance.node_types:
            dispatch.setdefault(node_type, []).append(instance)

    for node in ast.walk(tree):
        for instance in dispatch.get(type(node), ()):
            instance.visit(node, context)
    return context.findings


def lint_package(
    package_root: Path,
    rules: Optional[Sequence[Type[CodeRule]]] = None,
) -> list[Finding]:
    """Lint every ``*.py`` under ``package_root`` (e.g. ``src/repro``).

    Paths in findings are reported relative to the package's parent, so
    a file shows up as ``repro/core/kcca.py`` — the same form the rule
    allowlists use.
    """
    if rules is None:
        from repro.analysis.codebase import CODE_RULES

        rules = CODE_RULES
    findings: list[Finding] = []
    for path in sorted(package_root.rglob("*.py")):
        relpath = path.relative_to(package_root.parent).as_posix()
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), relpath, rules)
        )
    return findings


def findings_to_report(
    findings: Iterable[Finding],
) -> dict[str, object]:
    """Assemble findings into the versioned JSON report body."""
    from repro.analysis.findings import LINT_SCHEMA_VERSION

    items = sorted(
        findings, key=lambda f: (f.path, f.line, f.column, f.rule_id)
    )
    return {
        "schema_version": LINT_SCHEMA_VERSION,
        "count": len(items),
        "findings": [finding.as_dict() for finding in items],
    }
