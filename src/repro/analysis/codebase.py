"""Pack A: codebase-contract rules, run over ``src/repro`` itself.

Each rule enforces one cross-cutting contract: no wall-clock reads in
deterministic modules, registered fault sites, a typing gate for the
strict module set, query templates only in specs, one network boundary
and one owner of process control.  docs/STATIC_ANALYSIS.md carries the
full catalogue with rationale; rule IDs are stable forever and a
retired ID is never reused.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import CodeRule, LintContext, dotted_name
from repro.analysis.rules import RuleInfo, register
from repro.resilience.faults import REGISTERED_SITES, site_registered

__all__ = ["CODE_RULES", "STRICT_TYPING_DIRS"]

#: Modules the typing gate (RD009) and the mypy strict set cover.
STRICT_TYPING_DIRS = ("repro/core/", "repro/pipeline/", "repro/analysis/")

#: Modules allowed to read the wall clock (RD004); ``serve/wire.py``
#: for the HTTP ``Date`` header.
WALL_CLOCK_ALLOWLIST = (
    "repro/obs/",
    "repro/engine/timing.py",
    "repro/resilience/breaker.py",
    "repro/serve/wire.py",
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)


class WallClockInDeterministicModule(CodeRule):
    """RD004: wall-clock reads poison deterministic modules."""

    info = register(
        RuleInfo(
            id="RD004",
            name="wall-clock-read",
            severity="error",
            pack="code",
            summary="time.time()/datetime.now() outside the timing allowlist",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if context.in_dir(*WALL_CLOCK_ALLOWLIST):
            return
        name = dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                context,
                node,
                f"wall-clock read {name}() in a deterministic module; "
                "only obs/, engine/timing.py, resilience/breaker.py and "
                "serve/wire.py may observe real time",
            )


class UnregisteredFaultSite(CodeRule):
    """RD006: fault-site names must come from the registered list: those
    of ``fault_site(...)``, ``FaultPlan.on(...)`` and every ``fault_site=``
    keyword (the rows of the stage table, ``repro.obs.seam.STAGES``)."""

    info = register(
        RuleInfo(
            id="RD006",
            name="unregistered-fault-site",
            severity="error",
            pack="code",
            summary="fault_site()/FaultPlan.on()/fault_site= name not registered",
        )
    )
    node_types = (ast.Call,)

    def __init__(self) -> None:
        self._checks_plan_calls = False

    def start(self, tree: ast.Module, context: LintContext) -> None:
        # Only treat ``.on(...)`` as a FaultPlan arming call in modules
        # that import the resilience package, to avoid flagging
        # unrelated fluent APIs that happen to have an ``on`` method.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.startswith("repro.resilience") for name in modules):
                self._checks_plan_calls = True
                return

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        is_site_call = (
            isinstance(func, ast.Name) and func.id == "fault_site"
        ) or (isinstance(func, ast.Attribute) and func.attr == "fault_site")
        is_arm_call = (
            self._checks_plan_calls
            and isinstance(func, ast.Attribute)
            and func.attr == "on"
        )
        if (is_site_call or is_arm_call) and node.args:
            self._check_site(node, node.args[0], context)
        for keyword in node.keywords:
            if keyword.arg == "fault_site":
                self._check_site(node, keyword.value, context)

    def _check_site(
        self, node: ast.Call, site: ast.expr, context: LintContext
    ) -> None:
        if isinstance(site, ast.Constant) and isinstance(site.value, str):
            if not site_registered(site.value):
                self.report(
                    context,
                    node,
                    f"fault site {site.value!r} is not in "
                    "repro.resilience.faults.REGISTERED_SITES",
                )
        elif isinstance(site, ast.JoinedStr):
            prefix = ""
            for part in site.values:
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    prefix += part.value
                else:
                    break
            if prefix and not self._prefix_may_match(prefix):
                self.report(
                    context,
                    node,
                    f"fault-site f-string prefix {prefix!r} cannot expand "
                    "to a registered site name",
                )

    @staticmethod
    def _prefix_may_match(prefix: str) -> bool:
        return any(site.startswith(prefix) for site in REGISTERED_SITES)


class UntypedDefInStrictModule(CodeRule):
    """RD009: the strict module set must be fully annotated.

    This is the local, always-available half of the typing gate: mypy
    (when installed) checks the semantics, this rule guarantees the
    annotations exist at all — even in environments without mypy.
    """

    info = register(
        RuleInfo(
            id="RD009",
            name="untyped-def-in-strict-module",
            severity="error",
            pack="code",
            summary="missing annotations in core/, pipeline/ or analysis/",
        )
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if not context.in_dir(*STRICT_TYPING_DIRS):
            return
        missing: list[str] = []
        arguments = node.args
        params = (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        )
        for param in params:
            if param.arg in ("self", "cls"):
                continue
            if param.annotation is None:
                missing.append(param.arg)
        for star in (arguments.vararg, arguments.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"*{star.arg}")
        if missing:
            self.report(
                context,
                node,
                f"function {node.name!r} has unannotated parameters: "
                + ", ".join(missing),
            )
        if node.returns is None and node.name != "__init__":
            self.report(
                context,
                node,
                f"function {node.name!r} has no return annotation",
            )


_TEMPLATE_PLACEHOLDER_RE = re.compile(r"\{[a-z_][a-z0-9_]*\}")


class QueryTemplateLiteral(CodeRule):
    """RD010: parameterised SQL templates belong in workload specs.

    The spec refactor moved every query template into ``specs/``
    (validated, versioned, declarative).  A string literal that looks
    like a parameterised SQL template — SELECT/FROM text with
    ``{placeholder}`` fields — hard-coded in package code is the old
    pattern creeping back: it bypasses spec validation and splits the
    workload definition across two layers again.
    """

    info = register(
        RuleInfo(
            id="RD010",
            name="query-template-literal",
            severity="error",
            pack="code",
            summary="parameterised SQL template literal outside specs/",
        )
    )
    node_types = (ast.Constant,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Constant)
        value = node.value
        if not isinstance(value, str):
            return
        lowered = value.lower()
        if "select" not in lowered or " from " not in lowered:
            return
        if not _TEMPLATE_PLACEHOLDER_RE.search(value):
            return
        self.report(
            context,
            node,
            "parameterised SQL template literal; declare query templates "
            "in a workload spec under specs/ instead of hard-coding them",
        )


#: Modules the network boundary (RD012) confines socket imports to.
NETWORK_ALLOWLIST = ("repro/serve/",)

#: Module roots whose import opens a socket-level network surface.
_NETWORK_MODULES = ("socket", "socketserver")
#: The submodules of ``http`` that are the stdlib's HTTP server and
#: client, refused everywhere: ``repro.serve.wire`` is the package's one
#: HTTP implementation.
_STDLIB_HTTP_STACKS = frozenset({"server", "client"})


def _stdlib_http(name: str) -> bool:
    root, _, rest = name.partition(".")
    return root == "http" and rest.partition(".")[0] in _STDLIB_HTTP_STACKS


class NetworkOutsideServe(CodeRule):
    """RD012: sockets only in ``repro/serve/``, and no stdlib HTTP stack.

    The serving daemon is the repo's single network boundary: it owns
    binding, timeouts, structured error responses and shutdown
    draining.  A ``socket`` import anywhere else means a second,
    untested network surface — one that would bypass the daemon's
    micro-batching, admission control and drain guarantees.  Keep
    network I/O behind ``repro.serve`` (the library layers stay pure
    functions of their inputs, which is also what keeps them
    deterministic and corpus builds reproducible).  Inside it, HTTP is
    framed by ``repro.serve.wire`` alone: the stdlib's HTTP server or
    client module would be a second HTTP implementation, with its own
    limits, error pages and imports (``email``, and ``ssl`` through the
    client), so they are refused in ``repro/serve/`` too.
    """

    info = register(
        RuleInfo(
            id="RD012",
            name="network-outside-serve",
            severity="error",
            pack="code",
            summary="socket import outside repro/serve/, or a stdlib HTTP stack",
        )
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            module = node.module or ""
            # ``from http import server`` names the submodule too.
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        for name in names:
            if _stdlib_http(name):
                self.report(
                    context,
                    node,
                    f"stdlib HTTP module {name!r} imported; HTTP is framed by "
                    "repro.serve.wire alone (docs/SERVING.md)",
                )
                return
            if (
                name in _NETWORK_MODULES
                or any(name.startswith(module + ".") for module in _NETWORK_MODULES)
            ) and not context.in_dir(*NETWORK_ALLOWLIST):
                self.report(
                    context,
                    node,
                    f"network module {name!r} imported outside repro/serve/; "
                    "all socket and HTTP I/O belongs to the serving daemon "
                    "(docs/SERVING.md)",
                )
                return


#: Files/dirs allowed to manage processes and signal dispositions
#: (RD013): the serving supervisor and the resilience package.
PROCESS_CONTROL_ALLOWLIST = (
    "repro/serve/supervisor.py",
    "repro/resilience/",
)

#: Calls that fork, kill or rebind signal handlers.
_PROCESS_CONTROL_CALLS = frozenset(
    {"os.kill", "os.fork", "os.forkpty", "signal.signal"}
)


class ProcessControlOutsideSupervisor(CodeRule):
    """RD013: process control is confined to the serving supervisor.

    ``os.fork``/``os.kill``/``signal.signal`` are global, process-wide
    levers: a stray fork duplicates every thread-owned lock in an
    undefined state, a stray signal handler silently replaces the
    supervisor's SIGTERM drain or the daemon's SIGHUP reload, and a
    stray kill bypasses the crash journal.  All of it belongs to
    ``repro/serve/supervisor.py`` (which exposes
    ``install_signal_handler`` for the one sanctioned use elsewhere)
    and the resilience package's chaos machinery.
    """

    info = register(
        RuleInfo(
            id="RD013",
            name="process-control-outside-supervisor",
            severity="error",
            pack="code",
            summary="os.kill/os.fork/signal.signal outside the supervisor "
            "and resilience packages",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if context.in_dir(*PROCESS_CONTROL_ALLOWLIST):
            return
        name = dotted_name(node.func)
        if name in _PROCESS_CONTROL_CALLS:
            self.report(
                context,
                node,
                f"process-control call {name}() outside "
                "repro/serve/supervisor.py and repro/resilience/; route "
                "signal handling through "
                "repro.serve.supervisor.install_signal_handler "
                "(docs/SERVING.md)",
            )


#: Pack A, in rule-ID order (classes; instantiated per linted file).
CODE_RULES = (
    WallClockInDeterministicModule,
    UnregisteredFaultSite,
    UntypedDefInStrictModule,
    QueryTemplateLiteral,
    NetworkOutsideServe,
    ProcessControlOutsideSupervisor,
)
