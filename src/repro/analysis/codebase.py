"""Pack A: codebase-contract rules, run over ``src/repro`` itself.

Each rule enforces one cross-cutting contract established in earlier
PRs — deterministic seeding, atomic artifact writes, registered fault
sites, picklable pool callables, no silent exception swallowing, and a
typing gate for the strict module set.  docs/STATIC_ANALYSIS.md carries
the full catalogue with rationale; rule IDs are stable forever.
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

_DEFAULT_RNG_CALLS = frozenset(
    {"np.random.default_rng", "numpy.random.default_rng", "default_rng"}
)
_GLOBAL_SEED_CALLS = frozenset(
    {"np.random.seed", "numpy.random.seed", "random.seed"}
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
_RAW_SAVEZ_CALLS = frozenset(
    {"np.savez", "np.savez_compressed", "numpy.savez", "numpy.savez_compressed"}
)


class UnseededDefaultRng(CodeRule):
    """RD001: ``default_rng()`` with no seed is nondeterministic."""

    info = register(
        RuleInfo(
            id="RD001",
            name="unseeded-default-rng",
            severity="error",
            pack="code",
            summary="np.random.default_rng() must be given an explicit seed",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _DEFAULT_RNG_CALLS and not node.args and not node.keywords:
            self.report(
                context,
                node,
                "unseeded np.random.default_rng(); pass an explicit seed "
                "or derive one via repro.rng",
            )


class StdlibRandomImport(CodeRule):
    """RD002: the stdlib ``random`` module is off-limits outside rng."""

    info = register(
        RuleInfo(
            id="RD002",
            name="stdlib-random-import",
            severity="error",
            pack="code",
            summary="stdlib random is forbidden outside repro/rng.py",
        )
    )
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        if context.relpath == "repro/rng.py":
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            assert isinstance(node, ast.ImportFrom)
            names = [node.module or ""]
        for name in names:
            if name == "random" or name.startswith("random."):
                self.report(
                    context,
                    node,
                    "stdlib random imported; all randomness must flow "
                    "through seeded repro.rng generators",
                )
                return


class GlobalNumpySeed(CodeRule):
    """RD003: global RNG seeding leaks state across call sites."""

    info = register(
        RuleInfo(
            id="RD003",
            name="global-rng-seed",
            severity="error",
            pack="code",
            summary="np.random.seed mutates hidden global state",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if dotted_name(node.func) in _GLOBAL_SEED_CALLS:
            self.report(
                context,
                node,
                "global RNG seeding; construct a local "
                "np.random.default_rng(seed) instead",
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


class RawSavez(CodeRule):
    """RD005: artifact writes must go through atomic_savez."""

    info = register(
        RuleInfo(
            id="RD005",
            name="non-atomic-savez",
            severity="error",
            pack="code",
            summary="np.savez* outside ioutils; use repro.ioutils.atomic_savez",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if context.relpath == "repro/ioutils.py":
            return
        name = dotted_name(node.func)
        if name in _RAW_SAVEZ_CALLS:
            self.report(
                context,
                node,
                f"direct {name}() can leave torn artifacts; use "
                "repro.ioutils.atomic_savez (tmp + fsync + rename)",
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


class NonPicklablePoolCallable(CodeRule):
    """RD007: pool-submitted callables must be module-level."""

    info = register(
        RuleInfo(
            id="RD007",
            name="non-picklable-pool-callable",
            severity="error",
            pack="code",
            summary="lambda/nested def passed to ProcessPoolExecutor submit/map",
        )
    )
    node_types = (ast.Call,)

    def __init__(self) -> None:
        self._uses_process_pool = False
        self._nested_defs: set[str] = set()

    def start(self, tree: ast.Module, context: LintContext) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    alias.name.startswith("concurrent.futures")
                    for alias in node.names
                ):
                    self._uses_process_pool = True
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").startswith("concurrent.futures"):
                    self._uses_process_pool = True
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is not node and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._nested_defs.add(inner.name)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if not self._uses_process_pool:
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("submit", "map")
        ):
            return
        if not node.args:
            return
        target = node.args[0]
        if isinstance(target, ast.Lambda):
            self.report(
                context,
                node,
                "lambda passed to a process pool; lambdas are not "
                "picklable — use a module-level function",
            )
        elif isinstance(target, ast.Name) and target.id in self._nested_defs:
            self.report(
                context,
                node,
                f"nested function {target.id!r} passed to a process pool; "
                "nested defs are not picklable — move it to module level",
            )


class SwallowedException(CodeRule):
    """RD008: silent exception swallowing in core/ and pipeline/."""

    info = register(
        RuleInfo(
            id="RD008",
            name="swallowed-exception",
            severity="error",
            pack="code",
            summary="bare except / except Exception: pass in core or pipeline",
        )
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if not context.in_dir("repro/core/", "repro/pipeline/"):
            return
        if node.type is None:
            self.report(
                context,
                node,
                "bare except: hides every failure, including injected "
                "faults; catch a specific exception",
            )
            return
        if self._catches_everything(node.type) and self._body_is_noop(
            node.body
        ):
            self.report(
                context,
                node,
                "except Exception with a no-op body swallows failures "
                "silently; handle or re-raise",
            )

    @staticmethod
    def _catches_everything(expr: ast.expr) -> bool:
        names = []
        if isinstance(expr, ast.Tuple):
            names = [dotted_name(element) for element in expr.elts]
        else:
            names = [dotted_name(expr)]
        return any(name in ("Exception", "BaseException") for name in names)

    @staticmethod
    def _body_is_noop(body: list[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or bare `...`
            return False
        return True


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


class RawSharedMemory(CodeRule):
    """RD011: shared-memory segments are created only by ioutils.

    ``multiprocessing.shared_memory.SharedMemory`` has OS-level lifetime:
    a segment survives the creating process unless someone unlinks it,
    and Python's resource tracker double-registers attachments made from
    worker processes.  ``repro.ioutils`` owns both problems — its
    ``ArrayPlane`` publishes/attaches with tracker hygiene and unlink
    discipline — so any other module constructing ``SharedMemory``
    directly reintroduces the leak classes the data plane was built to
    prevent (see docs/PERFORMANCE.md).
    """

    info = register(
        RuleInfo(
            id="RD011",
            name="raw-shared-memory",
            severity="error",
            pack="code",
            summary="SharedMemory() outside ioutils; use the ArrayPlane API",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if context.relpath == "repro/ioutils.py":
            return
        name = dotted_name(node.func)
        if name is None:
            return
        if name == "SharedMemory" or name.endswith(".SharedMemory"):
            self.report(
                context,
                node,
                f"direct {name}() bypasses segment lifetime management; "
                "publish/attach through repro.ioutils (publish_arrays / "
                "attach_arrays) instead",
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
    UnseededDefaultRng,
    StdlibRandomImport,
    GlobalNumpySeed,
    WallClockInDeterministicModule,
    RawSavez,
    UnregisteredFaultSite,
    NonPicklablePoolCallable,
    SwallowedException,
    UntypedDefInStrictModule,
    QueryTemplateLiteral,
    RawSharedMemory,
    NetworkOutsideServe,
    ProcessControlOutsideSupervisor,
)
