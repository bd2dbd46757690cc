"""Pack C: static concurrency rules (CC001, CC003, CC007, CC008) for
the threaded serving stack.

The runtime sanitizer (:mod:`repro.analysis.sanitizer`, CC1xx) catches
what actually happened in a run; these rules catch what *could* happen,
by inspecting the source the same single-walk way Pack A does.  They are
scoped to the directories that hold threaded code
(:data:`CONCURRENCY_DIRS`) so the numeric kernels never pay for them.

docs/STATIC_ANALYSIS.md carries the full catalogue; docs/CONCURRENCY.md
has the lock inventory the rules enforce.  Suppression is per line:
``# repro: allow[CC003]``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.engine import CodeRule, LintContext, dotted_name
from repro.analysis.rules import RuleInfo, register

__all__ = ["CONCURRENCY_RULES", "CONCURRENCY_DIRS"]

#: Where threaded code lives; Pack C only fires under these prefixes.
CONCURRENCY_DIRS = (
    "repro/serve/",
    "repro/obs/",
    "repro/resilience/",
    "repro/cli.py",
)

#: The one module allowed to touch raw threading primitives: the lock
#: factory itself cannot be built out of tracked locks.
FACTORY_PATH = "repro/analysis/sanitizer.py"

_RAW_PRIMITIVES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
    }
)

_LOCKISH_HINTS = ("lock", "cond", "mutex")


def _is_lockish(name: Optional[str]) -> bool:
    """Whether a dotted receiver name looks like a lock/condition."""
    if not name:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(hint in tail for hint in _LOCKISH_HINTS)


def _with_lock_names(node: ast.With) -> list[str]:
    names = []
    for item in node.items:
        name = dotted_name(item.context_expr)
        if name:
            names.append(name)
    return names


class _ParentMapMixin:
    """start() helper: parent pointers for ancestor-sensitive rules."""

    _parents: dict[ast.AST, ast.AST]

    def _build_parents(self, tree: ast.Module) -> None:
        self._parents = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def _ancestors(self, node: ast.AST) -> list[ast.AST]:
        chain = []
        current = self._parents.get(node)
        while current is not None:
            chain.append(current)
            current = self._parents.get(current)
        return chain


class BareLockConstruction(CodeRule):
    """CC001: raw ``threading.Lock()`` outside the sanitizer factory.

    Locks created through :func:`repro.analysis.sanitizer.make_lock`
    get a name, ordering-graph membership and lockset tracking for free;
    a bare primitive is invisible to every runtime checker.
    """

    info = register(
        RuleInfo(
            id="CC001",
            name="bare-lock-outside-factory",
            severity="error",
            pack="concurrency",
            summary="threading.Lock/RLock/Condition constructed outside "
            "the sanitizer make_lock factory",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if context.relpath == FACTORY_PATH:
            return
        if not context.in_dir(*CONCURRENCY_DIRS):
            return
        name = dotted_name(node.func)
        if name in _RAW_PRIMITIVES:
            self.report(
                context,
                node,
                f"{self.info.name}: {name}() bypasses the sanitizer; "
                "use repro.analysis.sanitizer.make_lock/make_rlock/"
                "make_condition",
            )


class UnlockedGlobalMutation(_ParentMapMixin, CodeRule):
    """CC003: module-global container/counter mutated outside a lock.

    Rebinding a module global to a constant (a flag flip) is atomic in
    CPython and exempt; augmented assignment, subscript stores and
    mutating method calls on module globals from function bodies race
    unless inside a ``with <lock>`` block.
    """

    info = register(
        RuleInfo(
            id="CC003",
            name="unlocked-global-mutation",
            severity="error",
            pack="concurrency",
            summary="module-global state mutated in a function outside "
            "a with-lock block",
        )
    )
    node_types = (ast.AugAssign, ast.Assign, ast.Call)

    _MUTATORS = frozenset(
        {
            "append",
            "add",
            "update",
            "pop",
            "setdefault",
            "extend",
            "remove",
            "clear",
            "popleft",
            "appendleft",
        }
    )

    def start(self, tree: ast.Module, context: LintContext) -> None:
        self._build_parents(tree)
        self._globals: set[str] = set()
        # Classes deriving threading.local hold per-thread state; their
        # instances (and bare threading.local()) cannot race.
        local_classes = {
            stmt.name
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef)
            and any(
                dotted_name(base) in ("threading.local", "local")
                for base in stmt.bases
            )
        }
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
                value = stmt.value
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
                value = getattr(stmt, "value", None)
            if isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee in ("threading.local", "local") or (
                    callee in local_classes
                ):
                    continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self._globals.add(target.id)

    def _guarded_or_toplevel(self, node: ast.AST) -> bool:
        """True when under a with-lock block, or not in a function."""
        in_function = False
        for ancestor in self._ancestors(node):
            if isinstance(ancestor, ast.With) and any(
                _is_lockish(name) for name in _with_lock_names(ancestor)
            ):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_function = True
        return not in_function

    def _root_global(self, node: ast.expr) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in self._globals:
            return node.id
        return None

    def visit(self, node: ast.AST, context: LintContext) -> None:
        if not context.in_dir(*CONCURRENCY_DIRS):
            return
        if isinstance(node, ast.AugAssign):
            name = self._root_global(node.target)
            if name and not self._guarded_or_toplevel(node):
                self.report(
                    context,
                    node,
                    f"{self.info.name}: augmented assignment to module "
                    f"global '{name}' outside a with-lock block",
                )
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                name = self._root_global(target)
                if name and not self._guarded_or_toplevel(node):
                    self.report(
                        context,
                        node,
                        f"{self.info.name}: store into module global "
                        f"'{name}' outside a with-lock block",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._MUTATORS
            ):
                return
            name = self._root_global(func.value)
            if name and not self._guarded_or_toplevel(node):
                self.report(
                    context,
                    node,
                    f"{self.info.name}: mutating call "
                    f"'.{func.attr}()' on module global '{name}' outside "
                    "a with-lock block",
                )


class InconsistentlyLockedAttribute(_ParentMapMixin, CodeRule):
    """CC007: attribute locked in one method, unlocked in another.

    When some methods of a class guard ``self.x`` with a lock and others
    write it bare (outside ``__init__``), the lock protects nothing —
    the unlocked writer races every locked reader.  Either guard all
    post-init writes or register the state with ``guarded_by`` and let
    the runtime lockset checker arbitrate.

    Helper methods named ``*_locked`` are exempt: the suffix is the
    repository convention for "caller must already hold the lock", and
    the runtime lockset checker verifies the convention is honoured.
    """

    info = register(
        RuleInfo(
            id="CC007",
            name="inconsistently-locked-attribute",
            severity="error",
            pack="concurrency",
            summary="self attribute written both under a lock and bare "
            "outside __init__",
        )
    )
    node_types = (ast.ClassDef,)

    def start(self, tree: ast.Module, context: LintContext) -> None:
        self._build_parents(tree)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.ClassDef)
        if not context.in_dir(*CONCURRENCY_DIRS):
            return
        locked: dict[str, ast.AST] = {}
        unlocked: dict[str, ast.AST] = {}
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = method.name == "__init__"
            if method.name.endswith("_locked"):
                continue  # caller-holds-lock helper (see class docstring)
            for sub in ast.walk(method):
                attr = self._self_store(sub)
                if attr is None:
                    continue
                if self._under_lock(sub, method):
                    locked.setdefault(attr, sub)
                elif not in_init:
                    unlocked.setdefault(attr, sub)
        for attr in sorted(set(locked) & set(unlocked)):
            site = unlocked[attr]
            self.report(
                context,
                site,
                f"{self.info.name}: 'self.{attr}' is written under a "
                f"lock elsewhere in '{node.name}' but bare here; guard "
                "this write or register it with guarded_by()",
            )

    @staticmethod
    def _self_store(node: ast.AST) -> Optional[str]:
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AugAssign):
            target = node.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and not target.attr.startswith("_lock")
        ):
            return target.attr
        return None

    def _under_lock(self, node: ast.AST, method: ast.AST) -> bool:
        current = self._parents.get(node)
        while current is not None and current is not method:
            if isinstance(current, ast.With) and any(
                _is_lockish(name) for name in _with_lock_names(current)
            ):
                return True
            current = self._parents.get(current)
        return False


class AnonymousEventWait(CodeRule):
    """CC008: ``threading.Event().wait()`` on a throwaway event.

    An event nobody holds a reference to can never be set: the wait is
    an uninterruptible park (on some platforms not even SIGINT gets
    through a C-level wait).  Keep a reference and set it from a signal
    handler (see ``install_signal_handler``).
    """

    info = register(
        RuleInfo(
            id="CC008",
            name="anonymous-event-wait",
            severity="error",
            pack="concurrency",
            summary="wait() on an Event constructed inline (nothing can "
            "ever set it)",
        )
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, context: LintContext) -> None:
        assert isinstance(node, ast.Call)
        if not context.in_dir(*CONCURRENCY_DIRS):
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "wait"):
            return
        inner = func.value
        if not isinstance(inner, ast.Call):
            return
        name = dotted_name(inner.func)
        if name in ("threading.Event", "Event"):
            self.report(
                context,
                node,
                f"{self.info.name}: '{name}().wait()' parks forever on "
                "an unreachable event; keep a reference and set it from "
                "a signal handler",
            )


CONCURRENCY_RULES = (
    BareLockConstruction,
    UnlockedGlobalMutation,
    InconsistentlyLockedAttribute,
    AnonymousEventWait,
)
