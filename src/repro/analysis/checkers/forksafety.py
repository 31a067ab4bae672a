"""Fork/thread-safety checker.

Two rules for the two concurrency substrates the pipeline mixes:

``sqlite-thread-share``
    A ``sqlite3.connect(...)`` result stored on ``self`` is a handle
    that outlives the creating call — and sqlite connections refuse (or
    worse, corrupt) cross-thread use.  A class holding one must either
    open it per-thread (``threading.local()``) or opt in explicitly with
    ``check_same_thread=False`` / the repo's ``cross_thread=`` seam and
    its own serialization.

``lock-across-fork``
    ``os.fork()`` while a lock is held copies the *held* lock into the child, where no
    thread will ever release it.  Any fork reached lexically inside a
    ``with <lock>:`` block is flagged unless the site is annotated —
    the one legitimate shape (a dedicated fork guard with
    ``os.register_at_fork`` hygiene) documents itself.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.engine import Checker, ModuleContext

RULE_SQLITE = "sqlite-thread-share"
RULE_FORK = "lock-across-fork"

_LOCKISH_MARKERS = ("lock", "guard", "mutex")


def _is_sqlite_connect(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "connect"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sqlite3"
    )


def _connect_opts_out(call: ast.Call) -> bool:
    """Does the connect call opt in to cross-thread use explicitly?"""
    for kw in call.keywords:
        if kw.arg == "check_same_thread":
            return True
        if kw.arg == "cross_thread":
            return True
    return False


def _class_uses_threading_local(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "local"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "threading"
        ):
            return True
    return False


def _lockish_name(expr: ast.AST) -> bool:
    """Does the with-item expression look like a lock acquisition?"""
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Call):
        return _lockish_name(expr.func)
    if name is None:
        return False
    lowered = name.lower()
    return any(marker in lowered for marker in _LOCKISH_MARKERS)


def _is_fork_call(node: ast.Call) -> bool:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "fork"
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
    ):
        return True
    return False


class ForkSafetyChecker(Checker):
    rule = RULE_SQLITE  # primary rule id; RULE_FORK reported explicitly
    interests = (ast.ClassDef, ast.Call)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._classes_seen: List[ast.ClassDef] = []

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if isinstance(node, ast.ClassDef):
            self._check_class(node, ctx)
        elif isinstance(node, ast.Call) and _is_fork_call(node):
            self._check_fork(node, ctx)

    # -- sqlite connections stored on self ---------------------------------
    def _check_class(self, cls: ast.ClassDef, ctx: ModuleContext) -> None:
        uses_local = _class_uses_threading_local(cls)
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            if not _is_sqlite_connect(node.value):
                continue
            stored_on_self = any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in node.targets
            )
            if not stored_on_self:
                continue
            if uses_local or _connect_opts_out(node.value):
                continue
            ctx.report(
                RULE_SQLITE,
                node,
                f"sqlite3.connect result stored on self in class "
                f"'{cls.name}' without a cross-thread strategy",
                hint="open the connection per-thread via threading.local(),"
                " or pass check_same_thread=False / the cross_thread seam "
                "and serialize access yourself",
            )

    # -- fork while a lock is held -----------------------------------------
    def _check_fork(self, node: ast.Call, ctx: ModuleContext) -> None:
        held = None
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if _lockish_name(item.context_expr):
                        held = ast.unparse(item.context_expr)
                        break
            if held:
                break
        if held is None:
            return
        ctx.report(
            RULE_FORK,
            node,
            f"os.fork() reached while '{held}' is held",
            hint="release the lock before forking, or register "
            "os.register_at_fork hygiene and annotate the site with "
            "# repro-lint: allow[lock-across-fork] and the reason",
        )
