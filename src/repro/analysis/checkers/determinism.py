"""Determinism checker: no unordered iteration on merge paths.

The parallel pipeline's contract is byte-identical output on every
backend, which holds because fan-outs merge in *fixed* order.  Iterating
a bare ``set`` (literal, constructor, comprehension, or set algebra) —
whose order depends on string-hash randomization — or a bare
``dict.keys()`` view inside the linking/exec/core merge layers is how
that contract silently breaks: the iteration feeds an output whose order
changes run to run unless it passes through ``sorted``.

The rule is scoped to the packages whose iteration order reaches merged
or persisted, pinned output (``linking``, ``exec``, ``core``,
``duplicates``, and ``discovery``, ``metadata`` and ``access``, whose
structures, link web and postings are written to snapshots); wrapping
the expression in ``sorted(...)`` — or any explicit ordering — satisfies
it.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Checker, ModuleContext

RULE = "unordered-iteration"

#: Packages whose iteration order can reach merged, pinned output.
SCOPED_PACKAGES = frozenset(
    {"linking", "exec", "core", "duplicates", "discovery", "metadata", "access"}
)

_SET_CALLS = frozenset({"set", "frozenset"})


def _is_unordered(expr: ast.AST) -> bool:
    """Is ``expr`` a syntactic form whose iteration order is unordered?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SET_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra produces a set whenever either operand is set-like.
        return _is_unordered(expr.left) or _is_unordered(expr.right)
    return False


def _describe(expr: ast.AST) -> str:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set expression"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        return "a dict.keys() view"
    if isinstance(expr, ast.BinOp):
        return "a set-algebra result"
    return "a set constructor"


class DeterminismChecker(Checker):
    rule = RULE
    interests = (ast.For, ast.comprehension)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if ctx.package not in SCOPED_PACKAGES:
            return
        expr = node.iter
        if not _is_unordered(expr):
            return
        report_node = node if isinstance(node, ast.For) else expr
        ctx.report(
            RULE,
            report_node,
            f"iteration over {_describe(expr)} on a merge path",
            hint="wrap the iterable in sorted(...) (or iterate an "
            "ordered structure): unordered iteration here can leak "
            "hash-randomized order into pinned byte-identical output",
        )
