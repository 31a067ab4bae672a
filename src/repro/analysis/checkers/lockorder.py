"""Lock-order checker: the static acquisition graph must be acyclic.

Every lexically nested ``with <lock>:`` pair contributes a directed edge
*held -> acquired* to a project-wide graph.  Two threads taking the same
pair of locks in opposite orders is the textbook deadlock, and it is
visible statically: a cycle in the acquisition graph.  This checker
records edges per module (stopping at function boundaries, so a callback
defined inside a critical section does not count as held-across-call)
and reports each cycle once, at the location of the edge that closes it.

Lock identity is the attribute path qualified by module and enclosing
class — ``repro.obs.trace.Tracer._lock`` — so ``self._lock`` in
two different classes stays two different locks.  Only names that look
like locks (``lock``/``guard``/``mutex`` substrings) participate;
arbitrary context managers (files, connections) are ignored.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.analysis.engine import AnalysisEngine, Checker, ModuleContext
from repro.analysis.model import Finding

RULE = "lock-order-cycle"

_LOCKISH_MARKERS = ("lock", "guard", "mutex")


def _lock_expr(item: ast.withitem) -> Optional[ast.AST]:
    """The lock expression of a with-item, or None if not lock-like."""
    expr = item.context_expr
    # ``with lock.acquire_timeout(...)`` style: look at the call target.
    target = expr.func if isinstance(expr, ast.Call) else expr
    name = None
    if isinstance(target, ast.Attribute):
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    if name is None:
        return None
    lowered = name.lower()
    if any(marker in lowered for marker in _LOCKISH_MARKERS):
        return target
    return None


def _enclosing_class(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor.name
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # keep climbing: methods live inside classes
            continue
    return None


def _lock_identity(expr: ast.AST, ctx: ModuleContext) -> str:
    """Stable cross-file identity for a lock expression."""
    text = ast.unparse(expr)
    if text.startswith("self."):
        cls = _enclosing_class(expr, ctx)
        scope = cls if cls is not None else "<module>"
        return f"{ctx.module}.{scope}.{text[len('self.'):]}"
    return f"{ctx.module}.{text}"


class LockOrderChecker(Checker):
    rule = RULE
    interests = (ast.With, ast.AsyncWith)

    def __init__(self) -> None:
        #: (held, acquired) -> (display_path, line, source line text)
        self.edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        acquired = [
            _lock_identity(expr, ctx)
            for item in node.items
            for expr in [_lock_expr(item)]
            if expr is not None
        ]
        if not acquired:
            return
        held = self._held_locks(node, ctx)
        # Multi-item ``with a, b:`` acquires left-to-right: a is held
        # when b is taken.
        ordered = list(held)
        for lock in acquired:
            for prior in ordered:
                self._record_edge(prior, lock, node, ctx)
            ordered.append(lock)

    def _held_locks(self, node: ast.AST, ctx: ModuleContext) -> List[str]:
        """Locks held lexically at ``node``, outermost first, within the
        same function scope."""
        held: List[str] = []
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break  # an enclosing def is a separate dynamic scope
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = _lock_expr(item)
                    if expr is not None:
                        held.append(_lock_identity(expr, ctx))
        held.reverse()
        return held

    def _record_edge(
        self, held: str, acquired: str, node: ast.AST, ctx: ModuleContext
    ) -> None:
        if held == acquired:
            return  # re-entrant RLock acquisition, not an ordering edge
        line = getattr(node, "lineno", 1)
        if ctx.is_suppressed(line, RULE):
            return
        key = (held, acquired)
        if key not in self.edges:
            text = ""
            if 1 <= line <= len(ctx.source_lines):
                text = ctx.source_lines[line - 1]
            self.edges[key] = (ctx.display_path, line, text)

    def end_project(self, engine: AnalysisEngine) -> List[Finding]:
        adjacency: Dict[str, List[str]] = {}
        for held, acquired in self.edges:
            adjacency.setdefault(held, []).append(acquired)
        for targets in adjacency.values():
            targets.sort()

        findings: List[Finding] = []
        seen_cycles = set()
        for start in sorted(adjacency):
            cycle = self._find_cycle(start, adjacency)
            if cycle is None:
                continue
            canonical = self._canonical(cycle)
            if canonical in seen_cycles:
                continue
            seen_cycles.add(canonical)
            findings.append(self._cycle_finding(cycle))
        return findings

    @staticmethod
    def _canonical(cycle: List[str]) -> Tuple[str, ...]:
        """Rotate a cycle so it starts at its smallest node."""
        pivot = cycle.index(min(cycle))
        return tuple(cycle[pivot:] + cycle[:pivot])

    @staticmethod
    def _find_cycle(
        start: str, adjacency: Dict[str, List[str]]
    ) -> Optional[List[str]]:
        """DFS from ``start``; the first cycle reached, or None."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        visited = set()
        while stack:
            node, path = stack.pop()
            for target in adjacency.get(node, ()):
                if target in path:
                    return path[path.index(target):]
                if target in visited:
                    continue
                visited.add(target)
                stack.append((target, path + [target]))
        return None

    def _cycle_finding(self, cycle: List[str]) -> Finding:
        ordered = list(self._canonical(cycle))
        loop = ordered + [ordered[0]]
        edge_locs = []
        for held, acquired in zip(loop, loop[1:]):
            path, line, _text = self.edges[(held, acquired)]
            edge_locs.append(f"{held} -> {acquired} at {path}:{line}")
        first_path, first_line, first_text = self.edges[(loop[0], loop[1])]
        return Finding(
            rule=RULE,
            path=first_path,
            line=first_line,
            message=(
                "lock acquisition cycle: " + " -> ".join(loop)
                + "; edges: " + "; ".join(edge_locs)
            ),
            hint="pick one global order for these locks and acquire them "
            "in that order everywhere, or collapse them into one lock",
            context=f"cycle:{'|'.join(ordered)}",
        )
