"""The static-analysis engine: one AST walk, pluggable checkers.

The engine parses every Python file once, walks the tree once, and
dispatches each node to every registered checker that declared interest
in that node type — so adding a checker costs a dict lookup per node,
not another walk.  Checkers see a :class:`ModuleContext` (path, dotted
module name, source lines, parent links, suppression table) and report
through ``ctx.report(...)``; project-scoped checkers (layering tables,
the lock-order graph) additionally get an ``end_project`` pass after
every module has been visited.

Inline suppression syntax, recognized on the offending line or the line
directly above it::

    # repro-lint: allow[rule-id] justification for the exemption
    # repro-lint: allow[rule-a,rule-b] one comment may allow several

The ``broad-except`` rule additionally honors the repo's pre-existing
``# noqa: BLE001`` idiom, so intentional broad handlers annotated before
this engine existed keep their annotations.

Findings that survive suppression are matched against a
:class:`~repro.analysis.baseline.Baseline`; matches are reported
separately and do not fail a lint run, so legacy findings can be
grandfathered (with a written justification) without blocking CI.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.baseline import Baseline
from repro.analysis.model import Finding, Report, make_finding

#: ``# repro-lint: allow[rule-a,rule-b] free-text justification``
_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\[([a-zA-Z0-9_,\-\s]+)\]")
#: The repo's pre-existing broad-except annotation idiom.
_NOQA_BLE_RE = re.compile(r"#\s*noqa:\s*BLE001")

#: Rules silenced by ``# noqa: BLE001`` (the legacy spelling).
_NOQA_BLE_RULES = ("broad-except",)


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule ids allowed on that line.

    A comment suppresses its own line *and* the following line, so an
    annotation may sit above a long statement::

        # repro-lint: allow[raw-json-dumps] obs is a leaf; not content-hashed
        line = json.dumps(record)
    """
    table: Dict[int, Set[str]] = {}

    def allow(line: int, rules: Iterable[str]) -> None:
        for target in (line, line + 1):
            table.setdefault(target, set()).update(rules)

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match:
                rules = {
                    rule.strip()
                    for rule in match.group(1).split(",")
                    if rule.strip()
                }
                allow(token.start[0], rules)
            if _NOQA_BLE_RE.search(token.string):
                allow(token.start[0], _NOQA_BLE_RULES)
    except tokenize.TokenError:
        pass  # a half-written file still gets checked, just unsuppressed
    return table


def module_name_for(path: str) -> str:
    """Dotted module name derived from the file path.

    The name starts at the *last* path component named ``repro`` so the
    same file resolves identically whether scanned as ``src/repro/...``,
    an installed tree, or a test fixture under ``<tmp>/repro/...``.
    Files outside any ``repro`` directory fall back to their stem.
    """
    parts = os.path.normpath(path).split(os.sep)
    base = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            base = index
            break
    if base is None:
        return os.path.splitext(parts[-1])[0]
    dotted = parts[base:]
    dotted[-1] = os.path.splitext(dotted[-1])[0]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


class ModuleContext:
    """Everything a checker may want to know about the file being walked."""

    def __init__(self, path: str, display_path: str, source: str, tree: ast.AST):
        self.path = path
        #: Path as reported in findings (repo-relative when possible).
        self.display_path = display_path
        self.module = module_name_for(path)
        self.source_lines = source.splitlines()
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.findings: List[Finding] = []
        self.suppressed = 0

    @property
    def package(self) -> str:
        """Top-level package under ``repro`` (``repro.serve.cache`` ->
        ``serve``); top-level modules return their own name (``cli``)."""
        parts = self.module.split(".")
        if parts[0] != "repro" or len(parts) == 1:
            return parts[0]
        return parts[1]

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def is_suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, ())

    def report(
        self, rule: str, node: ast.AST, message: str, hint: str = ""
    ) -> None:
        line = getattr(node, "lineno", 1)
        if self.is_suppressed(line, rule):
            self.suppressed += 1
            return
        self.findings.append(
            make_finding(
                rule,
                self.display_path,
                line,
                message,
                hint=hint,
                source_lines=self.source_lines,
            )
        )


class Checker:
    """Base class for pluggable rules.

    ``rule`` is the id findings carry; ``interests`` the AST node types
    the engine dispatches to :meth:`visit` (empty means every node).
    Module-scoped state belongs in :meth:`begin_module`; project-scoped
    aggregation (cross-file graphs) in :meth:`end_project`, which
    reports through the engine's project-finding hook.
    """

    rule: str = ""
    interests: Tuple[type, ...] = ()

    def begin_module(self, ctx: ModuleContext) -> None:  # pragma: no cover
        pass

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:  # pragma: no cover
        pass

    def end_module(self, ctx: ModuleContext) -> None:  # pragma: no cover
        pass

    def end_project(self, engine: "AnalysisEngine") -> List[Finding]:
        return []


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in ("__pycache__", ".git")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    found.append(os.path.join(root, name))
    return sorted(found)


class AnalysisEngine:
    """Run a battery of checkers over a file set in one AST walk each."""

    def __init__(
        self,
        checkers: Sequence[Checker],
        baseline: Optional[Baseline] = None,
        root: Optional[str] = None,
    ):
        self.checkers = list(checkers)
        self.baseline = baseline or Baseline()
        #: Paths in findings are made relative to this (default: cwd).
        self.root = os.path.abspath(root or os.getcwd())
        self._dispatch: Dict[type, List[Checker]] = {}
        self._everything: List[Checker] = []
        for checker in self.checkers:
            if not checker.interests:
                self._everything.append(checker)
                continue
            for node_type in checker.interests:
                self._dispatch.setdefault(node_type, []).append(checker)

    def _display_path(self, path: str) -> str:
        absolute = os.path.abspath(path)
        if absolute.startswith(self.root + os.sep):
            relative = os.path.relpath(absolute, self.root)
        else:
            relative = path
        return relative.replace(os.sep, "/")

    def check_source(self, path: str, source: str) -> ModuleContext:
        """Walk one already-read module; returns its context (findings
        included, suppressions applied, baseline NOT yet applied)."""
        tree = ast.parse(source, filename=path)
        ctx = ModuleContext(path, self._display_path(path), source, tree)
        for checker in self.checkers:
            checker.begin_module(ctx)
        for node in ast.walk(tree):
            for checker in self._dispatch.get(type(node), ()):
                checker.visit(node, ctx)
            for checker in self._everything:
                checker.visit(node, ctx)
        for checker in self.checkers:
            checker.end_module(ctx)
        return ctx

    def run(self, paths: Sequence[str]) -> Report:
        """Check every file under ``paths`` and fold in project passes."""
        findings: List[Finding] = []
        suppressed = 0
        checked = 0
        for path in iter_python_files(paths):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
            except (OSError, UnicodeDecodeError):
                continue
            try:
                ctx = self.check_source(path, source)
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="syntax-error",
                        path=self._display_path(path),
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}",
                        context=str(exc.msg),
                    )
                )
                checked += 1
                continue
            findings.extend(ctx.findings)
            suppressed += ctx.suppressed
            checked += 1
        for checker in self.checkers:
            findings.extend(checker.end_project(self))
        live, baselined, stale = self.baseline.split(findings)
        return Report(
            findings=live,
            baselined=baselined,
            suppressed=suppressed,
            checked_files=checked,
            stale_baseline=stale,
        )
