"""Canonical-JSON checker: no raw ``json.dumps`` outside the codec.

Snapshot content hashes are computed over ``persist.codec``'s canonical
encoding; a stray ``json.dumps`` elsewhere re-introduces
non-deterministic key order, loose separators, and bare ``NaN`` tokens.
Every serialization site must route through
:func:`repro.persist.codec.canonical_json` (or its display twin) — or
carry an explicit ``# repro-lint: allow[raw-json-dumps]`` exemption with
the reason it cannot (the obs leaf, layers below persist).
"""

from __future__ import annotations

import ast

from repro.analysis.engine import Checker, ModuleContext

RULE = "raw-json-dumps"

#: The one module allowed to call json.dumps freely: it *is* the codec.
_EXEMPT_MODULES = frozenset({"repro.persist.codec"})

_DUMP_NAMES = frozenset({"dumps", "dump"})


class CanonicalJsonChecker(Checker):
    rule = RULE
    interests = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if ctx.module in _EXEMPT_MODULES:
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _DUMP_NAMES
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            return
        ctx.report(
            RULE,
            node,
            f"raw json.{func.attr} outside persist/codec.py",
            hint="route through repro.persist.codec.canonical_json (or "
            "display_json for human-facing output); annotate with "
            "# repro-lint: allow[raw-json-dumps] only when the layer "
            "cannot import persist (obs, layers below persist)",
        )
