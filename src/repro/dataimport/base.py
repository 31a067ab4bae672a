"""Importer interface and registry.

An importer turns an external representation (file text, directory of
dumps) into a :class:`repro.relational.Database`. The paper stresses that
"even generic parsers may be used" — importers therefore never declare
cross-source semantics, only per-source tables, and constraint emission is
optional (``declare_constraints=False`` simulates quick-and-dirty parsers).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.relational.database import Database


class IdAllocator:
    """Surrogate-key allocator for parser-generated object ids.

    Global mode (default) hands out ids from one sequence shared by all
    tables of the import run — the OpenMMS/global-sequence parser style —
    so value ranges of unrelated id columns rarely collide and
    inclusion-dependency mining sees only true containments. Contiguous
    mode restarts at 1 for every table (per-table auto-increment), the
    style that maximizes the accidental-containment confusion discussed in
    Section 4.2; it is kept as an explicit knob for the error-propagation
    ablation (experiment E7).
    """

    def __init__(self, contiguous: bool = False):
        self._contiguous = contiguous
        self._global = 0
        self._per_table: Dict[str, int] = defaultdict(int)

    def next(self, table: str) -> int:
        if self._contiguous:
            self._per_table[table] += 1
            return self._per_table[table]
        self._global += 1
        return self._global


class ImportError_(ValueError):
    """Raised when an input cannot be parsed.

    Named with a trailing underscore to avoid shadowing the builtin
    ``ImportError`` while staying recognizable.
    """


@dataclass
class ImportResult:
    """Outcome of one import run."""

    database: Database
    records_read: int
    tables_created: int
    warnings: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"imported {self.records_read} records into "
            f"{self.tables_created} tables of {self.database.name!r}"
            + (f" ({len(self.warnings)} warnings)" if self.warnings else "")
        )


class Importer:
    """Base class: subclasses implement :meth:`import_text`.

    Args:
        source_name: name for the resulting database.
        declare_constraints: when False the importer emits bare tables with
            no PK/UNIQUE/FK declarations — the "generic parser" situation
            that forces ALADIN to guess all structure from data.
        contiguous_ids: when True surrogate keys restart at 1 per table
            (see :class:`IdAllocator`); default is a global id sequence.
    """

    format_name: str = "abstract"

    def __init__(
        self,
        source_name: str,
        declare_constraints: bool = True,
        contiguous_ids: bool = False,
    ):
        self.source_name = source_name
        self.declare_constraints = declare_constraints
        self.contiguous_ids = contiguous_ids

    def make_id_allocator(self) -> IdAllocator:
        return IdAllocator(contiguous=self.contiguous_ids)

    def import_text(self, text: str) -> ImportResult:  # pragma: no cover - abstract
        raise NotImplementedError


class ImporterRegistry:
    """Maps format names to importer factories.

    Mirrors the paper's observation that "for almost all flat-file
    representations there are freely available parsers": integrating a new
    source means picking a registered format, not writing mapping code.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., Importer]] = {}

    def register(self, format_name: str, factory: Callable[..., Importer]) -> None:
        self._factories[format_name.lower()] = factory

    def create(
        self, format_name: str, source_name: str, declare_constraints: bool = True
    ) -> Importer:
        factory = self._factories.get(format_name.lower())
        if factory is None:
            raise KeyError(
                f"no importer registered for format {format_name!r}; "
                f"known: {sorted(self._factories)}"
            )
        return factory(source_name, declare_constraints)

    def formats(self) -> List[str]:
        return sorted(self._factories)


registry = ImporterRegistry()
