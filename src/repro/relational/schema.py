"""Table schemas and declared integrity constraints.

ALADIN does *not* require constraints to be present (Section 4.1: "it is
[not] necessary that integrity constraints, such as UNIQUE, PRIMARY KEY, or
FOREIGN KEY, are present"), but it *uses* them when they are (Section 3:
"existing integrity constraints are exploited, if they are available").
Schemas therefore carry optional constraint declarations that the discovery
steps read through the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.relational.types import DataType


class SchemaError(ValueError):
    """Raised for malformed schema definitions."""


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def validate_identifier(name: str, kind: str) -> str:
    """Validate and normalize (lower-case) a table/column identifier."""
    if not name:
        raise SchemaError(f"empty {kind} name")
    lowered = name.lower()
    if lowered[0].isdigit():
        raise SchemaError(f"{kind} name {name!r} may not start with a digit")
    if not set(lowered) <= _IDENT_OK:
        raise SchemaError(f"{kind} name {name!r} contains invalid characters")
    return lowered


@dataclass(frozen=True)
class Column:
    """A typed, optionally non-nullable column."""

    name: str
    data_type: DataType = DataType.TEXT
    nullable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", validate_identifier(self.name, "column"))


@dataclass(frozen=True)
class UniqueConstraint:
    """A declared single- or multi-column UNIQUE constraint."""

    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("UNIQUE constraint needs at least one column")
        object.__setattr__(
            self, "columns", tuple(validate_identifier(c, "column") for c in self.columns)
        )


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign key: ``columns`` reference ``target_columns`` of ``target_table``."""

    columns: Tuple[str, ...]
    target_table: str
    target_columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("FOREIGN KEY needs at least one column")
        if len(self.columns) != len(self.target_columns):
            raise SchemaError("FOREIGN KEY column count mismatch")
        object.__setattr__(
            self, "columns", tuple(validate_identifier(c, "column") for c in self.columns)
        )
        object.__setattr__(self, "target_table", validate_identifier(self.target_table, "table"))
        object.__setattr__(
            self,
            "target_columns",
            tuple(validate_identifier(c, "column") for c in self.target_columns),
        )


@dataclass
class TableSchema:
    """Schema of one table: columns plus optional declared constraints."""

    name: str
    columns: List[Column]
    primary_key: Optional[Tuple[str, ...]] = None
    unique_constraints: List[UniqueConstraint] = field(default_factory=list)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = validate_identifier(self.name, "table")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} needs at least one column")
        seen = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(f"duplicate column {column.name!r} in table {self.name!r}")
            seen.add(column.name)
        if self.primary_key is not None:
            self.primary_key = tuple(
                validate_identifier(c, "column") for c in self.primary_key
            )
            self._require_columns(self.primary_key, "PRIMARY KEY")
        for unique in self.unique_constraints:
            self._require_columns(unique.columns, "UNIQUE")
        for fk in self.foreign_keys:
            self._require_columns(fk.columns, "FOREIGN KEY")

    def _require_columns(self, names: Sequence[str], kind: str) -> None:
        known = {c.name for c in self.columns}
        for name in names:
            if name not in known:
                raise SchemaError(
                    f"{kind} on table {self.name!r} references unknown column {name!r}"
                )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        lowered = name.lower()
        for column in self.columns:
            if column.name == lowered:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name == lowered:
                return i
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def declared_unique_columns(self) -> List[str]:
        """Single columns declared unique via PK or a 1-column UNIQUE constraint."""
        names: List[str] = []
        if self.primary_key is not None and len(self.primary_key) == 1:
            names.append(self.primary_key[0])
        for unique in self.unique_constraints:
            if len(unique.columns) == 1 and unique.columns[0] not in names:
                names.append(unique.columns[0])
        return names

    def without_constraints(self) -> "TableSchema":
        """A copy of this schema with every declared constraint stripped.

        Used by the evaluation harness to simulate generic parsers that emit
        bare tables (the common case the paper's heuristics target).
        """
        return TableSchema(name=self.name, columns=list(self.columns))
