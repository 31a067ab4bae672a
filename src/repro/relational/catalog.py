"""Data-dictionary views over a :class:`~repro.relational.database.Database`.

Section 4.2: "Existing foreign key constraints are found using the data
dictionary." The catalog is that dictionary — a read-only, uniform way for
the discovery layer to enumerate tables, columns, and declared constraints
without touching storage internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.relational.database import Database
from repro.relational.types import DataType


@dataclass(frozen=True)
class ColumnInfo:
    table: str
    column: str
    data_type: DataType
    nullable: bool
    declared_unique: bool

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class ForeignKeyInfo:
    table: str
    columns: Tuple[str, ...]
    target_table: str
    target_columns: Tuple[str, ...]


class Catalog:
    """Read-only dictionary over one database."""

    def __init__(self, database: Database):
        self._db = database

    @property
    def database(self) -> Database:
        return self._db

    def tables(self) -> List[str]:
        return self._db.table_names()

    def columns(self, table: Optional[str] = None) -> List[ColumnInfo]:
        infos: List[ColumnInfo] = []
        names = [table.lower()] if table else self.tables()
        for name in names:
            tab = self._db.table(name)
            declared = set(tab.schema.declared_unique_columns())
            for column in tab.schema.columns:
                infos.append(
                    ColumnInfo(
                        table=name,
                        column=column.name,
                        data_type=column.data_type,
                        nullable=column.nullable,
                        declared_unique=column.name in declared,
                    )
                )
        return infos

    def declared_foreign_keys(self) -> List[ForeignKeyInfo]:
        fks: List[ForeignKeyInfo] = []
        for name in self.tables():
            tab = self._db.table(name)
            for fk in tab.schema.foreign_keys:
                fks.append(
                    ForeignKeyInfo(
                        table=name,
                        columns=tuple(fk.columns),
                        target_table=fk.target_table,
                        target_columns=tuple(fk.target_columns),
                    )
                )
        return fks

    def row_count(self, table: str) -> int:
        return len(self._db.table(table))
