"""A named collection of tables with a data dictionary.

One :class:`Database` holds the relational representation of exactly one
life-science data source (the paper imports "each data source ... into the
relational database system"; we keep one Database per source so that
per-source discovery never touches other sources, which is what makes
incremental addition cheap — Section 4.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.relational.schema import ForeignKey, SchemaError, TableSchema, validate_identifier
from repro.relational.table import Row, Table
from repro.relational.types import is_null


class Database:
    """A named set of tables plus catalog access."""

    def __init__(self, name: str):
        self.name = validate_identifier(name, "database")
        self._tables: Dict[str, Table] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists in {self.name!r}")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        lowered = name.lower()
        if lowered not in self._tables:
            raise SchemaError(f"no table {name!r} in database {self.name!r}")
        return self._tables[lowered]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def tables(self) -> Iterable[Table]:
        for name in self.table_names():
            yield self._tables[name]

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def column_cache_stats(self) -> Dict[str, int]:
        """Aggregate ColumnStore hit/miss counters across all tables.

        Bulk materialization and snapshot rehydration count as *warm*: a
        database whose caches were built by ``materialize_all`` or restored
        from a snapshot reports zero misses, and every subsequent read is a
        hit. A non-zero miss count therefore always means something was
        genuinely recomputed from the row store. ``pushdown_hits`` counts
        lookups answered by a snapshot backing's SQL index instead of a
        materialized cache (lazy hydration's deferred-work dividend).
        """
        hits = sum(t.columns.hits for t in self._tables.values())
        misses = sum(t.columns.misses for t in self._tables.values())
        pushdown = sum(t.columns.pushdown_hits for t in self._tables.values())
        return {"hits": hits, "misses": misses, "pushdown_hits": pushdown}

    # ------------------------------------------------------------------
    # DML convenience
    # ------------------------------------------------------------------
    def insert(self, table_name: str, row: Row) -> None:
        self.table(table_name).insert(row)

    def insert_many(self, table_name: str, rows: Iterable[Row]) -> int:
        return self.table(table_name).insert_many(rows)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def check_foreign_keys(self) -> List[str]:
        """Validate every declared FK; return human-readable violations.

        Checked lazily (not on insert) because flat-file loads are unordered.
        """
        violations: List[str] = []
        for table in self.tables():
            for fk in table.schema.foreign_keys:
                violations.extend(self._check_one_fk(table, fk))
        return violations

    def _check_one_fk(self, table: Table, fk: ForeignKey) -> List[str]:
        if not self.has_table(fk.target_table):
            return [
                f"{table.name}: FK {fk.columns} -> missing table {fk.target_table!r}"
            ]
        target = self.table(fk.target_table)
        target_keys = set()
        target_indexes = [target.schema.column_index(c) for c in fk.target_columns]
        for tup in target.raw_rows():
            target_keys.add(tuple(tup[i] for i in target_indexes))
        violations = []
        source_indexes = [table.schema.column_index(c) for c in fk.columns]
        for tup in table.raw_rows():
            key = tuple(tup[i] for i in source_indexes)
            if any(is_null(v) for v in key):
                continue
            if key not in target_keys:
                violations.append(
                    f"{table.name}: FK value {key!r} not found in "
                    f"{fk.target_table}({', '.join(fk.target_columns)})"
                )
        return violations

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def strip_constraints(self) -> "Database":
        """Copy of this database with all declared constraints removed.

        Simulates the "generic parser" situation the paper's heuristics are
        designed for: the data survives, the metadata does not.
        """
        stripped = Database(self.name)
        for table in self.tables():
            new_table = stripped.create_table(table.schema.without_constraints())
            for row in table.rows():
                new_table.insert(row)
        return stripped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{t.name}[{len(t)}]" for t in self.tables())
        return f"Database({self.name!r}: {parts})"
