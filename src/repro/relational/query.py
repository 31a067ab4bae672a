"""A small relational-algebra executor with a fluent builder.

Supports the shapes ALADIN's access layer needs (Section 4.6 "querying
allows full SQL queries on the schemata as imported"): projection,
selection, inner/left equi-joins, ordering, limiting, and the handful of
aggregates used by the statistics collector.

Joined rows use qualified keys (``table.column``); single-table rows use
bare column names. :class:`repro.relational.expressions.ColumnRef` resolves
either spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.relational.database import Database
from repro.relational.expressions import Expression
from repro.relational.table import Row, Table
from repro.relational.types import is_null


@dataclass
class ResultSet:
    """Materialized query result: ordered rows plus column order."""

    columns: List[str]
    rows: List[Dict[str, Any]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_values(self, column: str) -> List[Any]:
        key = column.lower()
        return [row[key] for row in self.rows]

    def first(self) -> Optional[Dict[str, Any]]:
        return self.rows[0] if self.rows else None


@dataclass(frozen=True)
class _Join:
    table: str
    left_column: str
    right_column: str
    kind: str = "inner"  # "inner" | "left"


class Query:
    """Fluent single-statement query against one database."""

    def __init__(self, database: Database):
        self._db = database
        self._from: Optional[str] = None
        self._joins: List[_Join] = []
        self._where: Optional[Expression] = None
        self._select: Optional[List[str]] = None
        self._order_by: List[Tuple[str, bool]] = []
        self._limit: Optional[int] = None
        self._distinct = False

    # ------------------------------------------------------------------
    # builder
    # ------------------------------------------------------------------
    def from_(self, table: str) -> "Query":
        self._from = table.lower()
        return self

    def join(self, table: str, left_column: str, right_column: str) -> "Query":
        self._joins.append(_Join(table.lower(), left_column.lower(), right_column.lower(), "inner"))
        return self

    def left_join(self, table: str, left_column: str, right_column: str) -> "Query":
        self._joins.append(_Join(table.lower(), left_column.lower(), right_column.lower(), "left"))
        return self

    def where(self, expression: Expression) -> "Query":
        if self._where is None:
            self._where = expression
        else:
            self._where = self._where & expression
        return self

    def select(self, *columns: str) -> "Query":
        self._select = [c.lower() for c in columns]
        return self

    def distinct(self) -> "Query":
        self._distinct = True
        return self

    def order_by(self, column: str, descending: bool = False) -> "Query":
        self._order_by.append((column.lower(), descending))
        return self

    def limit(self, n: int) -> "Query":
        self._limit = n
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self) -> ResultSet:
        if self._from is None:
            raise ValueError("query has no FROM table")
        rows = self._scan_base()
        for join in self._joins:
            rows = self._apply_join(rows, join)
        if self._where is not None:
            rows = [row for row in rows if self._where.evaluate(row)]
        for column, descending in reversed(self._order_by):
            rows = _stable_sort(rows, column, descending)
        columns = self._output_columns(rows)
        projected = [self._project(row, columns) for row in rows]
        if self._distinct:
            projected = _distinct_rows(projected, columns)
        if self._limit is not None:
            projected = projected[: self._limit]
        return ResultSet(columns=columns, rows=projected)

    def count(self) -> int:
        return len(self.execute())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _qualified(self) -> bool:
        return bool(self._joins)

    def _scan_base(self) -> List[Dict[str, Any]]:
        table = self._db.table(self._from)
        if not self._qualified():
            return list(table.rows())
        prefix = table.name + "."
        return [{prefix + k: v for k, v in row.items()} for row in table.rows()]

    def _apply_join(self, rows: List[Dict[str, Any]], join: _Join) -> List[Dict[str, Any]]:
        right = self._db.table(join.table)
        prefix = right.name + "."
        # Hash the right side on the join key.
        index: Dict[Any, List[Row]] = {}
        right_col = join.right_column.split(".")[-1]
        for row in right.rows():
            key = row[right_col]
            if is_null(key):
                continue
            index.setdefault(key, []).append(row)
        left_key = join.left_column if "." in join.left_column else None
        out: List[Dict[str, Any]] = []
        null_right = {prefix + c: None for c in right.column_names}
        for row in rows:
            if left_key is not None:
                value = row.get(left_key)
            else:
                value = _resolve_bare(row, join.left_column)
            matches = [] if is_null(value) else index.get(value, [])
            if matches:
                for match in matches:
                    merged = dict(row)
                    merged.update({prefix + k: v for k, v in match.items()})
                    out.append(merged)
            elif join.kind == "left":
                merged = dict(row)
                merged.update(null_right)
                out.append(merged)
        return out

    def _output_columns(self, rows: List[Dict[str, Any]]) -> List[str]:
        if self._select:
            resolved = []
            for name in self._select:
                if name == "*":
                    resolved.extend(self._all_columns())
                else:
                    resolved.append(name)
            return resolved
        return self._all_columns()

    def _all_columns(self) -> List[str]:
        base = self._db.table(self._from)
        if not self._qualified():
            return list(base.column_names)
        columns = [f"{base.name}.{c}" for c in base.column_names]
        for join in self._joins:
            right = self._db.table(join.table)
            columns.extend(f"{right.name}.{c}" for c in right.column_names)
        return columns

    def _project(self, row: Dict[str, Any], columns: List[str]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in columns:
            if name in row:
                out[name] = row[name]
            else:
                out[name] = _resolve_bare(row, name)
        return out


def _resolve_bare(row: Dict[str, Any], name: str) -> Any:
    if name in row:
        return row[name]
    if "." not in name:
        matches = [k for k in row if k.endswith("." + name)]
        if len(matches) == 1:
            return row[matches[0]]
        if len(matches) > 1:
            raise KeyError(f"ambiguous column {name!r}: {sorted(matches)}")
    else:
        bare = name.split(".", 1)[1]
        if bare in row:
            return row[bare]
    raise KeyError(f"unknown column {name!r}")


def _sort_key(value: Any) -> Tuple[int, Any]:
    # NULLs last; numbers before strings to keep orderings total.
    if is_null(value):
        return (2, 0)
    if isinstance(value, str):
        return (1, value)
    return (0, value)


def _stable_sort(
    rows: List[Dict[str, Any]], column: str, descending: bool
) -> List[Dict[str, Any]]:
    def key(row: Dict[str, Any]):
        return _sort_key(_resolve_bare(row, column))

    return sorted(rows, key=key, reverse=descending)


def _distinct_rows(rows: List[Dict[str, Any]], columns: List[str]) -> List[Dict[str, Any]]:
    seen = set()
    out = []
    for row in rows:
        key = tuple(row[c] for c in columns)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out
