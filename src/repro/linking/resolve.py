"""Resolve arbitrary rows to their owning primary object.

Link evidence lives in annotation tables (``dbxref.accession``,
``participant.ref``) but links connect *primary objects* (Section 3's
web-of-objects view). The resolver walks the secondary path discovered in
step 3 from any table back to the primary relation and returns the
accession(s) of the owning primary object(s); the ColumnStore's shared
``value -> row_ids`` hash indexes keep resolution linear (and every
resolver over the same database reuses the same index).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.discovery.model import AttributeRef, SecondaryPath, SourceStructure
from repro.relational.database import Database
from repro.relational.table import Row


#: One join of a secondary path, oriented away from the primary relation:
#: ``(from_table, from_column, to_table, to_column)``.
JoinStep = Tuple[str, str, str, str]


class ObjectResolver:
    """Maps rows of any reachable table to primary-object accessions.

    ``database`` may be None for a resolver that only plans: its
    primary relation, accession column and :meth:`forward_steps` need
    the structure alone.
    """

    def __init__(self, database: Optional[Database], structure: SourceStructure):
        self._db = database
        self._structure = structure
        primary = structure.primary_relation
        if primary is None:
            raise ValueError(
                f"source {structure.source_name!r} has no primary relation; "
                "links cannot be resolved"
            )
        self._primary = primary
        accession_attr = structure.primary_accession()
        if accession_attr is None:
            raise ValueError(
                f"primary relation {primary!r} has no accession candidate"
            )
        self._accession_column = accession_attr.column

    @property
    def primary_relation(self) -> str:
        return self._primary

    @property
    def accession_column(self) -> str:
        return self._accession_column

    # ------------------------------------------------------------------
    def primary_accessions(self) -> List[str]:
        return [
            v
            for v in self._db.table(self._primary).values(self._accession_column)
            if v is not None
        ]

    def owners_of_row(self, table: str, row: Row) -> List[str]:
        """Accessions of the primary objects owning ``row`` of ``table``.

        The primary relation owns itself; other tables are resolved along
        their shortest discovered path. Unreachable tables resolve to [].
        """
        if table == self._primary:
            accession = row.get(self._accession_column)
            return [accession] if accession is not None else []
        steps = self.forward_steps(table)
        if steps is None:
            return []
        rows = [row]
        # Steps run primary -> ... -> table; walk them backwards: current
        # rows live in to_table and must be moved to from_table.
        for from_table, from_column, _to_table, to_column in reversed(steps):
            next_rows: List[Row] = []
            index = self._column_index(from_table, from_column)
            for current in rows:
                value = current.get(to_column)
                if value is None:
                    continue
                next_rows.extend(
                    self._db.table(from_table).row_at(i) for i in index.get(value, [])
                )
            rows = next_rows
            if not rows:
                return []
        accessions = []
        seen = set()
        for owner in rows:
            accession = owner.get(self._accession_column)
            if accession is not None and accession not in seen:
                seen.add(accession)
                accessions.append(accession)
        return accessions

    def forward_steps(self, table: str) -> Optional[List[JoinStep]]:
        """The joins that carry ownership from the primary relation to ``table``.

        One :data:`JoinStep` per step of the shortest discovered secondary
        path; ``[]`` for the primary relation itself, None for a table no
        path reaches. ``access.objects.walk_annotations`` walks these
        steps for every object page, over resident rows or the snapshot's
        value index alike, so both pages take one path and its join
        columns by construction.
        """
        if table == self._primary:
            return []
        paths = self._structure.secondary_paths.get(table)
        if not paths:
            return None
        path = min(paths, key=lambda p: p.length)
        return [
            (
                step.from_table,
                self._join_column(step, "from"),
                step.to_table,
                self._join_column(step, "to"),
            )
            for step in path.steps
        ]

    # ------------------------------------------------------------------
    def _join_column(self, step, side: str) -> str:
        rel = step.relationship
        if step.forward:
            # from_table holds rel.source, to_table holds rel.target.
            return rel.source.column if side == "from" else rel.target.column
        return rel.target.column if side == "from" else rel.source.column

    def _column_index(self, table: str, column: str) -> Dict[object, List[int]]:
        return self._db.table(table).columns.row_ids(column)
