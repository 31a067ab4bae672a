"""The object web: pages and the four relationship types.

Section 4.6 enumerates what a user can follow from an object:

1. *Same relation* — other objects of the same primary relation;
2. *Dependency* — secondary objects (annotations) of the object;
3. *Duplicates* — objects of other sources describing the same
   real-world object;
4. *Linked* — cross-source links of any other discovered kind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.linking.model import ObjectLink
from repro.linking.resolve import ObjectResolver
from repro.metadata.repository import MetadataRepository
from repro.relational.database import Database
from repro.relational.types import is_null


#: What a page pushdown returns to decline (``None`` already answers
#: "no such object"); see :meth:`ObjectWeb.set_page_pushdown`.
DECLINED = object()

#: Rows found by ``row_id``, as :func:`walk_annotations` passes them on.
Rows = Dict[int, Dict[str, object]]


def walk_annotations(
    resolver: ObjectResolver,
    tables: Iterable[str],
    seed: Rows,
    find: Callable[[str, str, List[object]], Rows],
):
    """A page's annotations: per secondary table of ``tables``, in that
    order, the rows reached by walking its shortest path forward from
    ``seed``, the primary rows holding the object's accession.

    Each :meth:`ObjectResolver.forward_steps` join is one
    ``find(table, column, values) -> {row_id: row}`` of the rows whose
    ``column`` equals one of ``values``; a table no row reaches is
    left out. ``find`` may return :data:`DECLINED`, and so does the
    walk. Rows are copied, so the page belongs to its caller.
    """
    annotations: Dict[str, List[Dict[str, object]]] = {}
    for table_name in tables:
        steps = resolver.forward_steps(table_name)
        if steps is None:
            continue
        rows = seed
        for _from_table, from_column, to_table, to_column in steps:
            values = [
                row[from_column] for row in rows.values()
                if not is_null(row[from_column])
            ]
            rows = find(to_table, to_column, values) if values else {}
            if rows is DECLINED:
                return DECLINED
            if not rows:
                break
        if rows:
            annotations[table_name] = [dict(rows[i]) for i in sorted(rows)]
    return annotations


def _resident_rows(database: Database, table_name: str, column: str, values) -> Rows:
    """The in-memory ``find`` of :func:`walk_annotations`: the table's
    ``value -> row_ids`` index, never a snapshot backing."""
    table = database.table(table_name)
    index = table.columns.row_ids(column)
    found = sorted({row_id for value in values for row_id in index.get(value, ())})
    return {row_id: table.row_at(row_id) for row_id in found}


@dataclass
class ObjectPage:
    """One primary object rendered as a page."""

    source: str
    accession: str
    fields: Dict[str, object] = field(default_factory=dict)
    annotations: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)

    @property
    def identity(self) -> Tuple[str, str]:
        return (self.source, self.accession)


class ObjectWeb:
    """Materialized view of all integrated objects and their links."""

    def __init__(self, repository: MetadataRepository):
        self._repository = repository
        self._databases: Dict[str, Database] = {}
        self._resolvers: Dict[str, ObjectResolver] = {}
        # Lazy-open hooks: fault a source's database in on first touch,
        # and (optionally) answer single-source SQL and object pages
        # straight from the snapshot before hydrating (see set_hydrator /
        # set_sql_pushdown / set_page_pushdown).
        self._hydrator = None
        self._sql_pushdown = None
        self._page_pushdown = None
        self._siblings_pushdown = None

    # ------------------------------------------------------------------
    # lazy hydration hooks
    # ------------------------------------------------------------------
    def set_hydrator(self, hydrator) -> None:
        """Install the fault-in callback of a lazy snapshot session.

        ``hydrator(name)`` must attach the named source's database (via
        :meth:`attach_database`) and ``hydrator(None)`` must attach every
        remaining one. Already-attached sources are never re-faulted.
        """
        self._hydrator = hydrator

    def set_sql_pushdown(self, pushdown) -> None:
        """Install the snapshot SQL executor for unhydrated sources.

        ``pushdown(source, statement)`` returns a ResultSet answered from
        the snapshot file, or ``None`` to decline (unsupported statement
        shape) — the caller then hydrates and runs in memory.
        """
        self._sql_pushdown = pushdown

    def set_page_pushdown(self, page, siblings) -> None:
        """Install the snapshot page reader for unhydrated sources.

        ``page(source, accession)`` returns the object's page read from
        the snapshot, or None if the source has no such object.
        ``siblings(source, accession, limit)`` returns the first
        ``limit`` of the source's non-null primary accessions other than
        ``accession``, in row order. Both must answer exactly as the
        in-memory path would, or return :data:`DECLINED`; the caller
        then hydrates the source and answers in memory. Only a source
        that is not attached is offered: once its rows are resident,
        memory answers.
        """
        self._page_pushdown = page
        self._siblings_pushdown = siblings

    def _ensure_attached(self, source: str) -> None:
        if self._hydrator is not None and source not in self._databases:
            self._hydrator(source)

    def _ensure_all_attached(self) -> None:
        if self._hydrator is not None:
            self._hydrator(None)

    def database(self, source: str) -> Database:
        """One source's database, faulting it in under a lazy open."""
        self._ensure_attached(source)
        return self._databases[source]

    def pushdown_sql(self, source: str, statement: str):
        """Try answering ``statement`` from the snapshot, ``None`` to decline.

        Only meaningful for a source that is *not* hydrated yet — once the
        rows are resident, memory is strictly faster than SQLite.
        """
        if self._sql_pushdown is None or source in self._databases:
            return None
        return self._sql_pushdown(source, statement)

    def attach_database(self, name: str, database: Database) -> None:
        if not self._repository.has_source(name):
            raise KeyError(f"source {name!r} not in the metadata repository")
        self.detach_database(name)
        self._databases[name] = database
        try:
            self._resolvers[name] = ObjectResolver(
                database, self._repository.structure(name)
            )
        except ValueError:
            self._resolvers.pop(name, None)  # no primary relation: no pages

    def detach_database(self, name: str) -> None:
        """Forget one source's pages; every other attachment stays live."""
        self._databases.pop(name, None)
        self._resolvers.pop(name, None)

    @property
    def repository(self) -> MetadataRepository:
        return self._repository

    def sources_with_pages(self) -> List[str]:
        self._ensure_all_attached()
        return sorted(self._resolvers)

    # ------------------------------------------------------------------
    def accessions(self, source: str) -> List[str]:
        self._ensure_attached(source)
        resolver = self._resolvers.get(source)
        return resolver.primary_accessions() if resolver else []

    def page(self, source: str, accession: str) -> Optional[ObjectPage]:
        """Materialize one object page (own row + secondary annotations)."""
        if self._page_pushdown is not None and source not in self._databases:
            page = self._page_pushdown(source, accession)
            if page is not DECLINED:
                return page
        self._ensure_attached(source)
        resolver = self._resolvers.get(source)
        if resolver is None:
            return None
        database = self._databases[source]
        primary = resolver.primary_relation
        row = database.table(primary).lookup_unique(resolver.accession_column, accession)
        if row is None:
            return None
        find = functools.partial(_resident_rows, database)
        annotations = walk_annotations(
            resolver,
            self._repository.structure(source).secondary_paths,
            find(primary, resolver.accession_column, [accession]),
            find,
        )
        return ObjectPage(
            source=source, accession=accession, fields=dict(row),
            annotations=annotations,
        )

    # ------------------------------------------------------------------
    # the four link types
    # ------------------------------------------------------------------
    def same_relation(self, source: str, accession: str, limit: int = 10) -> List[str]:
        """Type 1: sibling objects in the same primary relation."""
        if self._siblings_pushdown is not None and source not in self._databases:
            found = self._siblings_pushdown(source, accession, limit)
            if found is not DECLINED:
                return found
        siblings = [a for a in self.accessions(source) if a != accession]
        return siblings[:limit]

    def dependencies(self, source: str, accession: str) -> Dict[str, List[Dict[str, object]]]:
        """Type 2: the secondary objects of this object."""
        page = self.page(source, accession)
        return page.annotations if page else {}

    def duplicates(self, source: str, accession: str) -> List[ObjectLink]:
        """Type 3: duplicate links of this object."""
        return self._repository.links_of(source, accession, kind="duplicate")

    def linked(self, source: str, accession: str) -> List[ObjectLink]:
        """Type 4: all non-duplicate cross-source links of this object."""
        return [
            link
            for link in self._repository.links_of(source, accession)
            if link.kind != "duplicate"
        ]
