"""The object web: pages and the four relationship types.

Section 4.6 enumerates what a user can follow from an object:

1. *Same relation* — other objects of the same primary relation;
2. *Dependency* — secondary objects (annotations) of the object;
3. *Duplicates* — objects of other sources describing the same
   real-world object;
4. *Linked* — cross-source links of any other discovered kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.linking.model import ObjectLink
from repro.linking.resolve import ObjectResolver
from repro.metadata.repository import MetadataRepository
from repro.relational.database import Database


#: What a page pushdown returns to decline (``None`` already answers
#: "no such object"); see :meth:`ObjectWeb.set_page_pushdown`.
DECLINED = object()


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
        # (source, table) -> accession -> rows; built lazily, one scan per
        # secondary table instead of one per page visit.
        self._annotation_cache: Dict[Tuple[str, str], Dict[str, List[Dict[str, object]]]] = {}
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
        self.detach_database(name)  # drop any previous attachment's caches
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
        self._annotation_cache = {
            key: value for key, value in self._annotation_cache.items()
            if key[0] != name
        }

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
        page = ObjectPage(source=source, accession=accession, fields=dict(row))
        structure = self._repository.structure(source)
        for table_name in structure.secondary_paths:
            rows = self._annotation_rows(source, table_name, resolver).get(accession)
            if rows:
                page.annotations[table_name] = rows
        return page

    def _annotation_rows(
        self, source: str, table_name: str, resolver: ObjectResolver
    ) -> Dict[str, List[Dict[str, object]]]:
        key = (source, table_name)
        cached = self._annotation_cache.get(key)
        if cached is None:
            # Secondary-path-aware index: the resolver maps the whole
            # table to its owners in one forward sweep over the shared
            # ColumnStore value indexes — no per-row backward path walks.
            cached = {}
            table = self._databases[source].table(table_name)
            owners_by_row = resolver.owners_index(table_name)
            for row_id in range(len(table)):
                owners = owners_by_row.get(row_id)
                if not owners:
                    continue
                row = table.row_at(row_id)
                for owner in owners:
                    cached.setdefault(owner, []).append(dict(row))
            self._annotation_cache[key] = cached
        return cached

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
