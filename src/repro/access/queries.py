"""Structured queries: SQL per source plus cross-source link joins.

Section 4.6: "querying allows full SQL queries on the schemata as
imported", and results must be ranked "according to certainty values
derived from the different discovery steps during data import". The
cross-database query of Section 6 ("all genes ... connected to a disease
via a protein") is expressed as a *link join*: a per-source SQL query
whose result objects are expanded over discovered links into other
sources.

Duplicate handling follows Section 4.5: clusters can optionally be
collapsed so "only one representative of each duplicate cluster" is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.access.objects import ObjectWeb
from repro.duplicates.clustering import UnionFind
from repro.linking.model import ObjectLink
from repro.relational.sql import execute_sql


@dataclass
class RankedRow:
    """One query answer with provenance and certainty."""

    source: str
    accession: str
    row: Dict[str, object]
    certainty: float
    path: Tuple[str, ...] = ()  # accessions traversed to reach this row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankedRow({self.source}/{self.accession}, certainty={self.certainty:.2f})"


class QueryEngine:
    """SQL + link-join query access over the object web."""

    def __init__(self, web: ObjectWeb):
        self._web = web

    # ------------------------------------------------------------------
    def sql(self, source: str, statement: str):
        """Plain SQL against one source's imported schema.

        Under a lazy open an unhydrated source is first offered to the
        snapshot pushdown executor — a single-table scan runs where the
        data lives without faulting the rows in; anything it declines
        hydrates the source and executes in memory as before.
        """
        result = self._web.pushdown_sql(source, statement)
        if result is not None:
            return result
        return execute_sql(self._web.database(source), statement)

    # ------------------------------------------------------------------
    def select_objects(self, source: str, statement: str) -> List[RankedRow]:
        """Run SQL on a source and lift result rows to primary objects.

        The statement must select (at least) the source's accession
        column of the primary relation.
        """
        structure = self._web.repository.structure(source)
        accession_attr = structure.primary_accession()
        if accession_attr is None:
            raise ValueError(f"source {source!r} has no primary accession")
        result = self.sql(source, statement)
        column = None
        for candidate in (accession_attr.column, accession_attr.qualified):
            if candidate in result.columns:
                column = candidate
                break
        if column is None:
            raise ValueError(
                f"query must select the accession column {accession_attr.qualified!r}"
            )
        rows = []
        for row in result.rows:
            accession = row[column]
            if accession is None:
                continue
            rows.append(
                RankedRow(
                    source=source,
                    accession=accession,
                    row=dict(row),
                    certainty=1.0,
                    path=(accession,),
                )
            )
        return rows

    # ------------------------------------------------------------------
    def link_join(
        self,
        rows: Sequence[RankedRow],
        target_source: str,
        kinds: Optional[Sequence[str]] = None,
        min_certainty: float = 0.0,
    ) -> List[RankedRow]:
        """Expand result objects over links into ``target_source``.

        Each output row's certainty is the product of the input row's
        certainty and the link certainty — multiplying evidence along the
        path, which makes longer/weaker chains rank below short/strong
        ones.
        """
        repository = self._web.repository
        repository.load_links()  # one load, not one link query per row
        out: List[RankedRow] = []
        seen: Set[Tuple[str, str, Tuple[str, ...]]] = set()
        allowed = set(kinds) if kinds is not None else None
        for row in rows:
            for link in repository.links_of(row.source, row.accession):
                if allowed is not None and link.kind not in allowed:
                    continue
                for endpoint in link.endpoints():
                    if endpoint == (row.source, row.accession):
                        continue
                    if endpoint[0] != target_source:
                        continue
                    certainty = row.certainty * link.certainty
                    if certainty < min_certainty:
                        continue
                    path = row.path + (endpoint[1],)
                    key = (endpoint[0], endpoint[1], row.path)
                    if key in seen:
                        continue
                    seen.add(key)
                    page = self._web.page(*endpoint)
                    out.append(
                        RankedRow(
                            source=endpoint[0],
                            accession=endpoint[1],
                            row=dict(page.fields) if page else {},
                            certainty=round(certainty, 6),
                            path=path,
                        )
                    )
        out.sort(key=lambda r: (-r.certainty, r.source, r.accession))
        return out

    # ------------------------------------------------------------------
    def collapse_duplicates(self, rows: Sequence[RankedRow]) -> List[RankedRow]:
        """Keep one representative per duplicate cluster (Section 4.5).

        The representative is the highest-certainty member; cluster
        membership comes from the repository's duplicate links.
        """
        repository = self._web.repository
        uf = UnionFind()
        for row in rows:
            uf.find((row.source, row.accession))
        for link in repository.object_links(kind="duplicate"):
            uf.union(
                (link.source_a, link.accession_a), (link.source_b, link.accession_b)
            )
        best: Dict[object, RankedRow] = {}
        for row in rows:
            root = uf.find((row.source, row.accession))
            current = best.get(root)
            if current is None or row.certainty > current.certainty:
                best[root] = row
        out = list(best.values())
        out.sort(key=lambda r: (-r.certainty, r.source, r.accession))
        return out
