"""The generic browsing front-end.

"Users may traverse this web of biological objects using a generic
front-end very much like they travel the web using their browser"
(Section 1). The browser keeps a history, renders pages with all four
link types, shows data lineage for duplicates, and highlights conflicts
(Section 4.6, type 3: "Conflicts are highlighted, and data lineage is
shown").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.access.objects import ObjectPage, ObjectWeb
from repro.duplicates.conflicts import Conflict, find_conflicts
from repro.duplicates.record import RecordView
from repro.linking.model import ObjectLink


@dataclass
class BrowseView:
    """Everything shown for one object: the page plus its link panels."""

    page: ObjectPage
    same_relation: List[str]
    duplicates: List[ObjectLink]
    linked: List[ObjectLink]
    conflicts: List[Conflict] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text rendering (the reproduction's 'web page')."""
        lines = [f"=== {self.page.source} / {self.page.accession} ==="]
        for key, value in self.page.fields.items():
            if value is not None:
                lines.append(f"  {key}: {value}")
        for table, rows in self.page.annotations.items():
            lines.append(f"  -- {table} ({len(rows)}) --")
            for row in rows[:5]:
                rendered = ", ".join(
                    f"{k}={v}" for k, v in row.items() if v is not None
                )
                lines.append(f"    {rendered}")
        if self.duplicates:
            lines.append("  [duplicates]")
            for link in self.duplicates:
                other = [e for e in link.endpoints() if e != self.page.identity][0]
                lines.append(
                    f"    {other[0]}/{other[1]} (certainty {link.certainty:.2f})"
                )
        if self.conflicts:
            lines.append("  [conflicts]")
            for conflict in self.conflicts:
                lines.append(
                    f"    {conflict.value_a!r} vs {conflict.value_b!r} "
                    f"({conflict.source_b})"
                )
        if self.linked:
            lines.append("  [links]")
            for link in self.linked[:10]:
                other = [e for e in link.endpoints() if e != self.page.identity][0]
                lines.append(
                    f"    {link.kind}: {other[0]}/{other[1]} "
                    f"(certainty {link.certainty:.2f})"
                )
        return "\n".join(lines)


class Browser:
    """Stateful navigation over the object web."""

    def __init__(self, web: ObjectWeb, tracer=None):
        self._web = web
        self._history: List[Tuple[str, str]] = []
        #: Optional :class:`~repro.obs.trace.Tracer`; each page visit
        #: then records one ``op.browse`` root span (``None`` = off).
        self.tracer = tracer

    @property
    def history(self) -> List[Tuple[str, str]]:
        return list(self._history)

    def visit(self, source: str, accession: str) -> BrowseView:
        """Open one object page with all four link types resolved."""
        if self.tracer is None:
            return self._visit_impl(source, accession)
        with self.tracer.span("op.browse", source=source, accession=accession):
            return self._visit_impl(source, accession)

    def _visit_impl(self, source: str, accession: str) -> BrowseView:
        page = self._web.page(source, accession)
        if page is None:
            raise KeyError(f"no object {source}/{accession}")
        self._history.append((source, accession))
        # One read of the object's links feeds both panels: on a lazy
        # snapshot each read is a query against the file.
        duplicates: List[ObjectLink] = []
        linked: List[ObjectLink] = []
        for link in self._web.repository.links_of(source, accession):
            (duplicates if link.kind == "duplicate" else linked).append(link)
        conflicts = self._conflicts_for(page, duplicates)
        return BrowseView(
            page=page,
            same_relation=self._web.same_relation(source, accession),
            duplicates=duplicates,
            linked=linked,
            conflicts=conflicts,
        )

    def follow(self, view: BrowseView, link: ObjectLink) -> BrowseView:
        """Follow one link from a rendered view (type 3 or 4 navigation)."""
        target = [e for e in link.endpoints() if e != view.page.identity]
        if not target:
            raise ValueError("link does not leave the current page")
        return self.visit(*target[0])

    def back(self) -> Optional[BrowseView]:
        """Pop the current page; re-visit the previous one."""
        if len(self._history) < 2:
            return None
        self._history.pop()
        source, accession = self._history.pop()
        return self.visit(source, accession)

    # ------------------------------------------------------------------
    def _conflicts_for(
        self, page: ObjectPage, duplicates: List[ObjectLink]
    ) -> List[Conflict]:
        conflicts: List[Conflict] = []
        own_view = _page_record_view(page)
        for link in duplicates:
            other = [e for e in link.endpoints() if e != page.identity][0]
            other_page = self._web.page(*other)
            if other_page is None:
                continue
            conflicts.extend(find_conflicts(own_view, _page_record_view(other_page)))
        return conflicts


def _page_record_view(page: ObjectPage) -> RecordView:
    values = [
        str(v)
        for v in page.fields.values()
        if isinstance(v, str) and v and not v.isdigit()
    ]
    return RecordView(source=page.source, accession=page.accession, values=values)
