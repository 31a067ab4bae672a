"""Crawl the object web to feed the search index.

"Just like in the Web, a specialized search engine can 'crawl' the links
and index biological objects and their data and textual annotation, thus
providing search capability" (Section 1).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Optional, Set, Tuple

from repro.access.objects import ObjectPage, ObjectWeb


class Crawler:
    """BFS over pages and links, starting from every source's objects."""

    def __init__(self, web: ObjectWeb):
        self._web = web

    def crawl(
        self,
        seeds: Optional[List[Tuple[str, str]]] = None,
        follow_links: bool = True,
        max_pages: Optional[int] = None,
    ) -> Iterator[ObjectPage]:
        """Yield pages; with ``follow_links`` the frontier expands over links.

        Without seeds, every object of every source is a seed (full crawl);
        with seeds and ``follow_links`` the crawl discovers exactly the
        link-connected component of the seeds.
        """
        frontier: deque = deque()
        if seeds is None:
            for source in self._web.sources_with_pages():
                for accession in self._web.accessions(source):
                    frontier.append((source, accession))
        else:
            frontier.extend(seeds)
        if follow_links:
            # One whole-web load beats a per-object link query for every
            # page the frontier reaches.
            self._web.repository.load_links()
        visited: Set[Tuple[str, str]] = set()
        emitted = 0
        while frontier:
            if max_pages is not None and emitted >= max_pages:
                return
            source, accession = frontier.popleft()
            if (source, accession) in visited:
                continue
            visited.add((source, accession))
            page = self._web.page(source, accession)
            if page is None:
                continue
            yield page
            emitted += 1
            if not follow_links:
                continue
            for link in self._web.repository.links_of(source, accession):
                for endpoint in link.endpoints():
                    if endpoint not in visited:
                        frontier.append(endpoint)
