"""Path-based ranking between objects.

Section 6: "query results can be ordered based on the number,
consistency, and length of different paths between two objects, as
suggested in [BLM+04]" — and Section 5 observes that multiple overlapping
link sets connect the same databases ("there exist at least five
different sets of links from Swiss-Prot to PDB ... Ranking of results
based on the strength of evidence is thus a very important feature").

The ranker enumerates simple paths up to a length bound over the object
link graph and scores a pair by summing path contributions: each path
contributes the product of its link certainties damped by its length;
*consistency* (how many distinct evidence kinds support direct paths)
enters as a multiplier.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.linking.model import ObjectLink
from repro.metadata.repository import MetadataRepository

Identity = Tuple[str, str]


@dataclass(frozen=True)
class LinkPath:
    """One evidence path between two objects."""

    endpoints: Tuple[Identity, Identity]
    links: Tuple[ObjectLink, ...]

    @property
    def length(self) -> int:
        return len(self.links)

    @property
    def certainty(self) -> float:
        value = 1.0
        for link in self.links:
            value *= link.certainty
        return value

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(link.kind for link in self.links)


class PathRanker:
    """Evidence aggregation over the object-link graph."""

    def __init__(self, repository: MetadataRepository, max_length: int = 3,
                 max_paths: int = 25):
        self._repository = repository
        self.max_length = max_length
        self.max_paths = max_paths

    # ------------------------------------------------------------------
    def paths_between(self, a: Identity, b: Identity) -> List[LinkPath]:
        """All simple link paths a -> b up to the length bound (BFS order)."""
        # The BFS can fan out to hundreds of positions: one whole-web
        # load beats a per-object link query for each of them.
        self._repository.load_links()
        results: List[LinkPath] = []
        frontier: List[Tuple[Identity, Tuple[ObjectLink, ...], Set[Identity]]] = [
            (a, (), {a})
        ]
        while frontier and len(results) < self.max_paths:
            next_frontier = []
            for position, links, visited in frontier:
                if len(links) >= self.max_length:
                    continue
                for link in self._repository.links_of(*position):
                    for endpoint in link.endpoints():
                        if endpoint == position or endpoint in visited:
                            continue
                        new_links = links + (link,)
                        if endpoint == b:
                            results.append(LinkPath(endpoints=(a, b), links=new_links))
                            if len(results) >= self.max_paths:
                                break
                        else:
                            next_frontier.append(
                                (endpoint, new_links, visited | {endpoint})
                            )
                    if len(results) >= self.max_paths:
                        break
                if len(results) >= self.max_paths:
                    break
            frontier = next_frontier
        return results

    # ------------------------------------------------------------------
    def score(self, a: Identity, b: Identity) -> float:
        """Aggregate evidence score for the pair (0 = unconnected).

        score = consistency_bonus * Σ_paths certainty(path) / length(path)

        where consistency_bonus = 1 + (distinct evidence kinds among
        direct links - 1) * 0.5 — independent channels agreeing is
        stronger evidence than one channel repeated (Section 5's five
        overlapping Swiss-Prot→PDB link sets).
        """
        paths = self.paths_between(a, b)
        if not paths:
            return 0.0
        base = sum(path.certainty / path.length for path in paths)
        direct_kinds = {path.kinds[0] for path in paths if path.length == 1}
        consistency = 1.0 + max(0, len(direct_kinds) - 1) * 0.5
        return round(base * consistency, 6)
