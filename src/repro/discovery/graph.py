"""The relationship graph over one source's tables.

Nodes are tables; a directed edge runs from the FK-holding table to the
referenced table ("the network formed by the guessed foreign key
relationships", Section 4.2). Primary-relation selection reads in-degrees
here; secondary-path discovery walks it ignoring direction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.discovery.model import PathStep, Relationship


class RelationshipGraph:
    """Directed multigraph of table relationships."""

    def __init__(self, tables: Iterable[str], relationships: Iterable[Relationship]):
        self.tables: List[str] = sorted(tables)
        self.relationships: List[Relationship] = list(relationships)
        self._out: Dict[str, List[Relationship]] = defaultdict(list)
        self._in: Dict[str, List[Relationship]] = defaultdict(list)
        self._neighbors: Dict[str, List[PathStep]] = {}
        known = set(self.tables)
        for rel in self.relationships:
            if rel.source.table not in known or rel.target.table not in known:
                raise ValueError(
                    f"relationship {rel.source.qualified} -> {rel.target.qualified} "
                    "references unknown table"
                )
            self._out[rel.source.table].append(rel)
            self._in[rel.target.table].append(rel)

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------
    def in_degree(self, table: str) -> int:
        """Number of incoming FK edges (self-loops excluded)."""
        return sum(1 for rel in self._in[table] if rel.source.table != table)

    def in_degrees(self) -> Dict[str, int]:
        return {table: self.in_degree(table) for table in self.tables}

    def mean_in_degree(self) -> float:
        if not self.tables:
            return 0.0
        return sum(self.in_degrees().values()) / len(self.tables)

    # ------------------------------------------------------------------
    # undirected traversal
    # ------------------------------------------------------------------
    def neighbors(self, table: str) -> List[PathStep]:
        """All hops leaving ``table``, in either edge direction. Do not mutate."""
        steps = self._neighbors.get(table)
        if steps is None:
            steps = [PathStep(rel, forward=True) for rel in self._out.get(table, ())]
            steps.extend(PathStep(rel, forward=False) for rel in self._in.get(table, ()))
            self._neighbors[table] = steps
        return steps

    def paths_from(
        self, start: str, max_length: int, max_paths: int
    ) -> Dict[str, List[Tuple[PathStep, ...]]]:
        """The first ``max_paths`` simple paths from ``start`` to every
        other table.

        One breadth-first walk over the simple paths leaving ``start``, up
        to ``max_length`` hops: shortest paths first, and among paths of
        one length the order the hops are generated in (Section 4.3: "If
        multiple paths exist, all are stored" — bounded here to keep
        worst-case metadata small). The walk stops once every table holds
        ``max_paths`` paths. A simple path ending at a table never passed
        through it, so each table gets exactly what a walk searching for
        it alone would find.
        """
        found: Dict[str, List[Tuple[PathStep, ...]]] = {
            table: [] for table in self.tables if table != start
        }
        open_goals = len(found)
        frontier: List[Tuple[str, Tuple[PathStep, ...], FrozenSet[str]]] = [
            (start, (), frozenset((start,)))
        ]
        length = 0
        while frontier and open_goals and length < max_length and max_paths > 0:
            length += 1
            next_frontier = []
            for table, path, visited in frontier:
                for step in self.neighbors(table):
                    nxt = step.to_table
                    if nxt in visited:
                        continue
                    new_path = path + (step,)
                    paths = found[nxt]
                    if len(paths) < max_paths:
                        paths.append(new_path)
                        if len(paths) == max_paths:
                            open_goals -= 1
                            if not open_goals:
                                return found
                    next_frontier.append((nxt, new_path, visited | {nxt}))
            frontier = next_frontier
        return found

    def all_paths(
        self, start: str, goal: str, max_length: int, max_paths: int
    ) -> List[Tuple[PathStep, ...]]:
        """All simple paths start -> goal up to ``max_length`` hops: the
        one-goal view of :meth:`paths_from`."""
        if start == goal:
            return [()]
        return self.paths_from(start, max_length, max_paths).get(goal, [])
