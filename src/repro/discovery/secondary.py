"""Secondary-relation discovery: connect every table to the primary.

Section 4.3: "We compute the path(s) from the primary relation to each of
the other relations of the data source using transitivity of
relationships, ignoring direction and cardinality. ... The paths are
stored in the metadata repository. ... If multiple paths exist, all are
stored. The paths may also be used to guide the construction of
structured queries."

Tables with no path are reported as unreachable — the paper expects this
never to happen for real sources ("a situation we have yet to encounter")
but the pipeline must survive it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.discovery.graph import RelationshipGraph
from repro.discovery.model import DiscoveryConfig, SecondaryPath


def connect_secondary_relations(
    graph: RelationshipGraph,
    primary_relation: str,
    config: Optional[DiscoveryConfig] = None,
) -> Tuple[Dict[str, Tuple[SecondaryPath, ...]], List[str]]:
    """Paths from the primary relation to every other table, from one
    breadth-first walk (:meth:`RelationshipGraph.paths_from`).

    Returns:
        (paths keyed by target table, list of unreachable tables).
    """
    config = config or DiscoveryConfig()
    found = graph.paths_from(
        primary_relation,
        max_length=config.max_path_length,
        max_paths=config.max_paths_per_table,
    )
    paths: Dict[str, Tuple[SecondaryPath, ...]] = {}
    unreachable: List[str] = []
    for table in graph.tables:
        if table == primary_relation:
            continue
        if not found[table]:
            unreachable.append(table)
            continue
        paths[table] = tuple(
            SecondaryPath(target_table=table, steps=p) for p in found[table]
        )
    return paths, unreachable
