"""Secondary paths come from one breadth-first walk from the primary.

``RelationshipGraph.paths_from`` walks the simple paths leaving the
primary relation once and fills every table's list. A per-goal search
(one BFS per table) is kept below as the reference: every table must get
exactly its paths, in its order, on random multigraphs (self-loops,
parallel edges, disconnected tables) and on the E6 universes, down to
the persisted structures and the snapshot rows.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.discovery.pipeline as pipeline
from repro.core import Aladin, AladinConfig
from repro.discovery.graph import RelationshipGraph
from repro.discovery.model import (
    AttributeRef,
    DiscoveryConfig,
    PathStep,
    Relationship,
    SecondaryPath,
)
from repro.discovery.secondary import connect_secondary_relations
from repro.persist.codec import canonical_json, structure_to_dict
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def reference_paths(graph, start, goal, max_length, max_paths):
    """The per-goal search: a BFS over simple paths that ends at ``goal``."""
    if start == goal:
        return [()]

    def neighbors(table):
        steps = [PathStep(rel, True) for rel in graph.relationships if rel.source.table == table]
        steps.extend(
            PathStep(rel, False) for rel in graph.relationships if rel.target.table == table
        )
        return steps

    results = []
    frontier = [(start, (), {start})]
    while frontier and len(results) < max_paths:
        next_frontier = []
        for table, path, visited in frontier:
            if len(path) >= max_length:
                continue
            for step in neighbors(table):
                nxt = step.to_table
                if nxt in visited:
                    continue
                new_path = path + (step,)
                if nxt == goal:
                    results.append(new_path)
                    if len(results) >= max_paths:
                        break
                else:
                    next_frontier.append((nxt, new_path, visited | {nxt}))
            if len(results) >= max_paths:
                break
        frontier = next_frontier
    return results


def reference_connect(graph, primary, config):
    paths, unreachable = {}, []
    for table in graph.tables:
        if table == primary:
            continue
        found = reference_paths(
            graph, primary, table, config.max_path_length, config.max_paths_per_table
        )
        if not found:
            unreachable.append(table)
            continue
        paths[table] = tuple(SecondaryPath(target_table=table, steps=p) for p in found)
    return paths, unreachable


@st.composite
def multigraphs(draw):
    """Up to six tables and ten edges: self-loops, parallel edges (same
    tables, same or other columns) and tables without edges all occur."""
    tables = [f"t{i}" for i in range(draw(st.integers(1, 6)))]
    edges = draw(st.lists(
        st.tuples(
            st.sampled_from(tables), st.sampled_from(tables),
            st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]),
            st.sampled_from(["1:1", "1:N"]),
        ),
        max_size=10,
    ))
    relationships = [
        Relationship(AttributeRef(src, src_col), AttributeRef(dst, dst_col), cardinality)
        for src, dst, src_col, dst_col, cardinality in edges
    ]
    return RelationshipGraph(tables, relationships), draw(st.sampled_from(tables))


class TestOneTraversal:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs(), st.integers(0, 6), st.integers(0, 5))
    def test_every_goal_gets_its_per_goal_paths(self, drawn, max_length, max_paths):
        graph, start = drawn
        found = graph.paths_from(start, max_length, max_paths)
        assert sorted(found) == sorted(t for t in graph.tables if t != start)
        for goal in graph.tables:
            expected = reference_paths(graph, start, goal, max_length, max_paths)
            assert graph.all_paths(start, goal, max_length, max_paths) == expected
            if goal != start:
                assert found[goal] == expected
        config = DiscoveryConfig(max_path_length=max_length, max_paths_per_table=max_paths)
        paths, unreachable = connect_secondary_relations(graph, start, config)
        expected_paths, expected_unreachable = reference_connect(graph, start, config)
        assert list(paths.items()) == list(expected_paths.items())
        assert unreachable == expected_unreachable

    def test_unknown_goal_and_start(self):
        rel = Relationship(AttributeRef("a", "x"), AttributeRef("b", "x"), "1:N")
        graph = RelationshipGraph(["a", "b"], [rel])
        assert graph.all_paths("a", "zz", 4, 4) == []
        assert graph.all_paths("zz", "a", 4, 4) == []
        assert graph.all_paths("a", "a", 0, 0) == [()]
        assert graph.paths_from("a", 4, 4) == {"b": [(PathStep(rel, True),)]}

    def test_walk_stops_once_every_goal_is_full(self):
        # Four parallel a-b edges: with max_paths=2 the walk is done after
        # the first two hops and never looks at b's neighbours.
        rels = [
            Relationship(AttributeRef("a", c), AttributeRef("b", c), "1:N") for c in "wxyz"
        ]
        graph = RelationshipGraph(["a", "b"], rels)
        looked = []
        neighbors = graph.neighbors

        def spy(table):
            looked.append(table)
            return neighbors(table)

        graph.neighbors = spy
        assert graph.paths_from("a", 6, 2) == {
            "b": [(PathStep(rels[0], True),), (PathStep(rels[1], True),)]
        }
        assert looked == ["a"]


# ----------------------------------------------------------------------
# the E6 universes: persisted output unchanged
# ----------------------------------------------------------------------
def e6_specs(seed):
    scenario = build_scenario(ScenarioConfig(
        seed=seed,
        universe=UniverseConfig(
            n_families=2, members_per_family=2, n_go_terms=4,
            n_diseases=2, n_interactions=2, seed=seed,
        ),
    ))
    return [
        (s.name, s.facts.format_name, s.text, dict(s.facts.import_options))
        for s in scenario.sources
    ]


def persisted(specs, path):
    """Each source's persisted structure JSON and content hash."""
    aladin = Aladin(AladinConfig())
    try:
        aladin.integrate_many(specs)
        structures = {
            name: canonical_json(structure_to_dict(aladin.repository.structure(name)))
            for name in aladin.source_names()
        }
        aladin.save(path)
    finally:
        aladin.close()
    conn = sqlite3.connect(str(path))
    try:
        rows = conn.execute(
            "SELECT name, content_hash, structure FROM sources ORDER BY name"
        ).fetchall()
    finally:
        conn.close()
    return structures, rows


@pytest.mark.parametrize("seed", [450, 451])
def test_e6_structures_and_snapshot_rows_unchanged(seed, tmp_path, monkeypatch):
    specs = e6_specs(seed)
    walked = persisted(specs, tmp_path / "walk.snapshot")
    monkeypatch.setattr(pipeline, "connect_secondary_relations", reference_connect)
    searched = persisted(specs, tmp_path / "per_goal.snapshot")
    assert walked == searched
    structures, _rows = walked
    assert any(
        '"secondary_paths"' in text and '"steps"' in text for text in structures.values()
    )
