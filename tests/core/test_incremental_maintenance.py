"""Incremental maintenance: search index, engine registry, cached columns.

The scalability contract of Section 4.4/6.2: per-source work happens once.
Adding a source must only index the new pages, removing one must not
re-analyze the survivors, and a second link-discovery pass must be served
entirely from the ColumnStore caches.
"""

import pytest

from repro.access.crawler import Crawler
from repro.access.index import InvertedIndex
from repro.access.search import SearchEngine
from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def make_scenario(include=("swissprot", "pdb", "go")):
    return build_scenario(
        ScenarioConfig(
            seed=93,
            include=include,
            universe=UniverseConfig(
                n_families=4, members_per_family=2, n_go_terms=12, seed=93
            ),
        )
    )


def add(aladin, scenario, name):
    source = scenario.source(name)
    return aladin.add_source(
        name, source.facts.format_name, source.text, **source.facts.import_options
    )


def full_rebuild(aladin) -> InvertedIndex:
    index = InvertedIndex()
    for page in Crawler(aladin.web).crawl(follow_links=False):
        index.add_page(page)
    return index


def index_fingerprint(index: InvertedIndex):
    """Order-independent view of an index's documents and postings."""
    documents = sorted(
        (index.document(doc_id), index.doc_length(doc_id))
        for doc_id in range(len(index))
    )
    return documents, index.vocabulary_size()


class TestIncrementalSearchIndex:
    def test_add_source_extends_index_like_a_rebuild(self):
        scenario = make_scenario()
        aladin = Aladin(AladinConfig())
        add(aladin, scenario, "swissprot")
        add(aladin, scenario, "pdb")
        index = aladin._index
        add(aladin, scenario, "go")  # must extend, not invalidate
        assert aladin._index is index
        assert index_fingerprint(aladin._index) == index_fingerprint(
            full_rebuild(aladin)
        )
        # Ranked results agree with an engine over an index crawled from
        # scratch.
        fresh_engine = SearchEngine(full_rebuild(aladin))
        for protein in scenario.universe.proteins[:5]:
            query = protein.name
            got = {
                (h.source, h.accession, round(h.score, 9))
                for h in aladin.search_engine().search(query, top_k=50)
            }
            expected = {
                (h.source, h.accession, round(h.score, 9))
                for h in fresh_engine.search(query, top_k=50)
            }
            assert got == expected

    def test_remove_source_drops_its_pages_from_index(self):
        scenario = make_scenario()
        aladin = Aladin(AladinConfig())
        for name in ("swissprot", "pdb", "go"):
            add(aladin, scenario, name)
        aladin.search_engine()
        assert any(
            aladin._index.document(i)[0] == "pdb" for i in range(len(aladin._index))
        )
        aladin.remove_source("pdb")
        assert aladin._index is not None  # not thrown away
        remaining = {
            aladin._index.document(i)[0] for i in range(len(aladin._index))
        }
        assert "pdb" not in remaining
        assert remaining == {"swissprot", "go"}
        assert index_fingerprint(aladin._index) == index_fingerprint(
            full_rebuild(aladin)
        )
        for hit in aladin.search_engine().search("structure", top_k=50):
            assert hit.source != "pdb"


class TestEngineRegistry:
    def test_remove_source_does_not_reregister_survivors(self):
        scenario = make_scenario()
        aladin = Aladin(AladinConfig())
        for name in ("swissprot", "pdb", "go"):
            add(aladin, scenario, name)
        engine_before = aladin._engine
        registrations_before = aladin._engine.registrations
        aladin.remove_source("pdb")
        assert aladin._engine is engine_before  # engine survives
        assert aladin._engine.registrations == registrations_before
        assert aladin._engine.source_names() == ["go", "swissprot"]

    def test_update_source_below_threshold_refreshes_engine_stats(self):
        scenario = make_scenario(include=("swissprot", "pdb"))
        aladin = Aladin(AladinConfig())
        add(aladin, scenario, "swissprot")
        add(aladin, scenario, "pdb")
        report = aladin.update_source("swissprot", scenario.source("swissprot").text)
        assert report is None  # below threshold: swap, no re-analysis
        # The engine must describe the swapped-in database, not the old one.
        swapped = aladin.database("swissprot")
        for attr, stats in aladin._engine.statistics_for("swissprot").items():
            profile = swapped.table(attr.table).column_profile(attr.column)
            assert stats.row_count == profile.row_count
            assert stats.distinct_count == profile.distinct_count
        # The repository's cached record was refreshed as well.
        record = aladin.repository.source("swissprot")
        assert record.row_counts == {
            t: len(swapped.table(t)) for t in swapped.table_names()
        }
        assert record.profiles
        for attr, profile in record.profiles.items():
            assert profile is swapped.table(attr.table).column_profile(attr.column)


class TestColumnStoreCacheReuse:
    def test_second_discover_pass_is_all_cache_hits(self):
        scenario = make_scenario()
        aladin = Aladin(AladinConfig())
        for name in ("swissprot", "pdb", "go"):
            add(aladin, scenario, name)
        databases = [aladin.database(n) for n in aladin.source_names()]
        aladin._engine.discover_for("go")
        misses_first = sum(d.column_cache_stats()["misses"] for d in databases)
        hits_first = sum(d.column_cache_stats()["hits"] for d in databases)
        aladin._engine.discover_for("go")
        misses_second = sum(d.column_cache_stats()["misses"] for d in databases)
        hits_second = sum(d.column_cache_stats()["hits"] for d in databases)
        # Everything the channels need was materialized during (or before)
        # the first pass; the second pass recomputes nothing.
        assert misses_second == misses_first
        assert hits_second > hits_first

    def test_repository_profiles_are_the_cached_objects(self):
        scenario = make_scenario(include=("swissprot", "pdb"))
        aladin = Aladin(AladinConfig())
        add(aladin, scenario, "swissprot")
        record = aladin.repository.source("swissprot")
        database = aladin.database("swissprot")
        assert record.profiles
        for attr, profile in record.profiles.items():
            assert profile is database.table(attr.table).column_profile(attr.column)
