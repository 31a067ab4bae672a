"""Differential conformance: N x add_source == one integrate_many.

The paper's hands-off promise only holds if incremental source addition
is not a second, subtly different integration path. This suite pins the
strongest form of that claim: building a corpus one ``add_source`` at a
time — with the search index live from the first source so every later
add exercises the *incremental* index update — produces byte-identical

* link webs (object links and attribute links, order included),
* duplicate sets (the ``duplicate``-kind links step 5 flags), and
* search postings (every document's ``(token, field, frequency)``
  triples, in doc-id order)

to one ``integrate_many`` batch over the same sources — in the
scenario's order, and in every other order of its four sources.

Both paths maintain the index through the same per-source update, so
each is also checked against an index built from scratch by one crawl
of the final web: identity-keyed postings and BM25 rankings must match.
"""

import itertools
import json
import sqlite3

import pytest

from repro.access.crawler import Crawler
from repro.access.index import InvertedIndex
from repro.access.search import SearchEngine
from repro.core import Aladin, AladinConfig
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

def scenario():
    return build_scenario(
        ScenarioConfig(
            seed=77,
            include=("swissprot", "pir", "pdb", "go"),
            universe=UniverseConfig(
                n_families=3, members_per_family=2, n_go_terms=10, seed=77
            ),
        )
    )


def source_specs(scenario):
    return [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]


def integrate_incrementally(specs=None):
    """N x add_source with the index maintained incrementally throughout."""
    aladin = Aladin(AladinConfig())
    specs = source_specs(scenario()) if specs is None else specs
    for name, format_name, text, options in specs:
        aladin.add_source(name, format_name, text, **options)
    return aladin


def integrate_batch(specs=None):
    aladin = Aladin(AladinConfig())
    aladin.integrate_many(source_specs(scenario()) if specs is None else specs)
    return aladin


def link_web(aladin):
    return (
        [
            (l.source_a, l.accession_a, l.source_b, l.accession_b,
             l.kind, l.certainty, l.evidence)
            for l in aladin.repository.object_links()
        ],
        [(l.key(), l.score, l.kind, l.encoded)
         for l in aladin.repository.attribute_links()],
    )


def duplicate_set(aladin):
    return [
        (l.source_a, l.accession_a, l.source_b, l.accession_b, l.certainty)
        for l in aladin.repository.object_links()
        if l.kind == "duplicate"
    ]


def postings(aladin):
    """Every document with its exact postings, in doc-id order.

    Both paths index each source as it is integrated, in the same order,
    so even the doc ids and each document's posting order must match.
    """
    return list(aladin._index.export_documents())


def crawl_index(aladin):
    """The index built from scratch by one crawl of the final web."""
    index = InvertedIndex()
    index.add_pages(Crawler(aladin.web).crawl(follow_links=False))
    return index


def canonical_postings(index):
    """Every document with its postings, keyed by identity.

    Doc ids are assignment order: a crawl visits sources alphabetically,
    maintenance visits them in add order. So documents are keyed by
    (source, accession) and each document's postings are canonicalized;
    every token, field, frequency and length must then match.
    """
    return sorted(
        (source, accession, length, is_primary, sorted(doc_postings))
        for source, accession, length, is_primary, doc_postings
        in index.export_documents()
    )


QUERIES = ("kinase", "protein structure", "binding domain")


def rankings(aladin):
    """BM25 scores per hit, keyed by identity."""
    return engine_rankings(aladin.search_engine())


def engine_rankings(engine):
    return {
        query: sorted(
            (h.source, h.accession, h.score, tuple(sorted(h.matched_fields)))
            for h in engine.search(query, top_k=50)
        )
        for query in QUERIES
    }


@pytest.fixture(scope="module")
def reference():
    """The batch run the incremental path must reproduce to the byte."""
    aladin = integrate_batch()
    web = link_web(aladin)
    assert web[0], "reference corpus produced no object links"
    assert duplicate_set(aladin), "reference corpus produced no duplicates"
    return web, duplicate_set(aladin), postings(aladin), rankings(aladin)


def assert_matches_crawl_build(aladin):
    """The maintained index equals one crawled from scratch."""
    rebuilt = crawl_index(aladin)
    assert canonical_postings(aladin._index) == canonical_postings(rebuilt)
    assert aladin._index.vocabulary_size() == rebuilt.vocabulary_size()
    assert rankings(aladin) == engine_rankings(SearchEngine(rebuilt))


class TestIncrementalEqualsBatch:
    def test_incremental_matches_batch_reference(self, reference):
        ref_web, ref_duplicates, ref_postings, ref_rankings = reference
        aladin = integrate_incrementally()
        assert link_web(aladin) == ref_web
        assert duplicate_set(aladin) == ref_duplicates
        assert postings(aladin) == ref_postings
        assert rankings(aladin) == ref_rankings

    def test_batch_index_matches_a_crawl_build(self):
        assert_matches_crawl_build(integrate_batch())

    def test_incremental_index_matches_a_crawl_build(self):
        assert_matches_crawl_build(integrate_incrementally())

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations(range(4))),
        ids=lambda order: "".join(map(str, order)),
    )
    def test_every_source_order(self, order, specs_by_position):
        """Link direction and doc ids depend on the add order, so each
        order is checked against the batch over that same order."""
        specs = [specs_by_position[i] for i in order]
        batch = integrate_batch(specs)
        incremental = integrate_incrementally(specs)
        assert link_web(incremental) == link_web(batch)
        assert duplicate_set(incremental) == duplicate_set(batch)
        assert postings(incremental) == postings(batch)
        assert rankings(incremental) == rankings(batch)
        assert_matches_crawl_build(incremental)


@pytest.fixture(scope="module")
def specs_by_position():
    specs = source_specs(scenario())
    assert len(specs) == 4
    return specs


class TestSessionScorerIsInvisible:
    def test_retired_scorer_key_in_persisted_config_is_ignored(
        self, reference, tmp_path
    ):
        """A snapshot whose persisted config still carries the removed
        per-pair switch opens, and its next add_source runs the one
        incremental path: the result is still the batch reference."""
        ref_web, ref_duplicates, _postings, _rankings = reference
        specs = source_specs(scenario())
        aladin = Aladin(AladinConfig())
        for name, format_name, text, options in specs[:-1]:
            aladin.add_source(name, format_name, text, **options)
        path = tmp_path / "retired_key.snapshot"
        aladin.save(path)
        aladin.close()
        conn = sqlite3.connect(path)
        (config_json,) = conn.execute(
            "SELECT value FROM manifest WHERE key = 'config'"
        ).fetchone()
        persisted = json.loads(config_json)
        persisted["incremental_shared_scorer"] = False
        conn.execute(
            "UPDATE manifest SET value = ? WHERE key = 'config'",
            (json.dumps(persisted),),
        )
        conn.commit()
        conn.close()
        warm = Aladin.open(path)
        try:
            assert not hasattr(warm.config, "incremental_shared_scorer")
            name, format_name, text, options = specs[-1]
            warm.add_source(name, format_name, text, **options)
            assert link_web(warm) == ref_web
            assert duplicate_set(warm) == ref_duplicates
        finally:
            warm.close()

    def test_session_cache_accumulates_across_adds(self):
        aladin = integrate_incrementally()
        scorer = aladin._dup_scorer
        assert scorer.exact_scores > 0
        assert len(scorer.cache) > 0
        # The session cache was actually consulted across the N adds.
        assert scorer.cache_hits > 0
