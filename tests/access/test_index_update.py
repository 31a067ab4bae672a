"""Unit tests for ``InvertedIndex.update_source``: re-index only what changed.

A surviving page keeps its doc id, a new page takes over a vanished
page's doc id, surplus vanished pages are dropped and surplus new pages
append in crawl order, and the result always ranks like an index built
from scratch over the new pages.
"""

from repro.access import InvertedIndex, SearchEngine
from repro.access.objects import ObjectPage


def page(source, accession, text, note=None):
    annotations = {"note": [{"text": note}]} if note else {}
    return ObjectPage(
        source=source, accession=accession,
        fields={"accession": accession, "name": text}, annotations=annotations,
    )


def built(pages):
    index = InvertedIndex()
    index.add_pages(pages)
    return index


def ranks(index, words):
    engine = SearchEngine(index)
    return [
        [(hit.source, hit.accession, hit.score, hit.matched_fields)
         for hit in engine.search(word)]
        for word in words
    ]


def documents(index):
    return [
        (source, accession, length, sorted(postings))
        for source, accession, length, _primary, postings in index.export_documents()
    ]


OLD = [
    page("a", "A1", "golgi kinase", "membrane kinase"),
    page("a", "A2", "nuclear kinase"),
    page("a", "A3", "ribosome protein"),
]
OTHER = [page("b", "B1", "kinase of the golgi"), page("b", "B2", "lysosome")]
WORDS = ["kinase", "golgi", "membrane", "nuclear", "ribosome", "protein",
         "lysosome", "cytoplasm", "glycoprotein"]


def test_unchanged_pages_do_no_work():
    index = built(OLD + OTHER)
    before = documents(index)
    delta = index.update_source("a", OLD, list(OLD))
    assert (delta.replaced, delta.added, delta.dropped) == ([], [], [])
    assert index.pages_indexed == len(OLD + OTHER)
    assert documents(index) == before


def test_changed_page_keeps_its_doc_id():
    index = built(OLD + OTHER)
    new = [OLD[0], page("a", "A2", "cytoplasm glycoprotein"), OLD[2]]
    delta = index.update_source("a", OLD, new)
    assert [(held, doc[0]) for held, doc in delta.replaced] == [("A2", "A2")]
    assert index.document(1) == ("a", "A2")
    assert index.pages_indexed == len(OLD + OTHER) + 1
    assert [p.doc_id for p in index.postings("kinase")] == [0, 0, 3]  # A1 twice
    assert [p.doc_id for p in index.postings("glycoprotein")] == [1]
    assert index.postings("nuclear") == []
    reference = built(new + OTHER)
    assert ranks(index, WORDS) == ranks(reference, WORDS)
    assert sorted(documents(index)) == sorted(documents(reference))


def assert_in_doc_id_order(index, tokens):
    for token in tokens:
        doc_ids = [p.doc_id for p in index.postings(token)]
        assert doc_ids == sorted(doc_ids)


def test_new_page_takes_a_vanished_pages_doc_id():
    index = built(OLD + OTHER)
    new = [page("a", "A0", "membrane glycoprotein"), OLD[0], OLD[2]]
    delta = index.update_source("a", OLD, new)
    assert [(held, doc[0]) for held, doc in delta.replaced] == [("A2", "A0")]
    assert (delta.added, delta.dropped) == ([], [])
    assert [index.document(i) for i in range(len(index))] == [
        ("a", "A1"), ("a", "A0"), ("a", "A3"), ("b", "B1"), ("b", "B2"),
    ]
    assert index.postings("nuclear") == []
    assert_in_doc_id_order(index, ("kinase", "golgi", "membrane", "glycoprotein"))
    reference = built(new + OTHER)
    assert ranks(index, WORDS) == ranks(reference, WORDS)
    assert sorted(documents(index)) == sorted(documents(reference))


def test_surplus_new_pages_append_and_surplus_vanished_pages_drop():
    index = built(OLD + OTHER)
    new = [OLD[0], page("a", "A4", "golgi"), page("a", "A5", "cytoplasm"),
           page("a", "A6", "membrane kinase")]
    delta = index.update_source("a", OLD, new)
    assert [(held, doc[0]) for held, doc in delta.replaced] == [
        ("A2", "A4"), ("A3", "A5"),
    ]
    assert ([doc[0] for doc in delta.added], delta.dropped) == (["A6"], [])
    assert [index.document(i) for i in range(len(index))] == [
        ("a", "A1"), ("a", "A4"), ("a", "A5"), ("b", "B1"), ("b", "B2"), ("a", "A6"),
    ]
    assert_in_doc_id_order(index, ("kinase", "golgi", "membrane", "cytoplasm"))
    reference = built(new + OTHER)
    assert ranks(index, WORDS) == ranks(reference, WORDS)

    fewer = [page("a", "A5", "cytoplasm")]
    delta = index.update_source("a", new, fewer)
    assert (delta.replaced, delta.added) == ([], [])
    assert delta.dropped == ["A1", "A4", "A6"]
    assert [index.document(i) for i in range(len(index))] == [
        ("a", "A5"), ("b", "B1"), ("b", "B2"),
    ]
    reference = built(fewer + OTHER)
    assert ranks(index, WORDS) == ranks(reference, WORDS)
    assert sorted(documents(index)) == sorted(documents(reference))


def test_remove_source_still_renumbers_densely():
    index = built(OLD + OTHER)
    assert index.remove_source("a") == 3
    assert [index.document(i) for i in range(len(index))] == [("b", "B1"), ("b", "B2")]
    assert [p.doc_id for p in index.postings("kinase")] == [0]
    assert index.remove_source("a") == 0
