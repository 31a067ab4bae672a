"""Golden output: fixed E6 universes ingested both ways, pinned by digest.

``test_incremental_vs_batch.py`` compares ``add_source`` with
``integrate_many`` inside one tree, so a scoring change that moves both
paths alike passes it. This test pins what both paths produce — the
canonical link web plus the duplicate sets of a few seeded E6 universes
(all eight sources; one with typos, which puts record pairs near the
duplicate threshold) — to a sha256 recorded before the duplicate scorer
deferred short value pairs behind a Jaro-Winkler bound. A change that
moves any link, certainty, evidence string or duplicate set fails it.

A second digest pins what the object web serves from the same systems:
every crawled page (fields and annotations) and the search index's
exported documents, for both ingestion paths. It was recorded before
resident and snapshot pages became one forward walk, so a wrong join
direction, seed or row order in the walk fails it. Every page is also
held to the backward walk of ``ObjectResolver.owners_of_row``, a
different algorithm that maps each secondary row to its owners.
"""

import hashlib

from repro.access.crawler import Crawler
from repro.core import Aladin, AladinConfig
from repro.linking.resolve import ObjectResolver
from repro.persist.codec import canonical_json
from repro.synth import (
    CorruptionConfig,
    ScenarioConfig,
    UniverseConfig,
    build_scenario,
)

# (seed, (families, members per family, GO terms, diseases, interactions),
# typo rate)
UNIVERSES = [
    (450, (2, 2, 4, 2, 2), 0.0),
    (451, (2, 2, 4, 2, 2), 0.0),
    (452, (3, 2, 8, 2, 3), 0.0),
    (453, (3, 2, 8, 2, 3), 0.05),
]

GOLDEN_SHA256 = (
    "597f821d359a4eca2b32a3df079342890f38d542e26cee9828d49f78c6bc2097"
)

PAGES_SHA256 = (
    "897a1877c7d389d2154b6e0e7023d138e6a9a50212feb492c346b0f2fb808cc7"
)


def source_specs(seed, shape, typo_rate):
    families, members, go_terms, diseases, interactions = shape
    scenario = build_scenario(
        ScenarioConfig(
            seed=seed,
            universe=UniverseConfig(
                n_families=families, members_per_family=members,
                n_go_terms=go_terms, n_diseases=diseases,
                n_interactions=interactions, seed=seed,
            ),
            corruption=CorruptionConfig(text_typo_rate=typo_rate),
        )
    )
    return [
        (s.name, s.facts.format_name, s.text, s.facts.import_options)
        for s in scenario.sources
    ]


def web_and_duplicates(aladin):
    objects = [
        [l.source_a, l.accession_a, l.source_b, l.accession_b,
         l.kind, l.certainty, l.evidence]
        for l in aladin.repository.object_links()
    ]
    attributes = [
        [list(l.key()), l.score, l.kind, l.encoded]
        for l in aladin.repository.attribute_links()
    ]
    duplicates = [link for link in objects if link[4] == "duplicate"]
    return {"objects": objects, "attributes": attributes, "duplicates": duplicates}


def pages_and_documents(aladin):
    pages = [
        [page.source, page.accession, page.fields, page.annotations]
        for page in Crawler(aladin.web).crawl(follow_links=False)
    ]
    documents = [list(document) for document in aladin._index.export_documents()]
    return {"pages": pages, "documents": documents}


def ingest(specs, batch):
    aladin = Aladin(AladinConfig())
    if batch:
        aladin.integrate_many(specs)
    else:
        for name, format_name, text, options in specs:
            aladin.add_source(name, format_name, text, **options)
    try:
        return web_and_duplicates(aladin), pages_and_documents(aladin)
    finally:
        aladin.close()


def test_e6_webs_and_duplicate_sets_match_the_golden_digest():
    webs, served = [], []
    for seed, shape, typo_rate in UNIVERSES:
        specs = source_specs(seed, shape, typo_rate)
        incremental, incremental_pages = ingest(specs, batch=False)
        assert incremental["duplicates"], f"universe {seed} flags no duplicates"
        assert incremental_pages["pages"], f"universe {seed} crawls no pages"
        assert ingest(specs, batch=True) == (incremental, incremental_pages)
        webs.append(incremental)
        served.append(incremental_pages)
    digest = hashlib.sha256(canonical_json(webs).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
    pages = hashlib.sha256(canonical_json(served).encode()).hexdigest()
    assert pages == PAGES_SHA256


def owned_rows(aladin, source, accession):
    """Per secondary table, the rows whose owners include ``accession``,
    in row order: a page's annotations by the backward walk."""
    database = aladin.database(source)
    structure = aladin.repository.structure(source)
    resolver = ObjectResolver(database, structure)
    annotations = {}
    for table_name in structure.secondary_paths:
        rows = [
            dict(row) for row in database.table(table_name).rows()
            if accession in resolver.owners_of_row(table_name, row)
        ]
        if rows:
            annotations[table_name] = rows
    return annotations


def test_e6_pages_equal_the_backward_walk():
    for seed, shape, typo_rate in UNIVERSES:
        aladin = Aladin(AladinConfig())
        try:
            for name, format_name, text, options in source_specs(
                seed, shape, typo_rate
            ):
                aladin.add_source(name, format_name, text, **options)
            pages = list(Crawler(aladin.web).crawl(follow_links=False))
            assert any(page.annotations for page in pages)
            for page in pages:
                assert page.annotations == owned_rows(
                    aladin, page.source, page.accession
                ), (seed, page.identity)
        finally:
            aladin.close()
