"""Golden output: fixed E6 universes ingested both ways, pinned by digest.

``test_incremental_vs_batch.py`` compares ``add_source`` with
``integrate_many`` inside one tree, so a scoring change that moves both
paths alike passes it. This test pins what both paths produce — the
canonical link web plus the duplicate sets of a few seeded E6 universes
(all eight sources; one with typos, which puts record pairs near the
duplicate threshold) — to a sha256 recorded before the duplicate scorer
deferred short value pairs behind a Jaro-Winkler bound. A change that
moves any link, certainty, evidence string or duplicate set fails it.
"""

import hashlib

from repro.core import Aladin, AladinConfig
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


def ingest(specs, batch):
    aladin = Aladin(AladinConfig())
    if batch:
        aladin.integrate_many(specs)
    else:
        for name, format_name, text, options in specs:
            aladin.add_source(name, format_name, text, **options)
    try:
        return web_and_duplicates(aladin)
    finally:
        aladin.close()


def test_e6_webs_and_duplicate_sets_match_the_golden_digest():
    outputs = []
    for seed, shape, typo_rate in UNIVERSES:
        specs = source_specs(seed, shape, typo_rate)
        incremental = ingest(specs, batch=False)
        assert incremental["duplicates"], f"universe {seed} flags no duplicates"
        assert ingest(specs, batch=True) == incremental
        outputs.append(incremental)
    digest = hashlib.sha256(canonical_json(outputs).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
