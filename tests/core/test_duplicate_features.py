"""Each source's duplicate features are built once per system, never stale.

``Aladin`` keeps every source's record views and n-gram index in a map
keyed weakly by the source's ``Database``: the duplicate chunks of both
integration paths read them from there, so an N-source ingestion builds
N view sets. An update swap, a removal or a re-add brings a new
``Database`` object, so later chunks see the new data, exactly as a
fresh system that integrated the new text.
"""

from collections import Counter

import pytest

from repro.core import Aladin, AladinConfig
from repro.duplicates.detector import DuplicateDetector
from repro.synth import ScenarioConfig, UniverseConfig, build_scenario


def universe():
    return build_scenario(
        ScenarioConfig(
            seed=450,
            universe=UniverseConfig(
                n_families=2, members_per_family=2, n_go_terms=4,
                n_diseases=2, n_interactions=2, seed=450,
            ),
        )
    )


def specs():
    return [
        (s.name, s.facts.format_name, s.text, dict(s.facts.import_options))
        for s in universe().sources
    ]


# A typo in a primary value of the one swissprot record that pir
# duplicates: its DE line is one of the record view's values.
ORIGINAL_DE = "DE   Map627 family member 1\n"
TYPO_DE = "DE   Map627 famly membr 1\n"


def with_typo(spec):
    name, format_name, text, options = spec
    assert text.count(ORIGINAL_DE) == 1
    return (name, format_name, text.replace(ORIGINAL_DE, TYPO_DE), options)


def add_all(aladin, source_specs):
    for name, format_name, text, options in source_specs:
        aladin.add_source(name, format_name, text, **options)
    return aladin


def duplicates_of(aladin, name):
    return [
        link
        for link in aladin.repository.object_links(kind="duplicate")
        if name in (link.source_a, link.source_b)
    ]


@pytest.fixture
def view_builds(monkeypatch):
    """Source names, one per ``build_record_views`` call."""
    built = []
    original = DuplicateDetector.build_record_views

    def counting(self, database, structure):
        built.append(structure.source_name)
        return original(self, database, structure)

    monkeypatch.setattr(DuplicateDetector, "build_record_views", counting)
    return built


def test_add_source_builds_views_once_per_source(view_builds):
    source_specs = specs()
    assert len(source_specs) == 8
    add_all(Aladin(AladinConfig()), source_specs)
    assert Counter(view_builds) == {name: 1 for name, *_ in source_specs}


def test_integrate_many_builds_views_once_per_source(view_builds):
    source_specs = specs()
    Aladin(AladinConfig()).integrate_many(source_specs)
    assert Counter(view_builds) == {name: 1 for name, *_ in source_specs}


def test_update_swap_serves_no_stale_views():
    source_specs = specs()
    others = [spec for spec in source_specs if spec[0] != "pir"]
    pir = [spec for spec in source_specs if spec[0] == "pir"]
    swissprot = next(spec for spec in source_specs if spec[0] == "swissprot")
    typo_specs = [with_typo(spec) if spec is swissprot else spec for spec in others]

    live = add_all(Aladin(AladinConfig()), others)
    assert live.update_source("swissprot", with_typo(swissprot)[2]) is None
    add_all(live, pir)
    fresh = add_all(Aladin(AladinConfig()), typo_specs + pir)
    unchanged = add_all(Aladin(AladinConfig()), others + pir)

    assert duplicates_of(live, "pir") == duplicates_of(fresh, "pir")
    # The typo moves the pir-swissprot duplicate, so stale views would show.
    assert duplicates_of(live, "pir") != duplicates_of(unchanged, "pir")


def test_re_added_source_gets_no_stale_views():
    source_specs = specs()
    others = [spec for spec in source_specs if spec[0] not in ("pir", "swissprot")]
    pir = [spec for spec in source_specs if spec[0] == "pir"]
    swissprot = next(spec for spec in source_specs if spec[0] == "swissprot")

    live = add_all(Aladin(AladinConfig()), [swissprot] + others)
    live.remove_source("swissprot")
    add_all(live, [with_typo(swissprot)] + pir)
    fresh = add_all(Aladin(AladinConfig()), others + [with_typo(swissprot)] + pir)

    assert duplicates_of(live, "pir") == duplicates_of(fresh, "pir")
    assert duplicates_of(live, "pir") != duplicates_of(
        add_all(Aladin(AladinConfig()), others + [swissprot] + pir), "pir"
    )
