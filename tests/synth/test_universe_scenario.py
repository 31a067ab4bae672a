"""Tests for universe construction and scenario generation."""

import random

import pytest

from repro.dataimport import (
    parse_classification,
    parse_flatfile,
    parse_obo,
    parse_pdb_summaries,
    registry,
)
from repro.synth import (
    CorruptionConfig,
    ScenarioConfig,
    UniverseConfig,
    build_scenario,
    build_universe,
    corrupt_text,
)


class TestUniverse:
    def test_deterministic_for_same_seed(self):
        a = build_universe(UniverseConfig(seed=3))
        b = build_universe(UniverseConfig(seed=3))
        assert [p.sequence for p in a.proteins] == [p.sequence for p in b.proteins]
        assert [s.pdb_code for s in a.structures] == [s.pdb_code for s in b.structures]

    def test_different_seed_differs(self):
        a = build_universe(UniverseConfig(seed=3))
        b = build_universe(UniverseConfig(seed=4))
        assert [p.sequence for p in a.proteins] != [p.sequence for p in b.proteins]

    def test_family_structure(self):
        universe = build_universe(UniverseConfig(n_families=5, members_per_family=3))
        assert len(universe.proteins) == 15
        assert sum(protein.family == 0 for protein in universe.proteins) == 3

    def test_go_dag_is_acyclic_by_construction(self):
        universe = build_universe()
        for term in universe.go_terms:
            for parent in term.parents:
                assert parent < term.uid

    def test_structures_reference_existing_proteins(self):
        universe = build_universe()
        n = len(universe.proteins)
        for structure in universe.structures:
            assert 0 <= structure.protein_uid < n

    def test_interactions_are_unique_pairs(self):
        universe = build_universe()
        keys = {(i.protein_a, i.protein_b) for i in universe.interactions}
        assert len(keys) == len(universe.interactions)
        for interaction in universe.interactions:
            assert interaction.protein_a < interaction.protein_b


class TestCorruption:
    def test_zero_rate_never_changes(self):
        rng = random.Random(1)
        assert corrupt_text(rng, "hello world", 0.0) == "hello world"

    def test_rate_one_changes_most_strings(self):
        rng = random.Random(2)
        changed = sum(corrupt_text(rng, "hello world", 1.0) != "hello world" for _ in range(50))
        assert changed >= 45  # transposition of identical chars can no-op

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CorruptionConfig(text_typo_rate=2.0).validate()


class TestScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(ScenarioConfig(seed=21))

    def test_all_sources_present(self, scenario):
        assert set(scenario.source_names()) == {
            "swissprot", "pir", "pdb", "scop", "go", "taxonomy", "interactions", "omim",
        }

    def test_texts_parse_with_real_parsers(self, scenario):
        assert parse_flatfile(scenario.source("swissprot").text)
        assert parse_flatfile(scenario.source("pir").text)
        assert parse_pdb_summaries(scenario.source("pdb").text)
        assert parse_classification(scenario.source("scop").text)
        assert parse_obo(scenario.source("go").text)

    def test_sources_import_cleanly(self, scenario):
        for source in scenario.sources:
            importer = registry.create(source.format_name, source.name)
            for key, value in source.facts.import_options.items():
                setattr(importer, key, value)
            result = importer.import_text(source.text)
            assert result.database.total_rows() > 0

    def test_gold_standard_has_xrefs(self, scenario):
        assert scenario.gold.xref_links("swissprot", "pdb")
        assert scenario.gold.xref_links("swissprot", "go")
        assert scenario.gold.xref_links("pdb", "swissprot")
        assert scenario.gold.xref_links("scop", "pdb")
        assert scenario.gold.xref_links("interactions", "swissprot")

    def test_duplicates_between_protein_sources(self, scenario):
        duplicates = scenario.gold.duplicate_pairs()
        assert duplicates
        for fact in duplicates:
            assert {fact.source_a, fact.source_b} == {"pir", "swissprot"}

    def test_xref_targets_exist_in_target_source(self, scenario):
        for fact in scenario.gold.xref_links():
            target = scenario.gold.sources[fact.source_b]
            assert fact.accession_b in target.accession_to_uid

    def test_deterministic(self):
        a = build_scenario(ScenarioConfig(seed=5))
        b = build_scenario(ScenarioConfig(seed=5))
        assert a.source("swissprot").text == b.source("swissprot").text
        assert a.gold.xref_links() == b.gold.xref_links()

    def test_drop_rate_reduces_gold_links(self):
        clean = build_scenario(ScenarioConfig(seed=6))
        noisy = build_scenario(
            ScenarioConfig(seed=6, corruption=CorruptionConfig(xref_drop_rate=0.7))
        )
        assert len(noisy.gold.xref_links()) < len(clean.gold.xref_links())

    def test_subset_include(self):
        scenario = build_scenario(ScenarioConfig(seed=7, include=("swissprot", "go")))
        assert set(scenario.source_names()) == {"swissprot", "go"}
        # No attribute truth for absent targets.
        for fact in scenario.gold.attribute_links():
            assert fact.source_b in ("swissprot", "go")

    def test_omim_numeric_mode(self):
        scenario = build_scenario(ScenarioConfig(seed=8, omim_numeric_accessions=True))
        facts = scenario.gold.sources["omim"]
        for accession in facts.accession_to_uid:
            assert accession.isdigit()

    def test_attribute_truth_recorded(self, scenario):
        attrs = {
            (f.source_a, f.attribute_a, f.source_b, f.attribute_b)
            for f in scenario.gold.attribute_links()
        }
        assert ("swissprot", "dbxref.accession", "pdb", "structure.pdb_code") in attrs
        assert ("pdb", "struct_ref.db_accession", "swissprot", "entry.accession") in attrs
        assert ("interactions", "participant.ref", "swissprot", "entry.accession") in attrs
