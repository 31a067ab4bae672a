"""Tests for record similarity, blocking, clustering, and the detector."""

import pytest

from repro.dataimport import registry
from repro.discovery import discover_structure
from repro.duplicates import (
    Conflict,
    DuplicateConfig,
    DuplicateDetector,
    RecordView,
    UnionFind,
    candidate_pairs_by_key,
    candidate_pairs_ngram,
    cluster_pairs,
    find_conflicts,
    record_similarity,
    sorted_neighborhood_pairs,
)
from repro.duplicates.detector import SourceFeatures
from repro.linking.model import ObjectLink
from repro.synth import CorruptionConfig, ScenarioConfig, UniverseConfig, build_scenario


class TestRecordSimilarity:
    def test_identical_records(self):
        a = RecordView("s1", "A1", ["tumor antigen p53", "Homo sapiens"])
        b = RecordView("s2", "B1", ["tumor antigen p53", "Homo sapiens"])
        assert record_similarity(a, b) == pytest.approx(1.0)

    def test_typo_keeps_high_similarity(self):
        a = RecordView("s1", "A1", ["cellular tumor antigen", "Homo sapiens"])
        b = RecordView("s2", "B1", ["celular tumor antigen", "Homo sapiens"])
        assert record_similarity(a, b) > 0.85

    def test_different_objects_low(self):
        a = RecordView("s1", "A1", ["tumor suppressor kinase alpha"])
        b = RecordView("s2", "B1", ["ribosomal uptake channel beta"])
        assert record_similarity(a, b) < 0.6

    def test_field_order_irrelevant(self):
        a = RecordView("s1", "A1", ["alpha kinase", "Mus musculus"])
        b = RecordView("s2", "B1", ["Mus musculus", "alpha kinase"])
        assert record_similarity(a, b) == pytest.approx(1.0)

    def test_empty_records(self):
        assert record_similarity(RecordView("a", "x"), RecordView("b", "y")) == 1.0
        assert record_similarity(RecordView("a", "x", ["v"]), RecordView("b", "y")) == 0.0

    def test_symmetry(self):
        a = RecordView("s1", "A1", ["alpha kinase protein", "yeast"])
        b = RecordView("s2", "B1", ["alpha kinase", "Saccharomyces", "extra"])
        assert record_similarity(a, b) == pytest.approx(record_similarity(b, a))


class TestBlocking:
    def records(self):
        a = [
            RecordView("s1", "A1", ["alpha kinase"]),
            RecordView("s1", "A2", ["beta phosphatase"]),
        ]
        b = [
            RecordView("s2", "B1", ["alpha kinase"]),
            RecordView("s2", "B2", ["gamma helicase"]),
        ]
        return a, b

    def test_key_blocking(self):
        a, b = self.records()
        pairs = candidate_pairs_by_key(a, b, key=lambda r: r.values[0][:5])
        assert (0, 0) in pairs
        assert (1, 1) not in pairs

    def test_ngram_blocking_catches_typos(self):
        a = [RecordView("s1", "A1", ["cellular tumor antigen"])]
        b = [RecordView("s2", "B1", ["celular tumor antigen"])]
        assert candidate_pairs_ngram(a, b) == [(0, 0)]

    def test_ngram_blocking_skips_unrelated(self):
        a = [RecordView("s1", "A1", ["aaaaaaaa"])]
        b = [RecordView("s2", "B1", ["zzzzzzzz"])]
        assert candidate_pairs_ngram(a, b) == []

    def test_sorted_neighborhood_window(self):
        a, b = self.records()
        pairs = sorted_neighborhood_pairs(a, b, key=lambda r: r.values[0], window=2)
        assert (0, 0) in pairs


class TestClustering:
    def test_union_find_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        uf.union("x", "y")
        groups = {frozenset(g) for g in uf.groups()}
        assert frozenset({"a", "b", "c"}) in groups
        assert frozenset({"x", "y"}) in groups

    def test_cluster_pairs_transitive(self):
        clusters = cluster_pairs([("a", "b"), ("b", "c"), ("p", "q")])
        assert sorted(map(len, clusters), reverse=True) == [3, 2]

    def test_singletons_excluded(self):
        uf = UnionFind()
        uf.find("alone")
        assert cluster_pairs([]) == []


class TestConflicts:
    def test_near_miss_is_conflict(self):
        a = RecordView("s1", "A1", ["cellular tumor antigen p53"])
        b = RecordView("s2", "B1", ["celular tumor antigen p53"])
        conflicts = find_conflicts(a, b)
        assert len(conflicts) == 1
        assert conflicts[0].similarity > 0.9

    def test_exact_match_is_not_conflict(self):
        a = RecordView("s1", "A1", ["same value"])
        b = RecordView("s2", "B1", ["same value"])
        assert find_conflicts(a, b) == []

    def test_unrelated_values_not_conflict(self):
        a = RecordView("s1", "A1", ["aaaaaa"])
        b = RecordView("s2", "B1", ["zzzzzz"])
        assert find_conflicts(a, b) == []


class TestDetectorEndToEnd:
    @pytest.fixture(scope="class")
    def protein_world(self):
        scenario = build_scenario(
            ScenarioConfig(
                seed=77,
                include=("swissprot", "pir"),
                universe=UniverseConfig(n_families=8, members_per_family=3, seed=77),
                corruption=CorruptionConfig(text_typo_rate=0.3),
            )
        )
        imported = {}
        for source in scenario.sources:
            importer = registry.create(source.format_name, source.name, False)
            result = importer.import_text(source.text)
            imported[source.name] = (result.database, discover_structure(result.database))
        return scenario, imported

    def test_duplicates_found_with_good_f1(self, protein_world):
        scenario, imported = protein_world
        detector = DuplicateDetector()
        links = detector.detect(*imported["swissprot"], *imported["pir"])
        gold = {
            frozenset([(f.source_a, f.accession_a), (f.source_b, f.accession_b)])
            for f in scenario.gold.duplicate_pairs()
        }
        found = {
            frozenset([(l.source_a, l.accession_a), (l.source_b, l.accession_b)])
            for l in links
        }
        assert gold
        true_positives = len(found & gold)
        precision = true_positives / len(found) if found else 0.0
        recall = true_positives / len(gold)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert f1 >= 0.7, f"duplicate F1 too low: p={precision:.2f} r={recall:.2f}"

    def test_blocking_reduces_comparisons(self, protein_world):
        scenario, imported = protein_world
        # A tight gram-frequency cap is needed at this small scale; at
        # realistic scale common grams are rare relative to the cap.
        blocked = DuplicateDetector(DuplicateConfig(blocking="ngram", max_gram_frequency=3))
        blocked.detect(*imported["swissprot"], *imported["pir"])
        exhaustive = DuplicateDetector(DuplicateConfig(blocking="none"))
        exhaustive.detect(*imported["swissprot"], *imported["pir"])
        assert blocked.pairs_compared < exhaustive.pairs_compared

    def test_duplicates_are_flagged_not_merged(self, protein_world):
        # The databases must be untouched by detection: same row counts.
        scenario, imported = protein_world
        before = {name: db.total_rows() for name, (db, _) in imported.items()}
        DuplicateDetector().detect(*imported["swissprot"], *imported["pir"])
        after = {name: db.total_rows() for name, (db, _) in imported.items()}
        assert before == after

    @pytest.mark.parametrize("blocking", ["none", "ngram"])
    def test_threshold_cut_leaves_links_unchanged(self, protein_world, blocking):
        # The detector scores with a floor, so most pairs are cut short;
        # the links must equal those of the exhaustive reference scorer
        # on the detector's own candidate pairs, formatted the same way.
        scenario, imported = protein_world
        database_a, structure_a = imported["swissprot"]
        database_b, structure_b = imported["pir"]
        config = DuplicateConfig(blocking=blocking)
        detector = DuplicateDetector(config)
        records_a = detector.build_record_views(database_a, structure_a)
        records_b = detector.build_record_views(database_b, structure_b)
        pairs = detector._blocked_pairs(
            SourceFeatures(records_a), SourceFeatures(records_b)
        )
        expected = []
        for i, j in pairs:
            similarity = record_similarity(records_a[i], records_b[j])
            if similarity < config.similarity_threshold:
                continue
            expected.append(
                ObjectLink(
                    source_a=records_a[i].source,
                    accession_a=records_a[i].accession,
                    source_b=records_b[j].source,
                    accession_b=records_b[j].accession,
                    kind="duplicate",
                    certainty=round(
                        min(1.0, similarity * config.duplicate_certainty_scale), 4
                    ),
                    evidence=f"record similarity {similarity:.2f}",
                )
            )
        expected.sort(key=lambda l: (-l.certainty, l.accession_a, l.accession_b))

        links = detector.detect(database_a, structure_a, database_b, structure_b)
        assert expected, "the scenario must produce duplicates"
        assert links == expected
        assert detector.pairs_compared == len(pairs)
        assert detector.scorer.early_exits > 0, "the cut never fired"

    def test_unknown_blocking_rejected(self, protein_world):
        scenario, imported = protein_world
        detector = DuplicateDetector(DuplicateConfig(blocking="bogus"))
        with pytest.raises(ValueError):
            detector.detect(*imported["swissprot"], *imported["pir"])
