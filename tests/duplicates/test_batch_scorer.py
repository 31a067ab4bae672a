"""BoundedRecordScorer must be a drop-in for record_similarity — exactly."""

import random

import pytest

from repro.duplicates.batch import BoundedRecordScorer
from repro.duplicates.record import RecordView, record_similarity


def view(*values):
    return RecordView(source="s", accession="x", values=list(values))


WORDS = [
    "kinase", "binding", "protein", "serine", "threonine", "domain",
    "mitochondrion", "phosphorylation", "transcription", "membrane",
]


def random_value(rng):
    if rng.random() < 0.4:
        return "".join(rng.choices("ABCDEFGHIKLMNPQRSTVWY", k=rng.randint(1, 20)))
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))


class TestExactEquivalence:
    def test_randomized_records_match_reference(self):
        rng = random.Random(4451)
        scorer = BoundedRecordScorer()  # one shared cache across all pairs
        for _ in range(60):
            a = view(*(random_value(rng) for _ in range(rng.randint(0, 6))))
            b = view(*(random_value(rng) for _ in range(rng.randint(0, 6))))
            assert scorer(a, b) == record_similarity(a, b)

    def test_lowercase_length_changing_characters(self):
        # 'İ'.lower() is two characters, so the Levenshtein length-diff
        # bound must be computed over the lowercased strings — computed
        # over the raw lengths it would wrongly prune the true best match.
        value = "İ" * 30
        decoy = value[:-1] + "Q"
        exact_lower = value.lower()
        a = view(value)
        b = view(decoy, exact_lower)
        assert BoundedRecordScorer()(a, b) == record_similarity(a, b)

    def test_empty_and_one_sided_records(self):
        scorer = BoundedRecordScorer()
        assert scorer(view(), view()) == record_similarity(view(), view()) == 1.0
        assert scorer(view("abc"), view()) == 0.0
        assert scorer(view(), view("abc")) == 0.0

    def test_cache_is_shared_and_hit(self):
        scorer = BoundedRecordScorer()
        a = view("mitochondrial serine kinase with a long description value")
        b = view("mitochondrial serine kinase with a long description value!")
        first = scorer(a, b)
        computed = scorer.exact_scores
        assert scorer(a, b) == first
        assert scorer.exact_scores == computed  # second pass fully cached
        assert scorer.cache_hits > 0


class TestRepeatedLongValues:
    """A long value repeated in a record is one value pair: one
    Levenshtein run answers every occurrence, on every scoring path."""

    ANCHOR = "mitochondrial serine kinase with a long description value"
    # Same length as the anchor, one substitution: the length-difference
    # bound is strictly above the real score, so a second deferred copy
    # would survive the resolve loop's bound test and run again.
    REPEATED = "mitochondrial serine kinase with a long description valuz"
    OTHER = "predicted membrane transport protein of unknown function"

    @pytest.fixture
    def levenshtein_calls(self, monkeypatch):
        import repro.duplicates.batch as batch

        calls = []
        real = batch.levenshtein_similarity

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(batch, "levenshtein_similarity", counting)
        return calls

    @pytest.mark.parametrize("floor", [None, 0.0, 0.5])
    def test_one_levenshtein_per_distinct_pair(self, levenshtein_calls, floor):
        a = view(self.ANCHOR)
        b = view(self.REPEATED, self.OTHER, self.REPEATED)
        scorer = BoundedRecordScorer()
        score = scorer(a, b, floor=floor)
        assert score.hex() == record_similarity(a, b).hex()
        assert (self.ANCHOR.lower(), self.REPEATED.lower()) in levenshtein_calls
        assert len(levenshtein_calls) == len(set(levenshtein_calls))
        # Every candidate occurrence is scored, pruned or answered without
        # a computation (a cache hit), exactly once.
        assert scorer.exact_scores + scorer.pruned + scorer.cache_hits == 3

    @pytest.mark.parametrize("floor", [None, 0.0, 0.9])
    def test_repeats_on_both_sides_stay_exact(self, levenshtein_calls, floor):
        a = view(self.ANCHOR, self.ANCHOR, self.OTHER)
        b = view(self.REPEATED, self.OTHER, self.REPEATED, self.ANCHOR)
        score = BoundedRecordScorer()(a, b, floor=floor)
        assert score.hex() == record_similarity(a, b).hex()
        assert len(levenshtein_calls) == len(set(levenshtein_calls))
