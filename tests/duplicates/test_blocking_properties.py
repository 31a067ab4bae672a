"""n-gram blocking as an index join equals the per-record formulation.

``candidate_pairs_ngram`` and the detector both block by joining two
gram indexes (:func:`~repro.duplicates.blocking.gram_index`, then
:func:`~repro.duplicates.blocking.join_gram_indexes`). The reference
below is the per-record formulation the join replaced: each record of A
probes B's index with its own gram set. The two must yield the same
sorted pair list for any records, gram size and frequency cap.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.duplicates import DuplicateConfig, DuplicateDetector, RecordView
from repro.duplicates.blocking import (
    candidate_pairs_ngram,
    gram_index,
    join_gram_indexes,
)
from repro.duplicates.detector import SourceFeatures


def reference_pairs(records_a, records_b, n, max_gram_frequency):
    def record_grams(record):
        grams = set()
        for value in record.values:
            lowered = value.lower()
            for i in range(max(len(lowered) - n + 1, 0)):
                grams.add(lowered[i : i + n])
        return grams

    grams_b = defaultdict(list)
    for j, record in enumerate(records_b):
        for gram in record_grams(record):
            grams_b[gram].append(j)
    pairs = set()
    for i, record in enumerate(records_a):
        for gram in record_grams(record):
            hits = grams_b.get(gram)
            if hits is None or len(hits) > max_gram_frequency:
                continue
            for j in hits:
                pairs.add((i, j))
    return sorted(pairs)


# A small alphabet so grams collide often; "İ" lengthens when lowered.
values = st.text(alphabet="abAB İ", max_size=8)
records = st.lists(
    st.builds(RecordView, st.just("s"), st.just("x"), st.lists(values, max_size=4)),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(a=records, b=records, n=st.integers(1, 10), cap=st.integers(0, 8))
def test_join_equals_per_record_reference(a, b, n, cap):
    expected = reference_pairs(a, b, n, cap)
    assert candidate_pairs_ngram(a, b, n=n, max_gram_frequency=cap) == expected
    assert join_gram_indexes(gram_index(a, n), gram_index(b, n), cap) == expected


@settings(max_examples=200, deadline=None)
@given(a=records, b=records, n=st.integers(1, 4), data=st.data())
def test_cap_at_exactly_a_grams_hit_count(a, b, n, data):
    # A gram held by exactly ``cap`` records of B still blocks; one more
    # record and it is dropped.
    index_b = gram_index(b, n)
    counts = sorted({len(hits) for hits in index_b.values()}) or [0]
    cap = data.draw(st.sampled_from(counts))
    for bound in (0, 1, cap, cap - 1, cap + 1):
        assert candidate_pairs_ngram(a, b, n=n, max_gram_frequency=bound) == (
            reference_pairs(a, b, n, bound)
        )


def test_gram_index_positions_ascend_once_each():
    rows = [
        RecordView("s", "1", ["abab", "abab"]),
        RecordView("s", "2", ["xyz"]),
        RecordView("s", "3", ["BABA"]),
    ]
    assert gram_index(rows, 2) == {
        "ab": [0, 2],
        "ba": [0, 2],
        "xy": [1],
        "yz": [1],
    }


def test_n_longer_than_every_value_blocks_nothing():
    a = [RecordView("s", "1", ["abc"])]
    b = [RecordView("t", "1", ["abc"])]
    assert gram_index(a, 4) == {}
    assert candidate_pairs_ngram(a, b, n=4, max_gram_frequency=5) == []
    assert candidate_pairs_ngram(a, b, n=3, max_gram_frequency=5) == [(0, 0)]


def test_cap_zero_blocks_nothing_and_cap_one_keeps_unique_grams():
    a = [RecordView("s", "1", ["abcd"])]
    b = [RecordView("t", "1", ["abcd"]), RecordView("t", "2", ["abcx"])]
    assert candidate_pairs_ngram(a, b, n=3, max_gram_frequency=0) == []
    # "abc" is in both B records, "bcd" only in the first.
    assert candidate_pairs_ngram(a, b, n=3, max_gram_frequency=1) == [(0, 0)]
    assert candidate_pairs_ngram(a, b, n=3, max_gram_frequency=2) == [(0, 0), (0, 1)]


@settings(max_examples=100, deadline=None)
@given(a=records, b=records)
def test_detector_features_block_like_candidate_pairs_ngram(a, b):
    config = DuplicateConfig(ngram_size=2, max_gram_frequency=3)
    detector = DuplicateDetector(config)
    pairs = detector._blocked_pairs(SourceFeatures(a), SourceFeatures(b))
    assert pairs == candidate_pairs_ngram(a, b, n=2, max_gram_frequency=3)
