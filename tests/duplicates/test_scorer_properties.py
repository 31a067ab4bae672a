"""Property-based pinning of BoundedRecordScorer's exactness guarantees.

The scorer's two optimizations — best-match upper-bound pruning and the
value-pair cache — both claim to be *invisible* in the scores. These
tests throw randomized record views at the scorer (seeded: reruns are
reproducible) and assert the claims as exact float equalities, never
approximations:

* pruned scores equal the exhaustive reference scorer bit for bit;
* a warm cache (including one shared across an entire session of record
  pairs, the incremental ``add_source`` usage) never changes any result;
* an LRU-*bounded* cache (``max_entries``, the week-long-session memory
  bound) evicts entries without moving a single score or duplicate set;
* the bookkeeping counters account for exactly the work performed;
* the anchor value's token counts, built once and reused against every
  candidate, give the same cosine bit for bit as rebuilding them per
  pair, and each record view's prepared value features are built once
  and change no score;
* the threshold cut (a ``floor``) never moves a pair across the floor,
  returns the exact score for every pair that reaches it, and leaves the
  cache exact for later unfloored calls;
* a pair whose scanned bound (Jaro-Winkler bounds on short pairs,
  cosine/length bounds on long pairs) is already below the floor is cut
  before any Levenshtein or Jaro-Winkler runs;
* the short-pair bound is at least ``jaro_winkler`` on the lowercased
  strings.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.duplicates import batch, record
from repro.duplicates.batch import _CEILING, BoundedRecordScorer, jaro_winkler_bound
from repro.duplicates.record import RecordView, prepare_value, record_similarity
from repro.duplicates.similarity import (
    counts_cosine,
    jaro_winkler,
    token_cosine,
    token_counts,
)

WORDS = [
    "kinase", "binding", "protein", "serine", "threonine", "domain",
    "mitochondrion", "phosphorylation", "transcription", "membrane",
    "receptor", "homo", "sapiens", "nucleus", "pathway",
]

# Characters whose lower() changes the string length — the hostile case
# for the Levenshtein length-difference bound.
TRICKY = ["İ", "Ⅻ", "ẞ", "San Marİno", "İİİ protein İ"]


def random_value(rng):
    roll = rng.random()
    if roll < 0.3:
        # Accession/sequence-like short uppercase strings.
        return "".join(rng.choices("ABCDEFGHIKLMNPQRSTVWY0123456789", k=rng.randint(1, 24)))
    if roll < 0.35:
        return rng.choice(TRICKY)
    # Sentence-like values, many crossing the short/long split at 25.
    return " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))


def random_view(rng, max_values=7):
    return RecordView(
        source=rng.choice("st"),
        accession=f"X{rng.randint(0, 99)}",
        values=[random_value(rng) for _ in range(rng.randint(0, max_values))],
    )


def random_pairs(seed, n):
    rng = random.Random(seed)
    return [(random_view(rng), random_view(rng)) for _ in range(n)]


class TestPrunedScoresAreExact:
    def test_session_scorer_equals_reference_on_random_corpora(self):
        # One scorer across the whole stream, as the incremental path
        # shares one per maintenance session: the accumulated cache must
        # not drift any score away from the stateless reference.
        for seed in (101, 202, 303):
            scorer = BoundedRecordScorer()
            for a, b in random_pairs(seed, 50):
                assert scorer(a, b) == record_similarity(a, b)

    def test_both_argument_orders_match_the_reference(self):
        # record_similarity picks the smaller record as the pairing driver
        # and breaks the equal-size tie by argument order, so only
        # order-for-order agreement with the reference is promised — and
        # when the sizes differ, both orders must also agree with each
        # other (same driver either way).
        scorer = BoundedRecordScorer()
        for a, b in random_pairs(404, 30):
            forward, backward = scorer(a, b), scorer(b, a)
            assert forward == record_similarity(a, b)
            assert backward == record_similarity(b, a)
            if len(a.values) != len(b.values):
                assert forward == backward

    def test_values_repeated_across_records(self):
        # Heavy value repetition (the real-corpus shape the cache exploits):
        # draw values from a tiny pool so nearly every pair is a cache hit.
        rng = random.Random(505)
        pool = [random_value(rng) for _ in range(8)]
        scorer = BoundedRecordScorer()
        for _ in range(60):
            a = RecordView("s", "a", values=rng.choices(pool, k=rng.randint(1, 5)))
            b = RecordView("t", "b", values=rng.choices(pool, k=rng.randint(1, 5)))
            assert scorer(a, b) == record_similarity(a, b)
        assert scorer.cache_hits > scorer.exact_scores


class TestCacheNeverChangesResults:
    def test_warm_cache_equals_cold_scorer_pair_by_pair(self):
        pairs = random_pairs(606, 40)
        shared = BoundedRecordScorer()
        warm_first = [shared(a, b) for a, b in pairs]
        warm_second = [shared(a, b) for a, b in pairs]  # fully warmed rerun
        cold = [BoundedRecordScorer()(a, b) for a, b in pairs]
        assert warm_first == warm_second == cold

    def test_scoring_order_does_not_matter(self):
        pairs = random_pairs(707, 40)
        forward = BoundedRecordScorer()
        backward = BoundedRecordScorer()
        forward_scores = [forward(a, b) for a, b in pairs]
        backward_scores = [backward(a, b) for a, b in reversed(pairs)]
        assert forward_scores == list(reversed(backward_scores))

    def test_prewarmed_cache_is_read_only_semantics(self):
        # Scoring through a cache warmed by *other* pairs must equal the
        # reference too — entries are keyed purely by value pair.
        warmup = random_pairs(808, 30)
        probes = random_pairs(809, 30)
        scorer = BoundedRecordScorer()
        for a, b in warmup:
            scorer(a, b)
        for a, b in probes:
            assert scorer(a, b) == record_similarity(a, b)


class TestBoundedCacheIsInvisible:
    def test_tiny_lru_cache_equals_reference_bit_for_bit(self):
        # A cache squeezed far below the corpus's distinct-pair count
        # evicts constantly; every score must still match the stateless
        # reference exactly — eviction may only cost re-computation.
        for seed in (111, 222):
            scorer = BoundedRecordScorer(max_entries=8)
            for a, b in random_pairs(seed, 50):
                assert scorer(a, b) == record_similarity(a, b)
            assert scorer.evictions > 0, "the bound never fired"
            assert len(scorer.cache) <= 8

    def test_bounded_equals_unbounded_score_stream(self):
        pairs = random_pairs(333, 60)
        bounded = BoundedRecordScorer(max_entries=16)
        unbounded = BoundedRecordScorer()
        assert [bounded(a, b) for a, b in pairs] == [
            unbounded(a, b) for a, b in pairs
        ]

    def test_eviction_is_lru_not_fifo(self):
        # A hit must refresh recency: pairs re-scored every round survive
        # a bound sized to hold them, so the steady-state working set
        # stays cached while one-off pairs cycle through the rest.
        rng = random.Random(444)
        hot = RecordView("s", "hot", values=["kinase binding domain"])
        probe = RecordView("t", "probe", values=["kinase binding domains"])
        scorer = BoundedRecordScorer(max_entries=4)
        scorer(hot, probe)
        for index in range(20):
            filler = RecordView("t", f"f{index}", values=[random_value(rng)])
            scorer(hot, filler)
            hits_before = scorer.cache_hits
            scorer(hot, probe)  # the hot pair must still be cached
            assert scorer.cache_hits == hits_before + 1

    def test_zero_and_none_leave_the_cache_unbounded(self):
        for max_entries in (0, None):
            scorer = BoundedRecordScorer(max_entries=max_entries)
            for a, b in random_pairs(555, 30):
                scorer(a, b)
            assert scorer.evictions == 0
            assert scorer.max_entries == 0

    def test_bounded_session_scorer_pins_duplicate_sets(self):
        """End to end: a maintenance session whose scorer cache is
        LRU-bounded must flag byte-identical duplicate sets to the
        unbounded session (ROADMAP's memory-bound open item)."""
        from repro.core import Aladin, AladinConfig
        from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

        scenario = build_scenario(
            ScenarioConfig(
                seed=37,
                include=("swissprot", "pir", "pdb"),
                universe=UniverseConfig(
                    n_families=3, members_per_family=2, seed=37
                ),
            )
        )

        def duplicate_set(cache_entries):
            config = AladinConfig()
            config.scorer_cache_entries = cache_entries
            aladin = Aladin(config)
            for source in scenario.sources:
                aladin.add_source(
                    source.name,
                    source.facts.format_name,
                    source.text,
                    **source.facts.import_options,
                )
            links = sorted(
                (
                    link.certainty,
                    *sorted(
                        [
                            (link.source_a, link.accession_a),
                            (link.source_b, link.accession_b),
                        ]
                    ),
                )
                for link in aladin.repository.object_links(kind="duplicate")
            )
            return links, aladin._dup_scorer

        # The bound is host memory policy: it must not ride a snapshot
        # into every process that opens it (a saved ablation run with
        # the bound disabled would otherwise re-unbound production).
        from repro.core.config import config_from_dict, config_to_dict

        disabled = AladinConfig()
        disabled.scorer_cache_entries = 0
        restored = config_from_dict(config_to_dict(disabled))
        assert restored.scorer_cache_entries == AladinConfig().scorer_cache_entries

        bounded_links, bounded_scorer = duplicate_set(32)
        unbounded_links, unbounded_scorer = duplicate_set(0)
        assert bounded_links, "the corpus must actually produce duplicates"
        assert bounded_links == unbounded_links
        assert bounded_scorer.evictions > 0, (
            "the bound must actually constrain this corpus"
        )
        assert len(bounded_scorer.cache) <= 32
        assert unbounded_scorer.evictions == 0


class TestCounterAccounting:
    def test_every_candidate_is_scored_pruned_or_cached(self):
        scorer = BoundedRecordScorer()
        candidates = 0
        pairs = random_pairs(909, 40)
        for a, b in pairs + pairs:  # second pass guarantees cache traffic
            if not a.values or not b.values:
                continue
            smaller, larger = (a, b) if len(a.values) <= len(b.values) else (b, a)
            candidates += len(smaller.values) * len(larger.values)
            scorer(a, b)
        assert scorer.exact_scores + scorer.pruned + scorer.cache_hits == candidates
        assert scorer.pruned > 0  # the bound actually fired on this corpus
        assert scorer.cache_hits > 0
        # Every exact computation lands in the cache (symmetric pairs
        # collapse onto one sorted key, so the cache can only be smaller).
        assert 0 < len(scorer.cache) <= scorer.exact_scores


class TestHoistedTokenCountsAreExact:
    @staticmethod
    def per_pair_cosine(a, b):
        # The cosine as written before the anchor's counts were hoisted:
        # both count vectors and both norms rebuilt for every pair.
        counts_a = Counter(a.lower().split())
        counts_b = Counter(b.lower().split())
        if not counts_a and not counts_b:
            return 1.0
        if not counts_a or not counts_b:
            return 0.0
        dot = sum(counts_a[t] * counts_b[t] for t in counts_a.keys() & counts_b.keys())
        norm = math.sqrt(sum(c * c for c in counts_a.values())) * math.sqrt(
            sum(c * c for c in counts_b.values())
        )
        return dot / norm if norm else 0.0

    def test_one_anchor_against_many_candidates(self):
        rng = random.Random(1212)
        values = [random_value(rng) for _ in range(60)] + TRICKY + ["", "   "]
        for anchor in values:
            anchor_counts = token_counts(anchor)
            for other in values:
                expected = self.per_pair_cosine(anchor, other)
                assert counts_cosine(anchor_counts, token_counts(other)) == expected
                assert token_cosine(anchor, other) == expected


    def test_prepared_features_are_built_once_per_view_and_change_no_score(
        self, monkeypatch
    ):
        # Each view prepares its values when first scored and keeps them:
        # views warmed by every earlier pair must give the reference's
        # scores, with and without a floor, and no value is prepared twice.
        built = []
        original = record.prepare_value

        def counting(text):
            built.append(text)
            return original(text)

        monkeypatch.setattr(record, "prepare_value", counting)
        pairs = random_pairs(1313, 60)
        scorer = BoundedRecordScorer()
        for floor in (None, 0.75):
            for a, b in pairs:
                score = scorer(a, b, floor)
                reference = record_similarity(a, b)
                if floor is None or reference >= floor:
                    assert score.hex() == reference.hex()
                else:
                    assert reference <= score < floor
        prepared = [v for pair in pairs for v in pair if v._prepared is not None]
        assert prepared
        assert len(built) == sum(len(v.values) for v in prepared)
        for view in prepared:
            assert view.prepared() is view.prepared()
            for value, features in zip(view.values, view.prepared()):
                assert features.text == value
                assert features.lower == value.lower()
                assert features.counts == token_counts(value)
                short = len(value) <= 25
                assert features.bag == (Counter(value.lower()) if short else None)


def floors_for(reference, rng):
    return [
        0.0,
        0.75,
        1.0,
        reference,
        math.nextafter(reference, -math.inf),
        math.nextafter(reference, math.inf),
        rng.random(),
        rng.uniform(0.5, 1.0),
    ]


class TestThresholdCutIsExact:
    def test_floor_never_moves_a_pair_across_it(self):
        # One session scorer for the whole stream, as the add_source path
        # runs it; TRICKY values make the length-changing lowercase case.
        rng = random.Random(1313)
        scorer = BoundedRecordScorer()
        for seed in (131, 262, 393):
            for a, b in random_pairs(seed, 60):
                reference = record_similarity(a, b)
                for floor in floors_for(reference, rng):
                    score = scorer(a, b, floor)
                    assert (score >= floor) == (reference >= floor)
                    if reference >= floor:
                        assert score.hex() == reference.hex()
        assert scorer.early_exits > 0, "the cut never fired"

    def test_floored_calls_keep_unfloored_results_exact(self):
        rng = random.Random(1414)
        scorer = BoundedRecordScorer()
        for a, b in random_pairs(1415, 80):
            scorer(a, b, rng.choice([0.75, rng.random()]))
            assert scorer(a, b).hex() == record_similarity(a, b).hex()
            scorer(b, a, 0.75)
            assert scorer(b, a).hex() == record_similarity(b, a).hex()
        assert scorer.early_exits > 0

    def test_cut_stops_after_the_heaviest_value(self, monkeypatch):
        # The heavy value matches nothing; its scan alone (cosine and
        # length bounds, no edit distance) puts the record bound far
        # below the floor, so the pair is cut before any Levenshtein runs
        # and the light value is never scanned.
        heavy = "mitochondrion phosphorylation transcription membrane"
        light = "kinase"
        a = RecordView("s", "a", values=[light, heavy])
        b = RecordView("t", "b", values=["QWERTYQWERTYQWERTYQWERTYQWERTY", "kinase"])
        levenshtein_calls = count_levenshtein(monkeypatch)
        scorer = BoundedRecordScorer()
        score = scorer(a, b, 0.75)
        assert score < 0.75 and record_similarity(a, b) < 0.75
        assert scorer.early_exits == 1
        assert levenshtein_calls == []
        assert not any(light in key for key in scorer.cache)

    def test_a_bound_equal_to_the_floor_keeps_scoring(self):
        # Floor = the exact bound the scorer holds at its first check:
        # the one value scanned, its slot the top deferred bound. The
        # exit test is strict, so the pair is resolved to the end and
        # comes back exact (and below the floor).
        heavy = "serine threonine kinase binding domain protein"
        a = RecordView("s", "a", values=[heavy])
        b = RecordView("t", "b", values=["threonine kinase binding protein domain", "kinese"])
        _lower, best, top, _deferred = BoundedRecordScorer()._scan(
            a.prepared()[0], b.prepared()
        )
        slot = max(best, top)
        weight = float(len(heavy))
        floor = (0.0 + slot * weight) / (0.0 + weight)
        reference = record_similarity(a, b)
        assert reference < floor
        scorer = BoundedRecordScorer()
        assert scorer(a, b, floor).hex() == reference.hex()
        assert scorer.early_exits == 0


def count_calls(monkeypatch, name):
    """Record every call the scorer makes to ``batch.<name>``, from now on."""
    calls = []
    original = getattr(batch, name)

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(batch, name, counting)
    return calls


def count_levenshtein(monkeypatch):
    return count_calls(monkeypatch, "levenshtein_similarity")


def scanned_bound(a, b):
    """The record bound once every value is scanned, from first
    principles: per value, the largest of its short pairs' Jaro-Winkler
    bounds and its long pairs' cosine/length bounds, averaged as
    ``record_similarity`` averages (same float operations)."""
    smaller, larger = (a, b) if len(a.values) <= len(b.values) else (b, a)
    total_weight = total_score = 0.0
    for value in smaller.values:
        best = 0.0
        for other in larger.values:
            if len(value) <= 25 and len(other) <= 25:
                score = jaro_winkler_bound(prepare_value(value), prepare_value(other))
            else:
                longest = max(len(value.lower()), len(other.lower()))
                score = 0.5 * token_cosine(value, other) + 0.5 * (
                    1.0 - abs(len(value.lower()) - len(other.lower())) / longest
                )
            best = max(best, score)
        weight = float(len(value))
        total_weight += weight
        total_score += best * weight
    return total_score / total_weight


VALUES = st.one_of(
    st.lists(st.sampled_from(WORDS + TRICKY), min_size=1, max_size=10).map(" ".join),
    st.text(alphabet="ABCDEFGHIKLMNPQRSTVWY0123456789", min_size=1, max_size=40),
)
RECORDS = st.lists(VALUES, min_size=1, max_size=6)


class TestScanCutsBeforeLevenshtein:
    @settings(max_examples=200, deadline=None)
    @given(RECORDS, RECORDS, st.floats(min_value=0.0, max_value=1.0))
    def test_a_scanned_bound_below_the_floor_runs_no_levenshtein(
        self, values_a, values_b, above
    ):
        a = RecordView("s", "a", values=values_a)
        b = RecordView("t", "b", values=values_b)
        bound = scanned_bound(a, b)
        floor = math.nextafter(bound, math.inf) + above * max(0.0, 1.0 - bound)
        with pytest.MonkeyPatch.context() as monkeypatch:
            levenshtein_calls = count_levenshtein(monkeypatch)
            jaro_winkler_calls = count_calls(monkeypatch, "jaro_winkler")
            scorer = BoundedRecordScorer()
            score = scorer(a, b, floor)
        assert levenshtein_calls == []
        assert jaro_winkler_calls == []
        assert scorer.early_exits == 1
        assert record_similarity(a, b) <= score < floor

    def test_e6_universe_runs_levenshtein_only_for_scan_survivors(self, monkeypatch):
        """On a seeded E6 universe, every floored record pair that runs
        Levenshtein or Jaro-Winkler has a scanned bound at or above its
        floor; the
        session cache only lowers the live bound, so this is the
        weakest claim the scan guarantees. Every pair still lands on
        the floor's correct side."""
        from repro.core import Aladin, AladinConfig
        from repro.synth import ScenarioConfig, UniverseConfig, build_scenario

        scenario = build_scenario(
            ScenarioConfig(
                seed=450,
                universe=UniverseConfig(
                    n_families=2, members_per_family=2, n_go_terms=4,
                    n_diseases=2, n_interactions=2, seed=450,
                ),
            )
        )
        levenshtein_calls = count_levenshtein(monkeypatch)
        jaro_winkler_calls = count_calls(monkeypatch, "jaro_winkler")
        # (a, b, floor, score, Levenshtein and Jaro-Winkler calls) per
        # floored pair
        scored = []
        original = BoundedRecordScorer.__call__

        def recording(self, a, b, floor=None):
            before = len(levenshtein_calls) + len(jaro_winkler_calls)
            score = original(self, a, b, floor)
            if floor is not None:
                runs = len(levenshtein_calls) + len(jaro_winkler_calls) - before
                scored.append((a, b, floor, score, runs))
            return score

        monkeypatch.setattr(BoundedRecordScorer, "__call__", recording)
        aladin = Aladin(AladinConfig())
        for source in scenario.sources:
            aladin.add_source(
                source.name, source.facts.format_name, source.text,
                **source.facts.import_options,
            )
        aladin.close()
        resolved = [entry for entry in scored if entry[4]]
        assert resolved, "no pair survived the scan"
        assert len(resolved) < len(scored) // 4, "the scan cut too few pairs"
        for a, b, floor, score, runs in scored:
            reference = record_similarity(a, b)
            assert (score >= floor) == (reference >= floor)
            assert score >= reference
            if runs:
                assert scanned_bound(a, b) >= floor


class TestCeilingCoversEveryBestMatch:
    def test_blend_error_bound_is_below_the_ceiling(self):
        # The module docstring proves counts_cosine < 1 + 2**-50, so the
        # long-value blend is at most 0.5*(1 + 2**-50) + 0.5; the ceiling
        # must sit above that, which rules out a ceiling of exactly 1.0.
        assert _CEILING >= 0.5 * (1.0 + 2.0 ** -50) + 0.5
        for squares in range(1, 20000):
            root = math.sqrt(squares)
            assert squares / (root * root) < 1.0 + 2.0 ** -50

    def test_long_values_against_themselves_and_near_copies(self):
        rng = random.Random(1515)
        scorer = BoundedRecordScorer()
        above_one = 0
        for _ in range(400):
            tokens = rng.choices(WORDS + TRICKY, k=rng.randint(4, 40))
            value = " ".join(tokens)
            near = [
                " ".join(tokens + [rng.choice(WORDS)]),
                " ".join(tokens[1:]),
                " ".join(reversed(tokens)),
                value.upper(),
            ]
            prepared = prepare_value(value)
            for other in [value] + near:
                best = scorer._resolve(*scorer._scan(prepared, [prepare_value(other)]))
                assert best <= _CEILING
            counts = token_counts(value)
            above_one += counts_cosine(counts, counts) > 1.0
        assert above_one, "no self-cosine rounded above 1.0 on this corpus"


# Mixed case, and characters whose lowercase changes length ('İ' -> 'i̇').
SHORT_TEXT = st.text(alphabet="abcdeABCDEİiẞⅫ -", max_size=25)


class TestJaroWinklerBoundCoversTheScore:
    @staticmethod
    def assert_covers(a, b):
        bound = jaro_winkler_bound(prepare_value(a), prepare_value(b))
        assert bound >= jaro_winkler(a.lower(), b.lower())
        assert bound < 1.0 + 2.0 ** -47  # a scanned slot stays under _CEILING
        return bound

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=0, max_value=4), SHORT_TEXT, SHORT_TEXT, SHORT_TEXT)
    @example(4, "kinase", "", "")  # equal
    @example(0, "", "", "")  # both empty
    @example(0, "", "", "abc")  # one empty
    @example(0, "", "abc", "xyz")  # disjoint
    @example(2, "İİ", "İ", "i")  # lowercase changes length
    def test_bound_is_at_least_jaro_winkler(self, prefix, stem, tail_a, tail_b):
        # A shared stem gives a common prefix of up to ``prefix`` chars.
        a = (stem[:prefix] + tail_a)[:25]
        b = (stem[:prefix] + tail_b)[:25]
        self.assert_covers(a, b)
        self.assert_covers(b, a)

    @pytest.mark.parametrize(
        "a, b",
        [
            ("kinase", "kinase"),
            ("", ""),
            ("", "abc"),
            ("abc", "xyz"),
            ("xbcdef", "ybcdef"),  # prefix 0
            ("abcdef", "axcdef"),  # prefix 1
            ("abcdef", "abxdef"),  # prefix 2
            ("abcdef", "abcxef"),  # prefix 3
            ("abcdef", "abcdxf"),  # prefix 4
            ("İstanbul", "istanbul"),
            ("İİİ", "i̇i̇i̇"),
            ("KINASE", "kinase"),
        ],
    )
    def test_fixed_cases(self, a, b):
        bound = self.assert_covers(a, b)
        if a.lower() == b.lower():
            assert bound >= 1.0
        if not set(a.lower()) & set(b.lower()):
            assert bound == jaro_winkler(a.lower(), b.lower())
