"""The bit-parallel Levenshtein kernel against the textbook DP.

``levenshtein`` is the only edit-distance implementation in the package:
the scorer property suites compare ``BoundedRecordScorer`` against
``record_similarity``, and both call it, so a kernel bug would move both
sides at once and slip through. This file keeps the O(n*m) dynamic
program as an independent oracle and requires exact integer agreement:
property-based via hypothesis plus a seeded random sweep, with the bit
vectors pushed past one and two 64-bit words.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linking.editdistance import levenshtein, levenshtein_similarity


def reference(a: str, b: str) -> int:
    """Textbook Wagner-Fischer edit distance (unit costs)."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[-1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def assert_kernel_matches(a: str, b: str) -> None:
    expected = reference(a, b)
    assert levenshtein(a, b) == expected, (a, b)
    assert levenshtein(b, a) == expected, (b, a)


# Small alphabets force dense matches (the carry chain in the kernel's
# addition is what breaks first); the wide one mixes astral-plane and
# case-folding characters in.
ALPHABETS = ["ab", "acgt", "abcdefghij ", "aA İẞ𝔸😀𐍈"]


class TestEdgeCases:
    @pytest.mark.parametrize(
        "a, b",
        [
            ("", ""),
            ("", "abc"),
            ("kitten", ""),
            ("same", "same"),
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("a", "b"),
            ("a", "a" * 200),
            ("ab" * 40, "ba" * 40),
        ],
    )
    def test_known_pairs(self, a, b):
        assert_kernel_matches(a, b)

    @pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129, 200])
    def test_patterns_wider_than_a_machine_word(self, length):
        rng = random.Random(length)
        a = "".join(rng.choice("acgt") for _ in range(length))
        b = "".join(rng.choice("acgt") for _ in range(length + rng.randint(0, 30)))
        assert_kernel_matches(a, b)
        # One edit at either end of a long pattern: the top and bottom
        # bits of the vectors must both carry their delta correctly.
        assert_kernel_matches(a, "x" + a[1:])
        assert_kernel_matches(a, a[:-1] + "x")

    @pytest.mark.parametrize(
        "a, b",
        [
            ("a" * 70, "a" * 130),
            ("a" * 130, "b" * 130),
            ("a" * 65 + "b", "b" + "a" * 65),
            ("aaaa", "aaaabaaaa"),
        ],
    )
    def test_runs_of_one_repeated_character(self, a, b):
        assert_kernel_matches(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            ("😀", "😃"),
            ("𝔸𝔹ℂ", "𝔸𝔹𝔻"),
            ("protein 😀 kinase", "protein kinase"),
            ("𐍈" * 70, "𐍈" * 69 + "x"),
        ],
    )
    def test_astral_plane_characters(self, a, b):
        assert_kernel_matches(a, b)

    @pytest.mark.parametrize("text", ["İ", "ẞ", "San Marİno", "İİİ protein İ"])
    def test_case_mapped_strings(self, text):
        # 'İ' lowercases to two code points ('i' + combining dot), so the
        # scorers hand the kernel strings of a different length than the
        # raw values; 'ẞ' <-> 'ß' <-> 'SS' changes length on upper().
        lowered = text.lower()
        assert_kernel_matches(text, lowered)
        assert_kernel_matches(lowered, lowered.upper())
        assert_kernel_matches(text, "San Marino")

    def test_similarity_is_normalised_by_the_longer_string(self):
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("kitten", "sitting") == 1.0 - 3 / 7


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80), st.text(max_size=80))
    def test_arbitrary_unicode(self, a, b):
        assert_kernel_matches(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda alphabet: st.tuples(
                st.text(alphabet=alphabet, max_size=160),
                st.text(alphabet=alphabet, max_size=160),
            )
        )
    )
    def test_small_alphabets_up_to_the_clip_length(self, pair):
        assert_kernel_matches(*pair)

    def test_seeded_random_sweep(self):
        rng = random.Random(20240613)
        for _ in range(600):
            alphabet = rng.choice(ALPHABETS)
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 170)))
            if rng.random() < 0.5:
                # Near-duplicates: a few random edits of a.
                b = list(a)
                for _ in range(rng.randint(1, 6)):
                    op = rng.randrange(3)
                    position = rng.randint(0, len(b))
                    if op == 0:
                        b.insert(position, rng.choice(alphabet))
                    elif b and position < len(b):
                        if op == 1:
                            del b[position]
                        else:
                            b[position] = rng.choice(alphabet)
                b = "".join(b)
            else:
                b = "".join(rng.choices(alphabet, k=rng.randint(0, 170)))
            assert_kernel_matches(a, b)
