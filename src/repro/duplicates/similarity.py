"""Domain-independent string similarity measures.

The duplicate-detection toolbox of Section 4.5 ("usually based on edit
distance") plus the token-level measures needed for semi-structured text:
Damerau-Levenshtein, Jaro, Jaro-Winkler, n-gram Jaccard, token cosine,
and Monge-Elkan hybrid matching. Plain Levenshtein lives one layer down
in :mod:`repro.linking.editdistance` (schema matching needs it too). All
similarities are normalized to [0, 1] with 1 meaning identical.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, List, Sequence, Tuple

__all__ = [
    "TokenCounts",
    "counts_cosine",
    "damerau_levenshtein",
    "jaccard_ngrams",
    "jaro",
    "jaro_winkler",
    "monge_elkan",
    "token_cosine",
    "token_counts",
]


def damerau_levenshtein(a: str, b: str) -> int:
    """Edit distance with adjacent transpositions (restricted Damerau)."""
    if a == b:
        return 0
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    rows: List[List[int]] = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        rows[i][0] = i
    for j in range(m + 1):
        rows[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                best = min(best, rows[i - 2][j - 2] + 1)
            rows[i][j] = best
    return rows[n][m]


def jaro(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matches_a = [False] * len(a)
    matches_b = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not matches_b[j] and b[j] == ca:
                matches_a[i] = True
                matches_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(matches_a):
        if not matched:
            continue
        while not matches_b[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro with common-prefix boost (max prefix 4, standard scaling)."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a[:4], b[:4]):
        if ca != cb:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def _ngrams(text: str, n: int) -> Counter:
    padded = f"{'#' * (n - 1)}{text}{'#' * (n - 1)}" if n > 1 else text
    return Counter(padded[i : i + n] for i in range(max(len(padded) - n + 1, 0)))


def jaccard_ngrams(a: str, b: str, n: int = 3) -> float:
    """Jaccard overlap of character n-gram sets."""
    grams_a = set(_ngrams(a, n))
    grams_b = set(_ngrams(b, n))
    if not grams_a and not grams_b:
        return 1.0
    if not grams_a or not grams_b:
        return 0.0
    return len(grams_a & grams_b) / len(grams_a | grams_b)


TokenCounts = Tuple[Counter, float]


def token_counts(text: str) -> TokenCounts:
    """A value's lowercased whitespace-token counts and their L2 norm.

    The operand of :func:`counts_cosine`; a caller comparing one value
    against many builds this once for it.
    """
    counts = Counter(text.lower().split())
    return counts, math.sqrt(sum(c * c for c in counts.values()))


def counts_cosine(a: TokenCounts, b: TokenCounts) -> float:
    """Cosine of two :func:`token_counts` vectors."""
    counts_a, norm_a = a
    counts_b, norm_b = b
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    # repro-lint: allow[unordered-iteration] a sum of integer products is exact, so order cannot change it
    dot = sum(counts_a[t] * counts_b[t] for t in counts_a.keys() & counts_b.keys())
    norm = norm_a * norm_b
    return dot / norm if norm else 0.0


def token_cosine(a: str, b: str) -> float:
    """Cosine over whitespace-token count vectors."""
    return counts_cosine(token_counts(a), token_counts(b))


def monge_elkan(
    a: str, b: str, base: Callable[[str, str], float] = jaro_winkler
) -> float:
    """Monge-Elkan: average best-match similarity of a's tokens against b's.

    Asymmetric by definition; callers wanting symmetry take the max or
    mean of both directions.
    """
    tokens_a = a.lower().split()
    tokens_b = b.lower().split()
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(base(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)
