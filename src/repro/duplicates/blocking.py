"""Blocking strategies: avoid the quadratic pair explosion.

Duplicate detection compares primary objects across sources; without
blocking the pair count is |A|·|B|. Three standard reducers:

* key blocking — exact equality of a cheap key (e.g., shared accession,
  as in COLUMBA's three PDB flavors, Section 5: "Detecting duplicate
  objects is easy in this case, because the original PDB accession number
  is available in all three representations");
* n-gram blocking — records sharing at least one rare character n-gram;
* sorted neighborhood — slide a window over the key-sorted union.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.duplicates.record import RecordView

Pair = Tuple[int, int]  # indexes into (records_a, records_b)


def candidate_pairs_by_key(
    records_a: Sequence[RecordView],
    records_b: Sequence[RecordView],
    key: Callable[[RecordView], str],
) -> List[Pair]:
    """All cross-source pairs whose blocking key matches exactly."""
    by_key: Dict[str, List[int]] = defaultdict(list)
    for j, record in enumerate(records_b):
        by_key[key(record)].append(j)
    pairs: List[Pair] = []
    for i, record in enumerate(records_a):
        for j in by_key.get(key(record), ()):
            pairs.append((i, j))
    return pairs


GramIndex = Dict[str, List[int]]  # n-gram -> ascending record positions


def _record_ngrams(record: RecordView, n: int) -> Set[str]:
    grams: Set[str] = set()
    for value in record.values:
        lowered = value.lower()
        for i in range(max(len(lowered) - n + 1, 0)):
            grams.add(lowered[i : i + n])
    return grams


def gram_index(records: Sequence[RecordView], n: int) -> GramIndex:
    """Every lowercased n-gram of ``records`` -> the positions holding it."""
    index: GramIndex = defaultdict(list)
    for position, record in enumerate(records):
        for gram in _record_ngrams(record, n):
            index[gram].append(position)
    return dict(index)


def join_gram_indexes(
    index_a: GramIndex, index_b: GramIndex, max_gram_frequency: int
) -> List[Pair]:
    """Sorted pairs sharing a gram held by at most ``max_gram_frequency``
    records of side B (frequency is counted on B only)."""
    pairs: Set[Pair] = set()
    for gram, hits_a in index_a.items():
        hits_b = index_b.get(gram)
        if hits_b is None or len(hits_b) > max_gram_frequency:
            continue
        pairs.update(product(hits_a, hits_b))
    return sorted(pairs)


def candidate_pairs_ngram(
    records_a: Sequence[RecordView],
    records_b: Sequence[RecordView],
    n: int = 4,
    max_gram_frequency: int = 20,
) -> List[Pair]:
    """Pairs sharing at least one sufficiently *rare* n-gram.

    Frequent n-grams (appearing in more than ``max_gram_frequency``
    records of ``records_b``) are dropped — they would otherwise
    regenerate the full cross product.
    """
    return join_gram_indexes(
        gram_index(records_a, n), gram_index(records_b, n), max_gram_frequency
    )


def sorted_neighborhood_pairs(
    records_a: Sequence[RecordView],
    records_b: Sequence[RecordView],
    key: Callable[[RecordView], str],
    window: int = 5,
) -> List[Pair]:
    """Classic sorted-neighborhood method over the merged key-sorted list.

    Only cross-source pairs within the sliding window are produced.
    """
    tagged: List[Tuple[str, int, int]] = []  # (key, side, index)
    for i, record in enumerate(records_a):
        tagged.append((key(record), 0, i))
    for j, record in enumerate(records_b):
        tagged.append((key(record), 1, j))
    tagged.sort(key=lambda t: t[0])
    pairs: Set[Pair] = set()
    for pos, (_, side, index) in enumerate(tagged):
        for other_pos in range(pos + 1, min(pos + window, len(tagged))):
            _, other_side, other_index = tagged[other_pos]
            if side == other_side:
                continue
            if side == 0:
                pairs.add((index, other_index))
            else:
                pairs.add((other_index, index))
    return sorted(pairs)
