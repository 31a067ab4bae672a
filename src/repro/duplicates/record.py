"""Structure-agnostic record similarity (the WN04 idea).

Section 4.5: "It is not a priori clear, which attribute values of one
object to compare with which attribute value of the other object. Thus,
common similarity measures employed to identify duplicates cannot be
applied immediately." Following the duplicate-detection work for nested
XML objects the paper cites [WN04], a record is reduced to its bag of
*values*; similarity is the best-match pairing between the two value
bags, weighted by value length (longer values carry more identity signal)
— no field correspondences required, so differently modelled sources
compare fine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.duplicates.similarity import (
    TokenCounts,
    jaro_winkler,
    token_cosine,
    token_counts,
)
from repro.linking.editdistance import levenshtein_similarity

#: Values of at most this many characters compare as names
#: (Jaro-Winkler), longer ones as sentences.
SHORT_VALUE = 25


class PreparedValue(NamedTuple):
    """One value's scoring features, built once per record view."""

    text: str
    lower: str
    #: Character counts of ``lower`` for a short value, else None.
    bag: Optional[Counter]
    counts: TokenCounts


def prepare_value(text: str) -> PreparedValue:
    lower = text.lower()
    bag = Counter(lower) if len(text) <= SHORT_VALUE else None
    return PreparedValue(text, lower, bag, token_counts(text))


@dataclass
class RecordView:
    """One object flattened to comparable text values.

    ``values`` holds the object's own fields plus (optionally) values of
    its secondary objects — the nested annotations. ``identifier`` is the
    (source, accession) identity used in links.
    """

    source: str
    accession: str
    values: List[str] = field(default_factory=list)
    _prepared: Optional[Tuple[PreparedValue, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def prepared(self) -> Tuple[PreparedValue, ...]:
        """Each value's :class:`PreparedValue`, in value order.

        Built on first use and kept as long as the view, so ``values``
        must not change once the view has been scored. The detector's
        views live in their source's ``SourceFeatures``.
        """
        if self._prepared is None:
            self._prepared = tuple(prepare_value(value) for value in self.values)
        return self._prepared


def _value_similarity(a: str, b: str) -> float:
    """Similarity of two field values, picking a measure by value shape.

    Short values behave like names (Jaro-Winkler is forgiving of typos);
    long values behave like sentences (token cosine blended with edit
    similarity).
    """
    if len(a) <= SHORT_VALUE and len(b) <= SHORT_VALUE:
        return jaro_winkler(a.lower(), b.lower())
    return 0.5 * token_cosine(a, b) + 0.5 * levenshtein_similarity(a.lower(), b.lower())


def record_similarity(
    a: RecordView,
    b: RecordView,
    value_similarity: Callable[[str, str], float] = _value_similarity,
) -> float:
    """Weighted best-match similarity of two records, in [0, 1].

    For every value of the smaller record the best matching value of the
    other record is found; matches are averaged weighted by value length.
    Symmetric by construction (smaller side drives the pairing).

    The exhaustive reference oracle: the detector scores with
    :class:`~repro.duplicates.batch.BoundedRecordScorer`, whose scores
    the tests pin bit for bit against this function.
    """
    if not a.values and not b.values:
        return 1.0
    if not a.values or not b.values:
        return 0.0
    smaller, larger = (a, b) if len(a.values) <= len(b.values) else (b, a)
    total_weight = 0.0
    total_score = 0.0
    for value in smaller.values:
        best = max(value_similarity(value, other) for other in larger.values)
        weight = float(len(value))
        total_weight += weight
        total_score += best * weight
    return total_score / total_weight if total_weight else 0.0
