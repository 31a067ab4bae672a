"""Text-similarity links (implicit links, kind 2).

"Second, attributes containing longer text strings, such as textual
descriptions, can be analyzed by using techniques from information
retrieval and text mining" (Section 4.4). Classic vector-space model:
TF-IDF weighting, cosine similarity, per-source-row top-k matching above a
threshold.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.discovery.model import AttributeRef
from repro.linking.model import LinkConfig, LinkSet, ObjectLink
from repro.linking.stats import AttributeStatistics

if TYPE_CHECKING:
    from repro.linking.features import LinkFeatures

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")

_STOPWORDS = {
    "a", "an", "and", "are", "as", "at", "by", "for", "from", "in", "into",
    "is", "it", "of", "on", "or", "that", "the", "to", "with", "which",
}


def tokenize(text: str) -> List[str]:
    """Lower-cased alphanumeric tokens minus stopwords."""
    return [
        token.lower()
        for token in _TOKEN_RE.findall(text)
        if token.lower() not in _STOPWORDS
    ]


class TfIdfIndex:
    """A small TF-IDF vector index with cosine search."""

    def __init__(self) -> None:
        self._documents: List[Counter] = []
        self._doc_freq: Counter = Counter()
        self._norms: List[float] = []
        self._idfs: Dict[str, float] = {}  # fixed by finalize
        self._finalized = False
        self._postings: Dict[str, List[int]] = defaultdict(list)

    def add(self, text: str) -> int:
        return self.add_counts(Counter(tokenize(text)))

    def add_counts(self, counts: Counter) -> int:
        """Index one document given as its token counts."""
        if self._finalized:
            raise RuntimeError("index already finalized")
        doc_id = len(self._documents)
        self._documents.append(counts)
        for token in counts:
            self._doc_freq[token] += 1
            self._postings[token].append(doc_id)
        return doc_id

    def __len__(self) -> int:
        return len(self._documents)

    def finalize(self) -> None:
        """Fix every token's idf and every document's norm; no more adds."""
        n = len(self._documents)
        self._idfs = {
            token: math.log((1 + n) / (1 + df)) + 1.0 for token, df in self._doc_freq.items()
        }
        idfs = self._idfs
        self._norms = []
        for counts in self._documents:
            norm_sq = sum((count * idfs[token]) ** 2 for token, count in counts.items())
            self._norms.append(math.sqrt(norm_sq) or 1.0)
        self._finalized = True

    def search(self, text: str, top_k: int = 3, threshold: float = 0.0) -> List[Tuple[int, float]]:
        """(doc_id, cosine) pairs, best first."""
        return self.search_counts(Counter(tokenize(text)), top_k, threshold)

    def search_counts(
        self, counts: Counter, top_k: int = 3, threshold: float = 0.0
    ) -> List[Tuple[int, float]]:
        """:meth:`search` for a query given as its token counts."""
        if not self._finalized:
            self.finalize()
        if not counts:
            return []
        idfs = self._idfs
        query_weights = {t: c * idfs.get(t, 0.0) for t, c in counts.items()}
        query_norm = math.sqrt(sum(w * w for w in query_weights.values())) or 1.0
        scores: Dict[int, float] = defaultdict(float)
        documents = self._documents
        for token, weight in query_weights.items():
            if weight == 0.0:
                continue
            idf = idfs[token]
            for doc_id in self._postings[token]:
                scores[doc_id] += weight * documents[doc_id][token] * idf
        results = [
            (doc_id, dot / (query_norm * self._norms[doc_id]))
            for doc_id, dot in scores.items()
        ]
        results = [(d, s) for d, s in results if s >= threshold]
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        return results[:top_k]


def text_attributes(
    stats: Dict[AttributeRef, AttributeStatistics], config: Optional[LinkConfig] = None
) -> List[AttributeRef]:
    """Attributes worth text comparison: long, mostly alphabetic, not sequences."""
    config = config or LinkConfig()
    out = []
    for attr, stat in sorted(stats.items(), key=lambda kv: kv[0].qualified):
        if stat.non_null_count == 0:
            continue
        if stat.avg_length < config.text_min_avg_length:
            continue
        if (
            stat.protein_alphabet_fraction >= config.seq_alphabet_purity
            or stat.dna_alphabet_fraction >= config.seq_alphabet_purity
        ):
            continue  # sequences handled elsewhere
        if stat.alpha_fraction < 0.5:
            continue
        out.append(attr)
    return out


def discover_text_links(
    source: "LinkFeatures", target: "LinkFeatures", config: Optional[LinkConfig] = None
) -> LinkSet:
    """TF-IDF cosine links between long-text attributes of two sources."""
    config = config or LinkConfig()
    result = LinkSet()
    if not source.text_attributes or not target.text_attributes:
        return result
    if source.resolver is None or target.resolver is None:
        return result
    for target_attr in target.text_attributes:
        built = target.text_index(target_attr)
        if built is None:
            continue
        index, doc_owners = built
        for source_attr in source.text_attributes:
            seen = set()
            for source_owners, counts in source.text_rows(source_attr):
                for doc_id, cosine in index.search_counts(
                    counts,
                    top_k=config.text_top_k,
                    threshold=config.text_similarity_threshold,
                ):
                    for owner_a in source_owners:
                        for owner_b in doc_owners[doc_id]:
                            key = (owner_a, owner_b)
                            if key in seen:
                                continue
                            seen.add(key)
                            result.object_links.append(
                                ObjectLink(
                                    source_a=source.name,
                                    accession_a=owner_a,
                                    source_b=target.name,
                                    accession_b=owner_b,
                                    kind="text",
                                    certainty=round(
                                        min(1.0, cosine) * config.text_certainty, 4
                                    ),
                                    evidence=(
                                        f"{source_attr.qualified}~{target_attr.qualified}"
                                        f" cosine={cosine:.2f}"
                                    ),
                                )
                            )
    return result
