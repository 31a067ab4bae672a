"""Ranked full-text search with partitions (Section 4.6).

"Search allows a full-text search on all stored data and a focused search
restricted to certain vertical (e.g., a single attribute-type) and
horizontal partitions (e.g., only on primary objects) of the data.
Ranking algorithms order the search results based on similarity of the
result to the query." Ranking is Okapi BM25.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.access.index import InvertedIndex
from repro.linking.textlinks import tokenize

_K1 = 1.5
_B = 0.75


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    source: str
    accession: str
    score: float
    matched_fields: Tuple[str, ...]


class SearchEngine:
    """BM25 search over an :class:`InvertedIndex`."""

    def __init__(self, index: InvertedIndex, tracer=None):
        self._index = index
        #: Optional :class:`~repro.obs.trace.Tracer`; each query then
        #: records one ``op.search`` root span (``None`` = span-free).
        self.tracer = tracer

    def search(
        self,
        query: str,
        top_k: int = 10,
        sources: Optional[Sequence[str]] = None,
        fields: Optional[Sequence[str]] = None,
    ) -> List[SearchHit]:
        """Ranked hits for ``query``.

        Args:
            sources: horizontal partition — restrict to these sources.
            fields: vertical partition — only count occurrences in these
                fields ("a single attribute-type").
        """
        if self.tracer is None:
            return self._search_impl(query, top_k, sources, fields)
        with self.tracer.span("op.search", query=query, top_k=top_k) as span:
            hits = self._search_impl(query, top_k, sources, fields)
            span.set(hits=len(hits))
            return hits

    def _search_impl(
        self,
        query: str,
        top_k: int,
        sources: Optional[Sequence[str]],
        fields: Optional[Sequence[str]],
    ) -> List[SearchHit]:
        tokens = tokenize(query)
        if not tokens:
            return []
        allowed_sources = set(sources) if sources is not None else None
        allowed_fields = set(fields) if fields is not None else None
        index = self._index.reader()
        n_docs = index.document_count()
        avg_len = index.average_length or 1.0
        scores: Dict[int, float] = defaultdict(float)
        matched: Dict[int, Set[str]] = defaultdict(set)
        for token in tokens:
            postings = index.postings(token)
            if not postings:
                continue
            df = index.document_frequency(token)
            idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
            per_doc: Dict[int, int] = defaultdict(int)
            doc_fields: Dict[int, Set[str]] = defaultdict(set)
            for posting in postings:
                if allowed_fields is not None and posting.field not in allowed_fields:
                    continue
                per_doc[posting.doc_id] += posting.frequency
                doc_fields[posting.doc_id].add(posting.field)
            for doc_id, tf in per_doc.items():
                if allowed_sources is not None:
                    if index.source_of(doc_id) not in allowed_sources:
                        continue
                length_norm = 1 - _B + _B * index.doc_length(doc_id) / avg_len
                scores[doc_id] += idf * tf * (_K1 + 1) / (tf + _K1 * length_norm)
                matched[doc_id] |= doc_fields[doc_id]
        hits = []
        for doc_id, score in scores.items():
            source, accession = index.document(doc_id)
            hits.append(
                SearchHit(
                    source=source,
                    accession=accession,
                    score=round(score, 4),
                    matched_fields=tuple(sorted(matched[doc_id])),
                )
            )
        hits.sort(key=lambda h: (-h.score, h.source, h.accession))
        return hits[:top_k]
