"""Inverted full-text index over object pages.

Stands in for the "commercial vendor software" (DB2 Search Extender /
Oracle text search) the paper delegates search to. Postings remember the
source and the field (table.column) each token came from, so searches can
be restricted to vertical partitions (fields) and horizontal partitions
(sources, primary objects only) — Section 4.6.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.access.objects import ObjectPage
from repro.linking.textlinks import tokenize


@dataclass(frozen=True)
class PostingField:
    """Where a token occurrence came from."""

    doc_id: int
    field: str  # "table.column" or "accession"
    frequency: int


def page_texts(page: ObjectPage) -> List[Tuple[str, str]]:
    """The ``(field, text)`` pairs of one page, in indexing order.

    All that :func:`tokenize_page` reads: two pages with equal texts
    tokenize identically, which is how :meth:`InvertedIndex.update_source`
    skips re-tokenizing unchanged pages.
    """
    texts = [("accession", page.accession)]
    for column, value in page.fields.items():
        if isinstance(value, str):
            texts.append((column, value))
    for table, rows in page.annotations.items():
        for row in rows:
            for column, value in row.items():
                if isinstance(value, str):
                    texts.append((f"{table}.{column}", value))
    return texts


def tokenize_page(page: ObjectPage) -> Tuple[int, Dict[str, Dict[str, int]]]:
    """Tokenize one page into ``(total tokens, field -> token -> count)``.

    A pure function of the page's :func:`page_texts`;
    :meth:`InvertedIndex.add_tokenized` applies the result as the next
    document.
    """
    field_tokens: Dict[str, Dict[str, int]] = {}
    total = 0

    def count(field_name: str, text: str) -> int:
        tokens = list(tokenize(text))
        if not tokens:
            return 0
        # Field entries appear at their first token, exactly as the old
        # inline defaultdict did — posting order is part of the contract.
        counts = field_tokens.setdefault(field_name, {})
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        return len(tokens)

    for field_name, text in page_texts(page):
        total += count(field_name, text)
    return total, field_tokens


def _doc_of(posting: PostingField) -> int:
    return posting.doc_id


#: One document as the checkpoint writes it: ``(accession, length,
#: is_primary, postings)``, postings as in :meth:`InvertedIndex.export_documents`.
Document = Tuple[str, int, bool, List[Tuple[str, str, int]]]


@dataclass
class DocumentDelta:
    """The documents one source's re-crawl changed (a checkpoint input).

    ``replaced`` pairs the accession a doc id held with the document that
    now holds it (re-tokenized in place), ``added`` are new documents
    appended in crawl order, ``dropped`` the accessions whose documents
    were removed.
    """

    replaced: List[Tuple[str, Document]] = field(default_factory=list)
    added: List[Document] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)


def _document(accession: str, tokenized) -> Document:
    total, field_tokens = tokenized
    postings = [
        (token, field_name, frequency)
        for field_name, counts in field_tokens.items()
        for token, frequency in counts.items()
    ]
    return accession, total, True, postings


class InvertedIndex:
    """Token -> postings, with per-document metadata."""

    def __init__(self) -> None:
        self._postings: Dict[str, List[PostingField]] = defaultdict(list)
        self._documents: List[Tuple[str, str]] = []  # (source, accession)
        self._doc_lengths: List[int] = []
        self._primary_flags: List[bool] = []
        # Pages tokenized by add_page. Snapshot rehydration restores
        # postings without tokenizing, so a warm-started index keeps this
        # at zero — the counter the warm-open assertions check.
        self.pages_indexed = 0

    def __len__(self) -> int:
        return len(self._documents)

    def reader(self) -> "InvertedIndex":
        """What one query reads: this index itself, once resident.

        A query pins its reader up front and resolves every document id
        it gets from ``postings`` through that reader, so a lazily loaded
        index keeps the query consistent while another thread faults the
        whole index in and renumbers it.
        """
        return self

    @property
    def average_length(self) -> float:
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths) / len(self._doc_lengths)

    def document(self, doc_id: int) -> Tuple[str, str]:
        return self._documents[doc_id]

    def doc_length(self, doc_id: int) -> int:
        return self._doc_lengths[doc_id]

    def document_count(self) -> int:
        return len(self._documents)

    def document_frequency(self, token: str) -> int:
        return len({p.doc_id for p in self._postings.get(token, ())})

    def postings(self, token: str) -> List[PostingField]:
        return list(self._postings.get(token, ()))

    def source_of(self, doc_id: int) -> str:
        return self._documents[doc_id][0]

    # ------------------------------------------------------------------
    def add_page(self, page: ObjectPage) -> int:
        """Index one object page, field by field."""
        return self.add_tokenized(page.identity, tokenize_page(page))

    def add_tokenized(
        self,
        identity: Tuple[str, str],
        tokenized: Tuple[int, Dict[str, Dict[str, int]]],
    ) -> int:
        """Apply one :func:`tokenize_page` result as the next document.

        Every added page lands here: document numbering is a strictly
        ordered append (the lazy index faults its postings in first).
        """
        self.pages_indexed += 1
        total, field_tokens = tokenized
        doc_id = len(self._documents)
        self._documents.append(identity)
        for field_name, counts in field_tokens.items():
            for token, frequency in counts.items():
                self._postings[token].append(
                    PostingField(doc_id=doc_id, field=field_name, frequency=frequency)
                )
        self._doc_lengths.append(total)
        self._primary_flags.append(True)
        return doc_id

    def add_pages(self, pages: Iterable[ObjectPage]) -> int:
        """Index many pages, in page order."""
        pages = list(pages)
        for page in pages:
            self.add_page(page)
        return len(pages)

    def remove_source(self, source: str) -> int:
        """Drop every document of one source; returns how many were removed.

        Surviving documents are renumbered densely and postings remapped —
        one pass over the postings lists, no page re-crawling or
        re-tokenization. This is what keeps ``remove_source`` from
        rebuilding the search index from scratch.
        """
        doomed = {
            doc_id
            for doc_id, (doc_source, _) in enumerate(self._documents)
            if doc_source == source
        }
        self._drop_documents(doomed)
        return len(doomed)

    def _drop_documents(self, doomed: Set[int]) -> None:
        """Remove documents by id; the survivors are renumbered densely."""
        if not doomed:
            return
        keep: Dict[int, int] = {}
        for doc_id in range(len(self._documents)):
            if doc_id not in doomed:
                keep[doc_id] = len(keep)
        self._documents = [
            d for doc_id, d in enumerate(self._documents) if doc_id in keep
        ]
        self._doc_lengths = [
            length for doc_id, length in enumerate(self._doc_lengths) if doc_id in keep
        ]
        self._primary_flags = [
            flag for doc_id, flag in enumerate(self._primary_flags) if doc_id in keep
        ]
        remapped: Dict[str, List[PostingField]] = defaultdict(list)
        for token, postings in self._postings.items():
            survivors = [
                PostingField(
                    doc_id=keep[p.doc_id], field=p.field, frequency=p.frequency
                )
                for p in postings
                if p.doc_id in keep
            ]
            if survivors:
                remapped[token] = survivors
        self._postings = remapped

    def update_source(
        self,
        source: str,
        old_pages: Iterable[ObjectPage],
        new_pages: Iterable[ObjectPage],
    ) -> DocumentDelta:
        """Re-index the pages of ``source`` that differ between two crawls.

        ``old_pages`` must be the pages this index holds for ``source``.
        A surviving page whose content changed keeps its doc id: its
        postings are removed using the old page's tokens and the new
        ones inserted in doc-id order. Unchanged pages are not
        re-tokenized. A new page takes over the doc id of a vanished one
        (both in crawl order), so a changed accession renumbers nothing;
        only surplus vanished pages are dropped, and surplus new pages
        append in crawl order.
        """
        old = {page.accession: page for page in old_pages}
        doc_ids = {
            accession: doc_id
            for doc_id, (doc_source, accession) in enumerate(self._documents)
            if doc_source == source
        }
        delta = DocumentDelta()
        added = []
        for page in new_pages:
            before = old.pop(page.accession, None)
            if before is None:
                added.append(page)
            elif page_texts(before) != page_texts(page):
                delta.replaced.append(self._replace_document(doc_ids, before, page))
        vacated = list(old.values())
        for before, page in zip(vacated, added):
            delta.replaced.append(self._replace_document(doc_ids, before, page))
        delta.dropped = [page.accession for page in vacated[len(added):]]
        self._drop_documents({doc_ids[accession] for accession in delta.dropped})
        for page in added[len(vacated):]:
            tokenized = tokenize_page(page)
            self.add_tokenized(page.identity, tokenized)
            delta.added.append(_document(page.accession, tokenized))
        return delta

    def _replace_document(
        self, doc_ids: Dict[str, int], before: ObjectPage, page: ObjectPage
    ) -> Tuple[str, Document]:
        """Put ``page`` in the place of ``before``'s document; every
        posting list stays in doc-id order (field order within the
        document)."""
        self.pages_indexed += 1
        doc_id = doc_ids[before.accession]
        # repro-lint: allow[unordered-iteration] every deletion below runs before any re-insertion, so the token order cannot matter
        for token in {t for counts in tokenize_page(before)[1].values() for t in counts}:
            postings = self._postings[token]
            start = bisect_left(postings, doc_id, key=_doc_of)
            del postings[start:bisect_right(postings, doc_id, lo=start, key=_doc_of)]
            if not postings:
                del self._postings[token]
        tokenized = tokenize_page(page)
        total, field_tokens = tokenized
        for field_name, counts in field_tokens.items():
            for token, frequency in counts.items():
                postings = self._postings[token]
                postings.insert(
                    bisect_right(postings, doc_id, key=_doc_of),
                    PostingField(doc_id=doc_id, field=field_name, frequency=frequency),
                )
        self._documents[doc_id] = page.identity
        self._doc_lengths[doc_id] = total
        return before.accession, _document(page.accession, tokenized)

    def vocabulary_size(self) -> int:
        return len(self._postings)

    # ------------------------------------------------------------------
    # snapshot round-trip
    # ------------------------------------------------------------------
    def export_documents(self, source: Optional[str] = None):
        """Yield ``(source, accession, length, is_primary, postings)`` per
        document in doc-id order, where ``postings`` is a list of
        ``(token, field, frequency)`` triples.

        This is the persistence export: one inversion pass over the
        postings lists groups them per document. The scan itself is
        O(total postings) — inherent to the inverted layout — but with a
        ``source`` filter (the per-source checkpoint path) only that
        source's documents are materialized, so checkpoint memory stays
        proportional to the source's slice.
        """
        if source is None:
            wanted = None
            per_doc: Dict[int, List[Tuple[str, str, int]]] = {
                doc_id: [] for doc_id in range(len(self._documents))
            }
        else:
            wanted = {
                doc_id
                for doc_id, (doc_source, _) in enumerate(self._documents)
                if doc_source == source
            }
            per_doc = {doc_id: [] for doc_id in wanted}
        for token, postings in self._postings.items():
            for posting in postings:
                if wanted is None or posting.doc_id in wanted:
                    per_doc[posting.doc_id].append(
                        (token, posting.field, posting.frequency)
                    )
        for doc_id in sorted(per_doc):
            doc_source, accession = self._documents[doc_id]
            yield (
                doc_source,
                accession,
                self._doc_lengths[doc_id],
                self._primary_flags[doc_id],
                per_doc[doc_id],
            )

    def restore_document(
        self,
        source: str,
        accession: str,
        length: int,
        is_primary: bool,
        postings: Iterable[Tuple[str, str, int]],
    ) -> int:
        """Append one exported document without re-crawling or tokenizing.

        The inverse of :meth:`export_documents`: warm starts rebuild the
        index from persisted postings, so ``pages_indexed`` stays zero.
        """
        doc_id = len(self._documents)
        self._documents.append((source, accession))
        self._doc_lengths.append(length)
        self._primary_flags.append(bool(is_primary))
        for token, field_name, frequency in postings:
            self._postings[token].append(
                PostingField(doc_id=doc_id, field=field_name, frequency=frequency)
            )
        return doc_id
