"""The duplicate detector: flag same-real-world objects across sources.

Builds :class:`~repro.duplicates.record.RecordView`s for every primary
object (own row plus values gathered from secondary tables along the
discovered paths), blocks candidate pairs, scores them with the
structure-agnostic record similarity, and emits ``duplicate``-kind
:class:`~repro.linking.model.ObjectLink`s. Objects are never merged.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.discovery.model import SourceStructure
from repro.duplicates.blocking import (
    GramIndex,
    candidate_pairs_by_key,
    gram_index,
    join_gram_indexes,
    sorted_neighborhood_pairs,
)
from repro.duplicates.batch import BoundedRecordScorer
from repro.duplicates.record import RecordView
from repro.linking.model import ObjectLink
from repro.linking.resolve import ObjectResolver
from repro.relational.database import Database

_SEQUENCE_PREVIEW = 40  # long sequences dominate; keep a prefix only


@dataclass
class DuplicateConfig:
    """Thresholds of the duplicate detector."""

    similarity_threshold: float = 0.75
    blocking: str = "ngram"  # "ngram" | "sorted" | "key" | "none"
    ngram_size: int = 4
    max_gram_frequency: int = 30
    window: int = 7
    include_secondary_values: bool = True
    max_values_per_record: int = 12
    duplicate_certainty_scale: float = 1.0


class SourceFeatures:
    """One source's duplicate features: its record views and n-gram index.

    Built once per source and read by every chunk that source takes part
    in, as anchor or counterpart. Each view builds its values' scoring
    features (``RecordView.prepared``) when first scored and keeps them as
    long as these features live. ``built_for`` names the structure and
    view options the views were built under; the gram index is built on
    first use by n-gram blocking.
    """

    __slots__ = ("views", "built_for", "_gram_size", "_grams")

    def __init__(self, views: List[RecordView], built_for: Tuple = ()):
        self.views = views
        self.built_for = built_for
        self._gram_size: Optional[int] = None
        self._grams: GramIndex = {}

    def grams(self, n: int) -> GramIndex:
        if self._gram_size != n:
            self._grams = gram_index(self.views, n)
            self._gram_size = n
        return self._grams


#: Source database -> its features. Weak keys: a source whose database is
#: swapped out, removed or re-added under a new object gets new features.
FeatureMap = MutableMapping[Database, SourceFeatures]


class DuplicateDetector:
    """Pairwise duplicate flagging between two sources' primary objects.

    Record pairs are scored by a
    :class:`~repro.duplicates.batch.BoundedRecordScorer`, a fresh one
    unless ``scorer`` is given: ``Aladin`` passes its session-scoped
    scorer, whose value-pair cache outlives each chunk. Every pair is
    scored with
    ``similarity_threshold`` as the scorer's floor, so a pair that cannot
    reach the threshold is cut off early and dropped; a pair that reaches
    it gets exactly :func:`~repro.duplicates.record.record_similarity`'s
    score, so links, certainties and evidence strings are unchanged.

    Each source's :class:`SourceFeatures` are built once into
    ``features``, a fresh map unless one is given: ``Aladin`` passes the
    one it keeps for its lifetime, so an N-source ingestion builds N
    feature sets, not one per chunk and counterpart.
    """

    def __init__(
        self,
        config: Optional[DuplicateConfig] = None,
        scorer: Optional[BoundedRecordScorer] = None,
        features: Optional[FeatureMap] = None,
    ):
        self.config = config or DuplicateConfig()
        self.scorer = scorer if scorer is not None else BoundedRecordScorer()
        self.features: FeatureMap = (
            features if features is not None else weakref.WeakKeyDictionary()
        )
        self.pairs_compared = 0  # exposed for the blocking ablation (E6)

    # ------------------------------------------------------------------
    def build_record_views(
        self, database: Database, structure: SourceStructure
    ) -> List[RecordView]:
        """One RecordView per primary object of a source."""
        try:
            resolver = ObjectResolver(database, structure)
        except ValueError:
            return []
        primary = structure.primary_relation
        accession_col = resolver.accession_column
        views: Dict[str, RecordView] = {}
        for row in database.table(primary).rows():
            accession = row.get(accession_col)
            if accession is None:
                continue
            values = []
            for column, value in row.items():
                if column == accession_col or value is None:
                    continue
                text = _clip(str(value))
                if text and not text.isdigit():
                    values.append(text)
            views[accession] = RecordView(
                source=structure.source_name, accession=accession, values=values
            )
        if self.config.include_secondary_values:
            self._attach_secondary_values(database, structure, resolver, views)
        for view in views.values():
            view.values = view.values[: self.config.max_values_per_record]
        return [views[accession] for accession in sorted(views)]

    def _attach_secondary_values(
        self,
        database: Database,
        structure: SourceStructure,
        resolver: ObjectResolver,
        views: Dict[str, RecordView],
    ) -> None:
        for table_name in structure.secondary_paths:
            table = database.table(table_name)
            text_columns = [
                c.name
                for c in table.schema.columns
                if not c.data_type.is_numeric and not c.name.endswith("_id")
            ]
            if not text_columns:
                continue
            for row in table.rows():
                owners = resolver.owners_of_row(table_name, row)
                if not owners:
                    continue
                for column in text_columns:
                    value = row.get(column)
                    if value is None:
                        continue
                    text = _clip(str(value))
                    if not text or text.isdigit():
                        continue
                    for owner in owners:
                        view = views.get(owner)
                        if view is not None and len(view.values) < self.config.max_values_per_record:
                            view.values.append(text)

    def features_of(
        self, database: Database, structure: SourceStructure
    ) -> SourceFeatures:
        """The source's features, built on first use."""
        config = self.config
        built_for = (
            structure,
            config.include_secondary_values,
            config.max_values_per_record,
        )
        features = self.features.get(database)
        if features is None or features.built_for != built_for:
            features = SourceFeatures(
                self.build_record_views(database, structure), built_for
            )
            self.features[database] = features
        return features

    # ------------------------------------------------------------------
    def detect(
        self,
        database_a: Database,
        structure_a: SourceStructure,
        database_b: Database,
        structure_b: SourceStructure,
    ) -> List[ObjectLink]:
        """Duplicate links between two sources, deduplicated, best first."""
        return self.detect_chunk(database_a, structure_a, [(database_b, structure_b)])[0]

    def detect_chunk(
        self,
        database_a: Database,
        structure_a: SourceStructure,
        counterparts: Sequence[Tuple[Database, SourceStructure]],
    ) -> List[List[ObjectLink]]:
        """Duplicate links of one anchor source against many counterparts.

        Returns one link list per counterpart, in counterpart order. Both
        integration paths fan out this chunk shape (one chunk per new
        source). Features are read from :attr:`features` and built on
        first use, so the key-blocking short-circuit — the cached
        accession value sets share no accession — still skips building
        them.
        """
        features_a: Optional[SourceFeatures] = None
        results: List[List[ObjectLink]] = []
        for database_b, structure_b in counterparts:
            if self.config.blocking == "key" and not self._has_shared_accessions(
                database_a, structure_a, database_b, structure_b
            ):
                # Key blocking compares only shared-accession pairs (the
                # COLUMBA case), and the cached accession sets say there
                # are none.
                results.append([])
                continue
            if features_a is None:
                features_a = self.features_of(database_a, structure_a)
            if not features_a.views:
                results.append([])
                continue
            features_b = self.features_of(database_b, structure_b)
            results.append(self._detect_pairs(features_a, features_b))
        return results

    def _detect_pairs(
        self, features_a: SourceFeatures, features_b: SourceFeatures
    ) -> List[ObjectLink]:
        """Block, score, and link two sources' features."""
        records_a, records_b = features_a.views, features_b.views
        if not records_a or not records_b:
            return []
        pairs = self._blocked_pairs(features_a, features_b)
        threshold = self.config.similarity_threshold
        links: List[ObjectLink] = []
        for i, j in pairs:
            self.pairs_compared += 1
            similarity = self.scorer(records_a[i], records_b[j], threshold)
            if similarity < threshold:
                continue
            links.append(
                ObjectLink(
                    source_a=records_a[i].source,
                    accession_a=records_a[i].accession,
                    source_b=records_b[j].source,
                    accession_b=records_b[j].accession,
                    kind="duplicate",
                    certainty=round(
                        min(1.0, similarity * self.config.duplicate_certainty_scale), 4
                    ),
                    evidence=f"record similarity {similarity:.2f}",
                )
            )
        links.sort(key=lambda l: (-l.certainty, l.accession_a, l.accession_b))
        return links

    def _has_shared_accessions(
        self,
        database_a: Database,
        structure_a: SourceStructure,
        database_b: Database,
        structure_b: SourceStructure,
    ) -> bool:
        """Any accession in both primaries? Cached value sets, no copy."""
        accession_a = structure_a.primary_accession()
        accession_b = structure_b.primary_accession()
        if accession_a is None or accession_b is None:
            return False
        return not database_a.table(accession_a.table).value_set(
            accession_a.column
        ).isdisjoint(
            database_b.table(accession_b.table).value_set(accession_b.column)
        )

    def _blocked_pairs(
        self, features_a: SourceFeatures, features_b: SourceFeatures
    ) -> List[Tuple[int, int]]:
        records_a, records_b = features_a.views, features_b.views
        if self.config.blocking == "none":
            return [(i, j) for i in range(len(records_a)) for j in range(len(records_b))]
        if self.config.blocking == "key":
            return candidate_pairs_by_key(
                records_a, records_b, key=lambda r: r.accession
            )
        if self.config.blocking == "sorted":
            return sorted_neighborhood_pairs(
                records_a,
                records_b,
                key=lambda r: (r.values[0].lower() if r.values else ""),
                window=self.config.window,
            )
        if self.config.blocking == "ngram":
            n = self.config.ngram_size
            return join_gram_indexes(
                features_a.grams(n),
                features_b.grams(n),
                self.config.max_gram_frequency,
            )
        raise ValueError(f"unknown blocking strategy {self.config.blocking!r}")


def _clip(text: str) -> str:
    text = text.strip()
    if len(text) > _SEQUENCE_PREVIEW * 4:
        return text[:_SEQUENCE_PREVIEW]
    return text
