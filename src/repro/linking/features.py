"""Per-source link features: what every channel derives from one source alone.

Section 4.4: per-source evidence "need[s] to be computed only once for
each data source and can then be reused for subsequently added data
sources". A new source is scanned against every integrated one, so
anything a channel derives from one side alone (TF-IDF indexes, the name
dictionary, BLAST indexes, vocabulary sets, decoded cross-reference
candidates, resolved row owners) would otherwise be rebuilt once per
pair. :class:`LinkFeatures` holds them, one object per registered
source, each part built on the first pair scan that needs it.

Features cannot go stale. The engine keeps one per registration entry,
and ``register_source``, ``refresh_source`` and ``restore_source`` each
install a fresh entry; a registered :class:`Database` is never mutated in
place. Nothing is built at registration or restore time, so a lazy
hydration or a warm open pays nothing for them.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.discovery.model import AttributeRef, SourceStructure
from repro.linking.blast import BlastIndex
from repro.linking.crossref import decode_candidates
from repro.linking.matrices import dna_score, protein_score
from repro.linking.model import LinkConfig
from repro.linking.ner import extract_entity_names, name_dictionary
from repro.linking.ontologylinks import normalize_term, vocabulary_attributes
from repro.linking.pruning import is_link_source_candidate
from repro.linking.resolve import ObjectResolver
from repro.linking.seqfields import SequenceField, detect_sequence_fields
from repro.linking.stats import AttributeStatistics
from repro.linking.textlinks import TfIdfIndex, text_attributes, tokenize
from repro.relational.database import Database

# A text row: (owning accessions, token counts of its text).
TextRow = Tuple[List[str], Counter]
# A sampled sequence: (sequence, owning accessions).
SampledSequence = Tuple[str, List[str]]


class LinkFeatures:
    """One registered source's channel inputs, each built on first use."""

    def __init__(
        self,
        database: Database,
        structure: SourceStructure,
        statistics: Dict[AttributeRef, AttributeStatistics],
        config: LinkConfig,
    ):
        self.name = structure.source_name
        self.database = database
        self.structure = structure
        self.statistics = statistics
        self.config = config
        try:
            self.resolver: Optional[ObjectResolver] = ObjectResolver(database, structure)
        except ValueError:
            self.resolver = None  # no primary relation: nothing to anchor links on
        self._owners: Dict[Tuple[str, int], List[str]] = {}
        self._text_rows: Dict[AttributeRef, List[TextRow]] = {}
        self._text_indexes: Dict[AttributeRef, Optional[Tuple[TfIdfIndex, List[List[str]]]]] = {}
        self._mentions: Dict[AttributeRef, List[Tuple[int, List[str]]]] = {}
        self._sequences: Dict[AttributeRef, List[SampledSequence]] = {}
        self._blast_indexes: Dict[AttributeRef, Tuple[BlastIndex, Dict[int, List[str]]]] = {}
        self._vocabularies: Dict[AttributeRef, Dict[str, List[int]]] = {}
        self._decoded: Dict[AttributeRef, List[Tuple[str, List[Tuple[str, bool]]]]] = {}

    # ------------------------------------------------------------------
    # attribute selections
    # ------------------------------------------------------------------
    @cached_property
    def text_attributes(self) -> List[AttributeRef]:
        return text_attributes(self.statistics, self.config)

    @cached_property
    def vocabulary_attributes(self) -> List[AttributeRef]:
        return vocabulary_attributes(self.statistics, self.config)

    @cached_property
    def sequence_fields(self) -> List[SequenceField]:
        return detect_sequence_fields(self.statistics, self.config)

    @cached_property
    def crossref_attributes(self) -> List[AttributeRef]:
        """Attributes that may hold outgoing cross-references, by name."""
        structure = self.structure
        accession = structure.primary_accession()
        out = []
        for attr, stats in sorted(self.statistics.items(), key=lambda kv: kv[0].qualified):
            if not is_link_source_candidate(stats, self.config):
                continue
            if attr.table == structure.primary_relation and accession == attr:
                continue  # the primary accession is an identifier, not a reference
            out.append(attr)
        return out

    # ------------------------------------------------------------------
    # object resolution
    # ------------------------------------------------------------------
    def owners(self, table: str, row_id: int) -> List[str]:
        """``ObjectResolver.owners_of_row`` of one row, memoized. Do not mutate."""
        key = (table, row_id)
        owners = self._owners.get(key)
        if owners is None:
            row = self.database.table(table).row_at(row_id)
            owners = self._owners[key] = self.resolver.owners_of_row(table, row)
        return owners

    # ------------------------------------------------------------------
    # text and names
    # ------------------------------------------------------------------
    def text_rows(self, attr: AttributeRef) -> List[TextRow]:
        """Rows of ``attr`` with text and an owner, in row order."""
        rows = self._text_rows.get(attr)
        if rows is None:
            rows = self._text_rows[attr] = []
            for row_id, text in enumerate(self.database.table(attr.table).values(attr.column)):
                if not text:
                    continue
                owners = self.owners(attr.table, row_id)
                if owners:
                    rows.append((owners, Counter(tokenize(str(text)))))
        return rows

    def text_index(self, attr: AttributeRef) -> Optional[Tuple[TfIdfIndex, List[List[str]]]]:
        """``attr``'s finalized TF-IDF index and each document's owners,
        or None when no row qualifies."""
        if attr not in self._text_indexes:
            self._text_indexes[attr] = self._build_text_index(attr)
        return self._text_indexes[attr]

    def _build_text_index(self, attr: AttributeRef):
        rows = self.text_rows(attr)
        if not rows:
            return None
        index = TfIdfIndex()
        for _owners, counts in rows:
            index.add_counts(counts)
        index.finalize()
        return index, [owners for owners, _counts in rows]

    @cached_property
    def name_dictionary(self) -> Dict[str, str]:
        """name -> accession over the unique name fields of the primary relation."""
        return name_dictionary(self.database, self.structure)

    def mentions(self, attr: AttributeRef) -> List[Tuple[int, List[str]]]:
        """``(row id, entity names)`` for each row of ``attr`` naming any."""
        found = self._mentions.get(attr)
        if found is None:
            found = self._mentions[attr] = []
            min_length = self.config.name_min_length
            for row_id, text in enumerate(self.database.table(attr.table).values(attr.column)):
                if not text:
                    continue
                names = extract_entity_names(str(text), min_length)
                if names:
                    found.append((row_id, names))
        return found

    # ------------------------------------------------------------------
    # sequences
    # ------------------------------------------------------------------
    def sampled_sequences(self, field: SequenceField) -> List[SampledSequence]:
        """Sequences with an owner among the first ``max_sequence_rows``
        rows (the sampling guard of Section 6.2), in row order."""
        attr = field.attribute
        sampled = self._sequences.get(attr)
        if sampled is None:
            sampled = self._sequences[attr] = []
            values = self.database.table(attr.table).values(attr.column)
            for row_id, sequence in enumerate(values[: self.config.max_sequence_rows]):
                if not sequence:
                    continue
                owners = self.owners(attr.table, row_id)
                if owners:
                    sampled.append((sequence, owners))
        return sampled

    def blast_index(self, field: SequenceField) -> Tuple[BlastIndex, Dict[int, List[str]]]:
        """The k-mer index over ``field``'s sampled sequences and each
        target id's owners."""
        built = self._blast_indexes.get(field.attribute)
        if built is None:
            built = self._blast_indexes[field.attribute] = self._build_blast_index(field)
        return built

    def _build_blast_index(self, field: SequenceField):
        score = dna_score if field.alphabet == "dna" else protein_score
        index = BlastIndex(k=self.config.blast_k, score=score)
        owner_lookup: Dict[int, List[str]] = {}
        for sequence, owners in self.sampled_sequences(field):
            owner_lookup[index.add(sequence)] = owners
        return index, owner_lookup

    # ------------------------------------------------------------------
    # vocabularies and identifiers
    # ------------------------------------------------------------------
    def vocabulary(self, attr: AttributeRef) -> Dict[str, List[int]]:
        """Normalized term -> ascending ids of the rows holding it; the
        keys are ``attr``'s normalized vocabulary."""
        terms = self._vocabularies.get(attr)
        if terms is None:
            terms = self._vocabularies[attr] = {}
            table = self.database.table(attr.table)
            row_ids = table.columns.row_ids(attr.column)
            for value in table.distinct_values(attr.column):
                if isinstance(value, str):
                    terms.setdefault(normalize_term(value), []).extend(row_ids.get(value, ()))
            for ids in terms.values():
                ids.sort()
        return terms

    def decoded(self, attr: AttributeRef) -> List[Tuple[str, List[Tuple[str, bool]]]]:
        """Each distinct text value of ``attr`` with its accession readings."""
        decoded = self._decoded.get(attr)
        if decoded is None:
            decoded = self._decoded[attr] = [
                (value, decode_candidates(value))
                for value in self.database.table(attr.table).distinct_values(attr.column)
                if isinstance(value, str)
            ]
        return decoded

    @cached_property
    def accessions(self) -> Optional[Tuple[FrozenSet, AttributeRef]]:
        """The primary accession values and their attribute — the only
        cross-reference targets — or None without a primary accession."""
        attr = self.structure.primary_accession()
        if attr is None:
            return None
        return self.database.table(attr.table).value_set(attr.column), attr
