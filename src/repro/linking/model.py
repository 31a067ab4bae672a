"""Data model and configuration of the linking layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.discovery.model import AttributeRef

LINK_KINDS = ("crossref", "sequence", "text", "name", "ontology", "duplicate")


@dataclass(frozen=True)
class AttributeLink:
    """A discovered attribute-level correspondence.

    ``source_attribute`` of ``source`` stores values drawn from
    ``target_attribute`` of ``target``. ``score`` is the fraction of
    source values that matched; ``encoded`` marks ``DB:ACC`` style values
    that needed decoding.
    """

    source: str
    source_attribute: AttributeRef
    target: str
    target_attribute: AttributeRef
    score: float
    kind: str = "crossref"
    encoded: bool = False

    def key(self) -> Tuple[str, str, str, str]:
        return (
            self.source,
            self.source_attribute.qualified,
            self.target,
            self.target_attribute.qualified,
        )


@dataclass(frozen=True)
class ObjectLink:
    """A discovered object-level link, stored in the metadata repository.

    Objects are identified by (source name, primary-object accession).
    ``certainty`` in (0, 1] reflects the evidence strength of the
    discovery channel — Section 4.6 requires ranking results "according to
    certainty values derived from the different discovery steps".
    """

    source_a: str
    accession_a: str
    source_b: str
    accession_b: str
    kind: str
    certainty: float = 1.0
    evidence: str = ""

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if not 0.0 < self.certainty <= 1.0:
            raise ValueError(f"certainty must be in (0, 1], got {self.certainty}")

    def endpoints(self) -> Tuple[Tuple[str, str], Tuple[str, str]]:
        return ((self.source_a, self.accession_a), (self.source_b, self.accession_b))

    def normalized(self) -> "ObjectLink":
        """Direction-normalized copy (for undirected comparisons)."""
        if (self.source_a, self.accession_a) <= (self.source_b, self.accession_b):
            return self
        return ObjectLink(
            self.source_b,
            self.accession_b,
            self.source_a,
            self.accession_a,
            self.kind,
            self.certainty,
            self.evidence,
        )

    def key(self) -> Tuple[str, str, str, str, str]:
        """Undirected identity: normalized endpoints plus kind.

        Two links with the same key are the same link for storage and
        feedback purposes, whatever their direction, certainty or evidence.
        """
        normalized = self.normalized()
        return (
            normalized.source_a,
            normalized.accession_a,
            normalized.source_b,
            normalized.accession_b,
            normalized.kind,
        )


@dataclass
class LinkSet:
    """All links discovered for one source pair or one pipeline run."""

    attribute_links: List[AttributeLink] = field(default_factory=list)
    object_links: List[ObjectLink] = field(default_factory=list)

    def extend(self, other: "LinkSet") -> None:
        self.attribute_links.extend(other.attribute_links)
        self.object_links.extend(other.object_links)

    def by_kind(self, kind: str) -> List[ObjectLink]:
        return [l for l in self.object_links if l.kind == kind]


@dataclass
class LinkConfig:
    """Thresholds of the linking heuristics.

    The paper names the pruning rules but not the numbers; defaults were
    calibrated on the synthetic gold standard (DESIGN.md Section 6).
    """

    # Pruning (Section 4.4 "substantial pruning can be applied").
    min_distinct_values: int = 3  # "attributes with few distinct values"
    exclude_numeric_sources: bool = True  # "purely numeric values"
    min_source_rows: int = 1
    # Cross-reference attribute matching.
    min_match_fraction: float = 0.05
    min_absolute_matches: int = 2
    crossref_certainty: float = 0.95
    encoded_certainty: float = 0.85
    # Sequence links.
    seq_min_avg_length: float = 30.0
    seq_alphabet_purity: float = 0.95
    blast_k: int = 4
    blast_min_seed_hits: int = 2
    blast_min_identity: float = 0.5
    sequence_certainty: float = 0.7
    max_sequence_rows: int = 500  # sampling guard (Section 6.2)
    # Text links.
    text_min_avg_length: float = 20.0
    text_similarity_threshold: float = 0.35
    text_certainty: float = 0.5
    text_top_k: int = 3
    # Name (NER) links.
    name_min_length: int = 3
    name_certainty: float = 0.6
    # Ontology links.
    ontology_overlap_threshold: float = 0.3
    ontology_certainty: float = 0.8
