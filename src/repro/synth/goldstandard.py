"""Ground-truth registry for generated scenarios.

Plays the role the paper assigns to COLUMBA (Section 5): a reference
integration from which "precision and recall methods for finding primary
relations, secondary relations, cross-references, and duplicates can be
derived" — except that, being synthetic, the truth here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set


@dataclass(frozen=True)
class LinkFact:
    """One true object-level link between two sources.

    ``kind`` is ``"xref"`` for explicit cross-references present in the
    rendered data, ``"duplicate"`` for same-real-world-object pairs.
    Facts are stored directed for xrefs (the reference lives in source_a)
    and undirected for duplicates (normalized ordering).
    """

    source_a: str
    accession_a: str
    source_b: str
    accession_b: str
    kind: str = "xref"


@dataclass(frozen=True)
class AttributeLinkFact:
    """A true attribute-level cross-reference correspondence.

    ``attribute_a`` (qualified ``table.column`` in ``source_a``) stores
    values drawn from ``attribute_b`` of ``source_b``.
    """

    source_a: str
    attribute_a: str
    source_b: str
    attribute_b: str


@dataclass
class SourceFacts:
    """Per-source truth recorded at generation time."""

    name: str
    format_name: str
    entity_class: str  # "protein" | "structure" | "domain" | "go_term" | ...
    primary_relation: str  # table holding the primary objects after import
    accession_attribute: str  # qualified "table.column" of the accession
    accession_to_uid: Dict[str, int] = field(default_factory=dict)
    import_options: Dict[str, object] = field(default_factory=dict)

    def uid_to_accession(self) -> Dict[int, str]:
        return {uid: acc for acc, uid in self.accession_to_uid.items()}


class GoldStandard:
    """Aggregated truth for one scenario."""

    def __init__(self) -> None:
        self.sources: Dict[str, SourceFacts] = {}
        self._xrefs: Set[LinkFact] = set()
        self._attribute_links: Set[AttributeLinkFact] = set()

    # ------------------------------------------------------------------
    # recording (called by generators)
    # ------------------------------------------------------------------
    def add_source(self, facts: SourceFacts) -> None:
        if facts.name in self.sources:
            raise ValueError(f"source {facts.name!r} already registered")
        self.sources[facts.name] = facts

    def record_xref(
        self, source_a: str, accession_a: str, source_b: str, accession_b: str
    ) -> None:
        self._xrefs.add(LinkFact(source_a, accession_a, source_b, accession_b, "xref"))

    def record_attribute_link(
        self, source_a: str, attribute_a: str, source_b: str, attribute_b: str
    ) -> None:
        self._attribute_links.add(
            AttributeLinkFact(source_a, attribute_a, source_b, attribute_b)
        )

    # ------------------------------------------------------------------
    # queries (called by the evaluation harness)
    # ------------------------------------------------------------------
    def primary_relation(self, source: str) -> str:
        return self.sources[source].primary_relation

    def accession_attribute(self, source: str) -> str:
        return self.sources[source].accession_attribute

    def xref_links(
        self, source_a: Optional[str] = None, source_b: Optional[str] = None
    ) -> Set[LinkFact]:
        """True explicit cross-reference facts, optionally filtered."""
        out = set()
        for fact in self._xrefs:
            if source_a is not None and fact.source_a != source_a:
                continue
            if source_b is not None and fact.source_b != source_b:
                continue
            out.add(fact)
        return out

    def attribute_links(self) -> Set[AttributeLinkFact]:
        return set(self._attribute_links)

    def duplicate_pairs(self) -> Set[LinkFact]:
        """All true cross-source duplicates: same entity class, same uid.

        Normalized with source_a < source_b so each pair appears once.
        """
        pairs: Set[LinkFact] = set()
        names = sorted(self.sources)
        for i, name_a in enumerate(names):
            facts_a = self.sources[name_a]
            for name_b in names[i + 1:]:
                facts_b = self.sources[name_b]
                if facts_a.entity_class != facts_b.entity_class:
                    continue
                uid_to_acc_b = facts_b.uid_to_accession()
                for acc_a, uid in facts_a.accession_to_uid.items():
                    acc_b = uid_to_acc_b.get(uid)
                    if acc_b is not None:
                        pairs.add(LinkFact(name_a, acc_a, name_b, acc_b, "duplicate"))
        return pairs
