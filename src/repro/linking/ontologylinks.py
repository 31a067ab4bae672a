"""Controlled-vocabulary (ontology) links.

Section 4.4, third comparison type: standardized vocabularies "make
excellent links, connecting proteins with similar function ... provided
that the ontologies are themselves integrated as data sources". We find
attribute pairs whose *value vocabularies* overlap strongly (keyword
fields vs. ontology term names) and link objects sharing a term.

Unlike cross-references the matched values are not unique accessions —
the same term annotates many objects — so the target attribute need not
be unique, but both attributes must look like vocabulary: modest distinct
counts relative to rows, textual, short.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.discovery.model import AttributeRef
from repro.linking.model import AttributeLink, LinkConfig, LinkSet, ObjectLink
from repro.linking.stats import AttributeStatistics

if TYPE_CHECKING:
    from repro.linking.features import LinkFeatures


def vocabulary_attributes(
    stats: Dict[AttributeRef, AttributeStatistics], config: LinkConfig
) -> List[AttributeRef]:
    """Attributes that look like vocabulary: textual, short, varied."""
    out = []
    for attr, stat in sorted(stats.items(), key=lambda kv: kv[0].qualified):
        if stat.non_null_count == 0 or stat.data_type.is_numeric:
            continue
        if stat.numeric_fraction >= 0.999:
            continue
        if stat.avg_length > 60:  # long prose is the text channel's job
            continue
        if stat.distinct_count < config.min_distinct_values:
            continue
        out.append(attr)
    return out


def normalize_term(value: str) -> str:
    """A vocabulary term as compared: lower-cased, whitespace collapsed."""
    return " ".join(value.lower().split())


def discover_ontology_links(
    source: "LinkFeatures", target: "LinkFeatures", config: Optional[LinkConfig] = None
) -> LinkSet:
    """Shared-vocabulary links between two sources."""
    config = config or LinkConfig()
    result = LinkSet()
    if not source.vocabulary_attributes or not target.vocabulary_attributes:
        return result
    if source.resolver is None or target.resolver is None:
        return result
    for source_attr in source.vocabulary_attributes:
        source_terms = source.vocabulary(source_attr)
        if not source_terms:
            continue
        for target_attr in target.vocabulary_attributes:
            target_terms = target.vocabulary(target_attr)
            if not target_terms:
                continue
            overlap = sorted(source_terms.keys() & target_terms.keys())
            denominator = min(len(source_terms), len(target_terms))
            score = len(overlap) / denominator if denominator else 0.0
            if score < config.ontology_overlap_threshold:
                continue
            result.attribute_links.append(
                AttributeLink(
                    source=source.name,
                    source_attribute=source_attr,
                    target=target.name,
                    target_attribute=target_attr,
                    score=round(score, 4),
                    kind="ontology",
                )
            )
            result.object_links.extend(
                _materialize(source, source_attr, target, target_attr, overlap, config)
            )
    return result


def _materialize(
    source: "LinkFeatures",
    source_attr: AttributeRef,
    target: "LinkFeatures",
    target_attr: AttributeRef,
    shared_terms: List[str],
    config: LinkConfig,
) -> List[ObjectLink]:
    # Only rows holding a shared term are touched. A term's target owners
    # are listed in row order, as a full scan would list them.
    target_terms = target.vocabulary(target_attr)
    by_term: Dict[str, List[str]] = {}
    for term in shared_terms:
        owners = [
            owner
            for row_id in target_terms[term]
            for owner in target.owners(target_attr.table, row_id)
        ]
        if owners:
            by_term[term] = owners
    source_terms = source.vocabulary(source_attr)
    source_hits = sorted(
        (row_id, term) for term in by_term for row_id in source_terms[term]
    )
    links: List[ObjectLink] = []
    seen: Set[Tuple[str, str]] = set()
    for row_id, term in source_hits:
        for owner_a in source.owners(source_attr.table, row_id):
            for owner_b in by_term[term]:
                key = (owner_a, owner_b)
                if key in seen:
                    continue
                seen.add(key)
                links.append(
                    ObjectLink(
                        source_a=source.name,
                        accession_a=owner_a,
                        source_b=target.name,
                        accession_b=owner_b,
                        kind="ontology",
                        certainty=config.ontology_certainty,
                        evidence=f"shared term {term!r}",
                    )
                )
    return links
