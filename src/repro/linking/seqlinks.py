"""Sequence-similarity links between two sources (implicit links, kind 1).

"First, the values of attributes containing DNA, RNA, or protein
sequences are compared to each other" (Section 4.4). For each pair of
compatible sequence fields the target side's index
(:class:`~repro.linking.blast.BlastIndex`, built once per source by its
:class:`~repro.linking.features.LinkFeatures`) is searched with every
sampled source sequence; hits become object-level links between the owning
primary objects, with certainty scaled by identity.

``LinkConfig.max_sequence_rows`` caps the number of sequences considered
per side — the sampling guard Section 6.2 proposes ("sampling can be
used") for keeping incremental addition affordable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.linking.model import LinkConfig, LinkSet, ObjectLink

if TYPE_CHECKING:
    from repro.linking.features import LinkFeatures


def discover_sequence_links(
    source: "LinkFeatures", target: "LinkFeatures", config: Optional[LinkConfig] = None
) -> LinkSet:
    """Homology links from every source field to every compatible target field."""
    config = config or LinkConfig()
    result = LinkSet()
    if not source.sequence_fields or not target.sequence_fields:
        return result
    if source.resolver is None or target.resolver is None:
        return result
    for source_field in source.sequence_fields:
        for target_field in target.sequence_fields:
            if source_field.alphabet != target_field.alphabet:
                continue
            index, owner_lookup = target.blast_index(target_field)
            seen = set()
            for sequence, source_owners in source.sampled_sequences(source_field):
                hits = index.search(
                    sequence,
                    min_seed_hits=config.blast_min_seed_hits,
                    min_identity=config.blast_min_identity,
                )
                for hit in hits:
                    for owner_a in source_owners:
                        for owner_b in owner_lookup.get(hit.target_id, ()):
                            key = (owner_a, owner_b)
                            if key in seen:
                                continue
                            seen.add(key)
                            certainty = (
                                min(1.0, max(0.05, hit.identity)) * config.sequence_certainty
                            )
                            result.object_links.append(
                                ObjectLink(
                                    source_a=source.name,
                                    accession_a=owner_a,
                                    source_b=target.name,
                                    accession_b=owner_b,
                                    kind="sequence",
                                    certainty=round(certainty, 4),
                                    evidence=(
                                        f"{source_field.attribute.qualified}~"
                                        f"{target_field.attribute.qualified}"
                                        f" identity={hit.identity:.2f}"
                                    ),
                                )
                            )
    return result
