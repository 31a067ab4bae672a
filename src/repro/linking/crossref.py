"""Explicit cross-reference discovery (Section 4.4, first kind).

"Because cross-references use public, globally unique, and stable
identifiers ... target candidates are exactly the previously discovered
unique fields in primary relations of other databases."

For every pruned source attribute we match its values against the
accession values of the target source's primary relation. Both sides
come from the sources' :class:`~repro.linking.features.LinkFeatures`:
the pruned attribute selection and each attribute's decoded values on
the source side, the accession value set on the target side. Two match
modes:

* **direct** — the value *is* a target accession;
* **encoded** — the value embeds the accession in a ``"DB:ACC"`` string
  (Section 4.4's ``"Uniprot:P11140"``); the substring after the last
  separator is matched. "Thus, already here string matching techniques
  are needed, for instance for finding common substrings."

An attribute-level link is declared when enough values match; each
matching value also produces an object-level link from the owning primary
object of the source row to the referenced target object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.discovery.model import AttributeRef
from repro.linking.model import AttributeLink, LinkConfig, LinkSet, ObjectLink

if TYPE_CHECKING:
    from repro.linking.features import LinkFeatures

_SEPARATORS = (":", "|", "/")


def decode_candidates(value: str) -> List[Tuple[str, bool]]:
    """Possible accession readings of one attribute value.

    Returns (candidate, was_encoded) pairs: the raw value first, then the
    suffix after the last separator when one is present.
    """
    candidates: List[Tuple[str, bool]] = [(value, False)]
    for separator in _SEPARATORS:
        if separator in value:
            suffix = value.rsplit(separator, 1)[1].strip()
            if suffix and suffix != value:
                candidates.append((suffix, True))
            break
    return candidates


def discover_crossref_links(
    source: "LinkFeatures", target: "LinkFeatures", config: Optional[LinkConfig] = None
) -> LinkSet:
    """Match one source's attributes against a target's accessions."""
    config = config or LinkConfig()
    result = LinkSet()
    if source.resolver is None or target.accessions is None or target.name == source.name:
        return result  # nothing to anchor links on, or nothing to point at
    accessions, target_attr = target.accessions
    for attr in source.crossref_attributes:
        matches, encoded_any = _match_attribute(source.decoded(attr), accessions)
        if len(matches) < config.min_absolute_matches:
            continue
        fraction = len(matches) / max(source.statistics[attr].non_null_count, 1)
        if fraction < config.min_match_fraction:
            continue
        result.attribute_links.append(
            AttributeLink(
                source=source.name,
                source_attribute=attr,
                target=target.name,
                target_attribute=target_attr,
                score=fraction,
                kind="crossref",
                encoded=encoded_any,
            )
        )
        result.object_links.extend(
            _materialize_object_links(source, attr, matches, target.name, config)
        )
    return result


# ----------------------------------------------------------------------
def _match_attribute(
    decoded: List[Tuple[str, List[Tuple[str, bool]]]],
    target_accessions: FrozenSet[str],
) -> Tuple[Dict[str, Tuple[str, bool]], bool]:
    """Distinct source values that resolve to a target accession.

    Returns ({source_value: (matched_accession, encoded)}, any_encoded).
    """
    matches: Dict[str, Tuple[str, bool]] = {}
    encoded_any = False
    for value, candidates in decoded:
        for candidate, encoded in candidates:
            if candidate in target_accessions:
                matches[value] = (candidate, encoded)
                encoded_any = encoded_any or encoded
                break
    return matches, encoded_any


def _materialize_object_links(
    source: "LinkFeatures",
    attr: AttributeRef,
    matches: Dict[str, Tuple[str, bool]],
    target_name: str,
    config: LinkConfig,
) -> List[ObjectLink]:
    links: List[ObjectLink] = []
    seen: Set[Tuple[str, str]] = set()
    # Index-driven: pull only the rows holding a matched value from the
    # ColumnStore's value->row_ids index, in row order (the order the old
    # full scan produced, so first-wins deduplication is unchanged).
    row_ids_index = source.database.table(attr.table).columns.row_ids(attr.column)
    matched_rows: List[Tuple[int, str]] = []
    for value in matches:
        for row_id in row_ids_index.get(value, ()):
            matched_rows.append((row_id, value))
    matched_rows.sort()
    for row_id, value in matched_rows:
        accession_b, encoded = matches[value]
        for owner in source.owners(attr.table, row_id):
            key = (owner, accession_b)
            if key in seen:
                continue
            seen.add(key)
            links.append(
                ObjectLink(
                    source_a=source.name,
                    accession_a=owner,
                    source_b=target_name,
                    accession_b=accession_b,
                    kind="crossref",
                    certainty=config.encoded_certainty if encoded else config.crossref_certainty,
                    evidence=f"{attr.qualified}={value}",
                )
            )
    return links
