"""Biological named-entity recognition for name links.

Section 4.4: "methods for finding names of biological entities in natural
text can be used for extracting names that are matched with unique fields
of primary relations potentially holding the name of objects" (citing
GAPSCORE-style recognizers [CSA04] and feature-based recognizers
[HBP+05]).

Reproduction-scale recognizer: token-shape patterns (gene-symbol shapes
like ``KIN2``, ``p53``, ``BRCA1`` — short tokens mixing letters and
digits or all-caps) plus a dictionary matcher fed by the unique name
fields of the target source, which is exactly where the paper says the
dictionary comes from.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.discovery.model import SourceStructure
from repro.linking.model import LinkConfig, LinkSet, ObjectLink
from repro.relational.database import Database

if TYPE_CHECKING:
    from repro.linking.features import LinkFeatures

# Gene-symbol-like shapes: uppercase runs with optional digits (KIN2,
# BRCA1, TP53), or lowercase-letter + digits (p53).
_SHAPE_RE = re.compile(r"\b(?:[A-Z]{2,6}[0-9]{0,3}|[a-z][0-9]{2,3})\b")


def extract_entity_names(text: str, min_length: int = 3) -> List[str]:
    """Candidate entity names found in free text, in occurrence order."""
    seen: Set[str] = set()
    names: List[str] = []
    for match in _SHAPE_RE.finditer(text):
        name = match.group(0)
        if len(name) < min_length:
            continue
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def name_dictionary(database: Database, structure: SourceStructure) -> Dict[str, str]:
    """name -> accession for unique text fields of a source's primary relation.

    Only unique fields qualify ("matched with unique fields of primary
    relations potentially holding the name of objects").
    """
    primary = structure.primary_relation
    if primary is None:
        return {}
    accession_attr = structure.primary_accession()
    if accession_attr is None:
        return {}
    dictionary: Dict[str, str] = {}
    table = database.table(primary)
    for attr in sorted(structure.unique_attributes, key=lambda a: a.qualified):
        if attr.table != primary or attr == accession_attr:
            continue
        if table.schema.column(attr.column).data_type.is_numeric:
            continue
        for row in table.rows():
            name = row.get(attr.column)
            accession = row.get(accession_attr.column)
            if isinstance(name, str) and accession is not None:
                dictionary.setdefault(name, accession)
                # Symbols are often embedded in composite names (KIN2_HUMAN):
                # index the leading token too.
                head = re.split(r"[_\s]", name)[0]
                if head and head != name:
                    dictionary.setdefault(head, accession)
    return dictionary


def discover_name_links(
    source: "LinkFeatures", target: "LinkFeatures", config: Optional[LinkConfig] = None
) -> LinkSet:
    """Links from names recognized in source text to target objects."""
    config = config or LinkConfig()
    result = LinkSet()
    dictionary = target.name_dictionary
    if not dictionary or source.resolver is None:
        return result
    seen: Set[tuple] = set()
    for attr in source.text_attributes:
        for row_id, names in source.mentions(attr):
            owners = None  # resolved lazily: most rows have no dictionary hit
            for name in names:
                accession_b = dictionary.get(name)
                if accession_b is None:
                    continue
                if owners is None:
                    owners = source.owners(attr.table, row_id)
                for owner in owners:
                    key = (owner, accession_b)
                    if key in seen:
                        continue
                    seen.add(key)
                    result.object_links.append(
                        ObjectLink(
                            source_a=source.name,
                            accession_a=owner,
                            source_b=target.name,
                            accession_b=accession_b,
                            kind="name",
                            certainty=config.name_certainty,
                            evidence=f"{attr.qualified} mentions {name!r}",
                        )
                    )
    return result
