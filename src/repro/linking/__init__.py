"""Link discovery: step 4 of the ALADIN pipeline (Section 4.4).

Two kinds of links between objects of *different* sources:

* **explicit** cross-references — attribute values that are accession
  numbers of another source's primary objects, possibly encoded as
  ``"DB:ACC"`` strings (:mod:`crossref`);
* **implicit** relationships — similarity between sequence fields
  (:mod:`seqlinks` via :mod:`blast`/:mod:`alignment`), between long text
  fields (:mod:`textlinks`), names recognized in free text matched against
  unique fields (:mod:`ner`), and shared controlled-vocabulary terms
  (:mod:`ontologylinks`).

Candidate attribute pairs are pruned with per-attribute statistics
(:mod:`stats`, :mod:`pruning`) that are "computed only once for each data
source and can then be reused for subsequently added data sources"; the
same holds for everything else a channel derives from one source alone,
which :mod:`features` builds once per registered source.
Schema matching (:mod:`schemamatch`) provides the attribute-correspondence
machinery the paper relates this step to.
"""

from repro.linking.model import AttributeLink, LinkConfig, LinkSet, ObjectLink
from repro.linking.stats import AttributeStatistics, collect_statistics
from repro.linking.pruning import is_link_source_candidate, is_link_target_candidate
from repro.linking.resolve import ObjectResolver
from repro.linking.crossref import discover_crossref_links
from repro.linking.seqfields import SequenceField, detect_sequence_fields
from repro.linking.alignment import AlignmentResult, needleman_wunsch, smith_waterman
from repro.linking.blast import BlastHit, BlastIndex
from repro.linking.seqlinks import discover_sequence_links
from repro.linking.textlinks import TfIdfIndex, discover_text_links
from repro.linking.ner import extract_entity_names, discover_name_links
from repro.linking.ontologylinks import discover_ontology_links
from repro.linking.engine import LinkDiscoveryEngine

__all__ = [
    "AlignmentResult",
    "AttributeLink",
    "AttributeStatistics",
    "BlastHit",
    "BlastIndex",
    "LinkConfig",
    "LinkDiscoveryEngine",
    "LinkSet",
    "ObjectLink",
    "ObjectResolver",
    "SequenceField",
    "TfIdfIndex",
    "collect_statistics",
    "detect_sequence_fields",
    "discover_crossref_links",
    "discover_name_links",
    "discover_ontology_links",
    "discover_sequence_links",
    "discover_text_links",
    "extract_entity_names",
    "is_link_source_candidate",
    "is_link_target_candidate",
    "needleman_wunsch",
    "smith_waterman",
]
