"""Duplicate detection: step 5 of the ALADIN pipeline (Section 4.5).

"In the fifth step we search for a special kind of 'links' between
primary objects in different data sources, i.e., those indicating that
the database objects represent the same real world object."

Key paper requirements honored here:

* duplicates are **flagged, never merged** ("here duplicates should be
  only flagged and not merged", Section 2);
* similarity is domain-independent string similarity ("literature defines
  several domain-independent similarity measures usually based on edit
  distance"), lifted to heterogeneously structured records the WN04 way —
  best-match pairing of field values without a priori field
  correspondences;
* blocking keeps the pair count manageable; clusters come from union-find;
  conflicts inside clusters are surfaced, not resolved ("Usually it is up
  to the experts to decide which of the values ... is correct").
"""

from repro.duplicates.similarity import (
    damerau_levenshtein,
    jaccard_ngrams,
    jaro,
    jaro_winkler,
    monge_elkan,
    token_cosine,
)
from repro.linking.editdistance import levenshtein, levenshtein_similarity
from repro.duplicates.record import RecordView, record_similarity
from repro.duplicates.blocking import (
    candidate_pairs_by_key,
    candidate_pairs_ngram,
    sorted_neighborhood_pairs,
)
from repro.duplicates.clustering import UnionFind, cluster_pairs
from repro.duplicates.detector import DuplicateConfig, DuplicateDetector
from repro.duplicates.conflicts import Conflict, find_conflicts

__all__ = [
    "Conflict",
    "DuplicateConfig",
    "DuplicateDetector",
    "RecordView",
    "UnionFind",
    "candidate_pairs_by_key",
    "candidate_pairs_ngram",
    "cluster_pairs",
    "damerau_levenshtein",
    "find_conflicts",
    "jaccard_ngrams",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_similarity",
    "monge_elkan",
    "record_similarity",
    "sorted_neighborhood_pairs",
    "token_cosine",
]
