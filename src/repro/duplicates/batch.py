"""Session-scoped record scoring for the chunked duplicate pass.

Every integrated source's duplicate candidates are scored in one
*chunk*: all pairs of the new source against its counterparts. ``Aladin``
scores every chunk, whichever entry point integrated the source, on one
session-scoped scorer that persists across maintenance calls. The scorer
exploits that shape twice, and the detector's threshold once more —
without changing a single result:

* **Value-pair cache.** Record values repeat heavily inside a source
  (shared GO terms, keywords, organism names), so the same value pair is
  scored again and again across the records of a chunk. The cache is
  keyed on the sorted value pair (every measure used is symmetric) and
  shared across all pairs of every chunk of the session.
* **Best-match bound.** ``record_similarity`` needs, per value, only the
  *maximum* similarity against the other record's values. For the
  expensive long-value path (token cosine blended with Levenshtein) the
  cosine half plus the length-difference Levenshtein bound
  (``distance >= |len(a) - len(b)|``) yields a cheap upper bound; sorted
  best-bound-first, candidates are only scored exactly while their bound
  exceeds the best exact score so far. A skipped candidate's similarity
  is provably <= the running best, so the maximum — and therefore every
  emitted link — is byte-identical to the unbounded scorer.

* **Threshold cut.** The detector drops every record pair scoring below
  ``similarity_threshold``, and almost all blocked pairs do. Given that
  ``floor``, the scorer works in two phases over the smaller record's
  values, heaviest first, and bounds the record score from above after
  each value; once the bound falls below the floor it returns the bound
  and the detector drops the pair unscored.

  - *Scan.* Each value gets the cheap pass of its best match: cache
    hits and short pairs are exact, and each long pair is deferred with
    its best-match bound. The value's slot in the record bound is the
    larger of its exact best and its top deferred bound; values not yet
    scanned hold ``_CEILING``. No Levenshtein runs in this phase, so a
    pair cut here costs none.
  - *Resolve.* A pair that survives the scan resolves each value's
    deferred pairs with the pruned Levenshtein loop above, turning its
    slot into its exact best match.

  A pair that reaches the floor is scored in full and summed in the
  original value order, so every emitted score is byte-identical to the
  unbounded scorer. Called without a floor, each value is scanned and
  resolved at once: the best match is ``resolve(scan(...))`` on every
  path.

Exactness over the float domain: the best-match bound and the real score
share the subexpression ``0.5*cos + 0.5*(1 - x/max_len)`` with ``x`` only
growing from the length difference to the true distance, and IEEE
division and addition are monotone, so ``bound >= score`` holds for the
computed floats, not just the real numbers. The threshold cut rests on
the same argument:

* its bound is the same sequence of float additions as the real score,
  in the original value order, with each value's slot in place of its
  best match;
* every slot is at least the value's computed best match: a scanned
  slot is the maximum of exact scores and deferred bounds, each at least
  the exact score it stands for, and an unscanned slot is ``_CEILING``;
* IEEE ``+``, ``*`` and ``/`` are monotone, so that bound is at least
  the computed score, for floats and not only for real numbers;
* ``_CEILING`` is at least anything ``_best_match`` returns, so ``1.0``
  will not do. Jaro-Winkler never exceeds ``1.0``, but the long-value
  blend's cosine can: ``counts_cosine`` of a value with itself may round
  to ``1.0000000000000002``. Its dot product and squared norms are exact
  integers, Cauchy-Schwarz bounds the real quotient by 1, and its two
  square roots, one product and one division each err by at most
  2**-53 relative, so the cosine stays below ``1 + 2**-50`` and the
  blend ``0.5*cos + 0.5*lev`` at most ``1 + 2**-51`` — far under
  ``_CEILING = 1 + 2**-30``;
* the exit test is strictly ``bound < floor``, the complement of the
  detector's ``similarity < threshold`` drop: a bound equal to the floor
  keeps scoring.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.duplicates.record import RecordView
from repro.duplicates.similarity import (
    TokenCounts,
    counts_cosine,
    jaro_winkler,
    token_counts,
)
from repro.linking.editdistance import levenshtein_similarity

_SHORT = 25  # same shape split as record._value_similarity
# Proven upper bound on every _best_match result (module docstring).
_CEILING = 1.0 + 2.0 ** -30
# A deferred long pair: (bound, other value lowercased, cosine, cache key).
_Deferred = Tuple[float, str, float, Tuple[str, str]]
# A scanned value: (value lowercased, exact best so far, top deferred
# bound, deferred pairs).
_Scan = Tuple[str, float, float, List[_Deferred]]


class BoundedRecordScorer:
    """``record_similarity`` with a shared cache, exact pruning and a cut.

    One instance per maintenance session (pass it to
    :class:`~repro.duplicates.detector.DuplicateDetector` as ``scorer``).
    Called without a ``floor`` it is a drop-in for ``record_similarity``;
    the detector passes its threshold as the floor (module docstring).

    ``max_entries`` bounds the value-pair cache with LRU eviction: the
    cache is a pure accelerator keyed on value pairs, so evicting an
    entry can only cost a re-computation, never change a score — which
    is what lets a *session-wide* scorer run for weeks without its cache
    tracking every distinct value pair ever seen. ``None``/``0`` leaves
    the cache unbounded (the right choice for a short-lived scorer, whose
    lifetime already bounds it).
    """

    def __init__(
        self,
        cache: Optional[Dict[Tuple[str, str], float]] = None,
        max_entries: Optional[int] = None,
    ):
        self.max_entries = int(max_entries) if max_entries else 0
        if self.max_entries:
            # LRU eviction needs recency order; seed entries count as
            # oldest, in their iteration order.
            self.cache: Dict[Tuple[str, str], float] = OrderedDict(cache or {})
        else:
            self.cache = cache if cache is not None else {}
        self.exact_scores = 0  # similarity computations actually performed
        # Deferred long candidates the resolve loop skipped on their
        # bound; those of a pair cut in the scan are never resolved and
        # count nowhere.
        self.pruned = 0
        self.cache_hits = 0
        self.evictions = 0  # entries dropped by the LRU bound
        self.early_exits = 0  # record pairs cut below their floor

    def stats(self) -> Dict[str, int]:
        """The scorer's counters as one JSON-safe dict — the shape the
        ``scorer.*`` gauges report."""
        return {
            "exact_scores": self.exact_scores,
            "pruned": self.pruned,
            "cache_hits": self.cache_hits,
            "evictions": self.evictions,
            "early_exits": self.early_exits,
            "cache_entries": len(self.cache),
        }

    def _cached(self, key: Tuple[str, str]) -> Optional[float]:
        """The cached score of ``key``, or None; a hit is counted and
        refreshes the entry's LRU recency."""
        score = self.cache.get(key)
        if score is not None:
            self.cache_hits += 1
            if self.max_entries:
                self.cache.move_to_end(key)  # refresh LRU recency
        return score

    def _cache_store(self, key: Tuple[str, str], score: float) -> None:
        cache = self.cache
        cache[key] = score
        if self.max_entries and len(cache) > self.max_entries:
            cache.popitem(last=False)  # least recently used
            self.evictions += 1

    # ------------------------------------------------------------------
    def __call__(
        self,
        a: RecordView,
        b: RecordView,
        floor: Optional[float] = None,
        counts: Optional[Dict[str, TokenCounts]] = None,
    ) -> float:
        """The record similarity of ``a`` and ``b``, bit for bit.

        With a ``floor``, a pair that provably scores below it may return
        an upper bound instead, itself below the floor; a pair scoring at
        least ``floor`` always gets its exact score. ``counts`` memoizes
        :func:`token_counts` by value; the caller owns it and decides how
        long it lives (the detector keeps one per chunk).
        """
        if not a.values and not b.values:
            return 1.0
        if not a.values or not b.values:
            return 0.0
        smaller, larger = (a, b) if len(a.values) <= len(b.values) else (b, a)
        values, candidates = smaller.values, larger.values
        weights = [float(len(value)) for value in values]
        if floor is None:
            return _weighted_mean(
                [self._best_match(value, candidates, counts) for value in values],
                weights,
            )
        # Heaviest first: the bound drops fastest. Stable on ties.
        order = sorted(range(len(values)), key=weights.__getitem__, reverse=True)
        bests = [_CEILING] * len(values)
        scans: List[Optional[_Scan]] = [None] * len(values)
        # Phase 1: scan every value; no Levenshtein runs yet.
        for index in order:
            scan = scans[index] = self._scan(values[index], candidates, counts)
            _value_lower, best, top, _deferred = scan
            bests[index] = max(best, top, 0.0)  # at least its best match
            bound = _weighted_mean(bests, weights)
            if bound < floor:
                self.early_exits += 1
                return bound
        # Phase 2: resolve the deferred long pairs, heaviest value first.
        for step, index in enumerate(order, 1):
            bests[index] = self._resolve(*scans[index])
            if step < len(values):
                bound = _weighted_mean(bests, weights)
                if bound < floor:
                    self.early_exits += 1
                    return bound
        return _weighted_mean(bests, weights)

    # ------------------------------------------------------------------
    def _best_match(
        self,
        value: str,
        candidates: List[str],
        counts: Optional[Dict[str, TokenCounts]] = None,
    ) -> float:
        """``value``'s best similarity against ``candidates``."""
        return self._resolve(*self._scan(value, candidates, counts))

    def _scan(
        self,
        value: str,
        candidates: List[str],
        counts: Optional[Dict[str, TokenCounts]] = None,
    ) -> _Scan:
        """The cheap pass of a best match: everything but Levenshtein.

        Cache hits and short pairs are exact and give ``best``; each long
        pair is deferred with its cosine/length-difference bound, the
        largest of which is ``top``.
        """
        if counts is None:
            counts = {}
        vlen = len(value)
        # The Levenshtein half is scored over *lowercased* strings, and
        # lowercasing can change a string's length (e.g. 'İ' -> 'i̇'), so
        # the length-difference bound must use the lowercased lengths or
        # it stops being an upper bound.
        value_lower = value.lower()
        value_counts: Optional[TokenCounts] = None  # built on first long pair
        best = top = -1.0
        deferred: List[_Deferred] = []
        cached = self._cached
        for other in candidates:
            key = (value, other) if value <= other else (other, value)
            hit = cached(key)
            if hit is not None:
                if hit > best:
                    best = hit
                continue
            if vlen <= _SHORT and len(other) <= _SHORT:
                # Short values: Jaro-Winkler is cheap, score directly.
                score = jaro_winkler(value_lower, other.lower())
                self._cache_store(key, score)
                self.exact_scores += 1
                if score > best:
                    best = score
            else:
                if value_counts is None:
                    value_counts = counts.get(value)
                    if value_counts is None:
                        value_counts = counts[value] = token_counts(value)
                other_counts = counts.get(other)
                if other_counts is None:
                    other_counts = counts[other] = token_counts(other)
                cosine = counts_cosine(value_counts, other_counts)
                other_lower = other.lower()
                longest = max(len(value_lower), len(other_lower))
                bound = 0.5 * cosine + 0.5 * (
                    1.0 - abs(len(value_lower) - len(other_lower)) / longest
                )
                deferred.append((bound, other_lower, cosine, key))
                if bound > top:
                    top = bound
        return value_lower, best, top, deferred

    def _resolve(
        self, value_lower: str, best: float, top: float, deferred: List[_Deferred]
    ) -> float:
        """Finish a scan: Levenshtein for each deferred pair whose bound
        still beats the running best; the value's exact best match.

        A pair already in the cache was resolved earlier in this call: a
        value repeated in either record defers the same pair more than
        once (within one scan, or in the scans of two equal values of the
        smaller record), and one Levenshtein run answers them all.
        """
        if top > best:
            # Best bound first: as soon as a bound cannot beat the
            # running best, neither can anything after it.
            deferred.sort(key=lambda entry: -entry[0])
        for position, (bound, other_lower, cosine, key) in enumerate(deferred):
            if bound <= best:
                self.pruned += len(deferred) - position
                break
            score = self._cached(key)
            if score is None:
                score = 0.5 * cosine + 0.5 * levenshtein_similarity(
                    value_lower, other_lower
                )
                self._cache_store(key, score)
                self.exact_scores += 1
            if score > best:
                best = score
        return best if best >= 0.0 else 0.0


def _weighted_mean(bests: List[float], weights: List[float]) -> float:
    """``record_similarity``'s length-weighted mean, summed in value order."""
    total_weight = 0.0
    total_score = 0.0
    for best, weight in zip(bests, weights):
        total_weight += weight
        total_score += best * weight
    return total_score / total_weight if total_weight else 0.0
