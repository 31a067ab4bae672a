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
  *maximum* similarity against the other record's values. For a long
  pair (token cosine blended with Levenshtein) the cosine half plus the
  length-difference Levenshtein bound (``distance >= |len(a) - len(b)|``)
  yields a cheap upper bound, and for a short pair (Jaro-Winkler) the
  character-count bound below; sorted best-bound-first, candidates are only scored exactly while their bound
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
    hits are exact, and every other pair is deferred with an upper
    bound on its score — a long pair with its cosine/length-difference
    bound, a short pair with its Jaro-Winkler bound (below). The value's
    slot in the record bound is the larger of its exact best and its top
    deferred bound; values not yet scanned hold ``_CEILING``. Neither
    Levenshtein nor Jaro-Winkler runs in this phase, so a pair cut here
    costs neither.
  - *Resolve.* A pair that survives the scan resolves each value's
    deferred pairs best bound first, Levenshtein for a long pair and
    Jaro-Winkler for a short one, skipping every pair whose bound cannot
    beat the running best; the slot becomes the value's exact best match.

  A pair that reaches the floor is scored in full and summed in the
  original value order, so every emitted score is byte-identical to the
  unbounded scorer. Called without a floor, the same two phases run and
  no pair is cut.

Every value's lowercased text, token counts and (short values only)
lowercased character counts are read from its record view's
:meth:`~repro.duplicates.record.RecordView.prepared` features, built
once per view; the scan computes none of them.

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
* ``_CEILING`` is at least any value's resolved best match, so ``1.0``
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

The short-pair bound is sound for the computed floats too:

* *Jaro.* Let ``c`` be the size of the intersection of the two
  lowercased strings' character multisets. Jaro's match count ``m``
  pairs equal characters, each position at most once, so ``m <= c``.
  Rounding is monotone, so ``fl(m/|a|) <= fl(c/|a|)`` and likewise for
  ``|b|``, and ``fl((m - t)/m) <= 1.0`` because ``(m - t)/m <= 1``. IEEE
  ``+`` and ``/3.0`` are monotone, so the computed Jaro is at most the
  computed ``(c/|a| + c/|b| + 1.0)/3.0``; for equal strings both are
  exactly ``1.0``. ``c = 0`` means no match, a Jaro of exactly ``0.0``
  and no common prefix, so the bound returns the score itself.
* *Winkler.* The boost ``j + p*0.1*(1 - j)`` with the exact common
  prefix ``p <= 4`` is monotone in ``j`` over the reals (its slope is
  ``1 - p*0.1 > 0``), but not provably so after rounding. Every term
  lies in ``[0, 1]``, so each side's computed boost is within
  ``3 * 2**-53`` of its real value, and ``_WINKLER_SLACK = 2**-48``
  covers the two errors many times over. Any
  slack well under ``2**-30`` keeps the ``_CEILING`` argument intact: a
  short pair's bound stays below ``1 + 2**-47``, so a scanned slot never
  exceeds the ``_CEILING`` it replaces.
* *Short/long split.* The bound runs on the lowercased strings, as
  ``jaro_winkler`` does; whether a pair is short is decided on the
  original lengths, as ``record._value_similarity`` decides it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.duplicates.record import PreparedValue, RecordView
from repro.duplicates.similarity import counts_cosine, jaro_winkler
from repro.linking.editdistance import levenshtein_similarity

# Proven upper bound on every value's best match (module docstring).
_CEILING = 1.0 + 2.0 ** -30
# Covers the rounding of the Winkler step in a short pair's bound.
_WINKLER_SLACK = 2.0 ** -48
# A deferred pair: (bound, other value lowercased, cosine or None for a
# short pair, cache key).
_Deferred = Tuple[float, str, Optional[float], Tuple[str, str]]
# A scanned value: (value lowercased, exact best so far, top deferred
# bound, deferred pairs).
_Scan = Tuple[str, float, float, List[_Deferred]]


def jaro_winkler_bound(a: PreparedValue, b: PreparedValue) -> float:
    """An upper bound on ``jaro_winkler(a.lower, b.lower)`` for two short
    values, from their character counts and common prefix (module
    docstring)."""
    a_lower, b_lower = a.lower, b.lower
    if not a_lower or not b_lower:
        return 1.0 if a_lower == b_lower else 0.0  # jaro's exact cases
    b_bag = b.bag
    common = 0
    for char, count in a.bag.items():
        other = b_bag.get(char)
        if other:
            common += count if count < other else other
    if not common:
        return 0.0  # no match: Jaro 0.0 and no common prefix
    base = (common / len(a_lower) + common / len(b_lower) + 1.0) / 3.0
    prefix = 0
    for char_a, char_b in zip(a_lower[:4], b_lower[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return base + prefix * 0.1 * (1.0 - base) + _WINKLER_SLACK


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
        # Levenshtein and Jaro-Winkler runs, all in the resolve loop.
        self.exact_scores = 0
        # Deferred candidates the resolve loop skipped on their bound;
        # those of a pair cut in the scan are never resolved and count
        # nowhere.
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
        self, a: RecordView, b: RecordView, floor: Optional[float] = None
    ) -> float:
        """The record similarity of ``a`` and ``b``, bit for bit.

        With a ``floor``, a pair that provably scores below it may return
        an upper bound instead, itself below the floor; a pair scoring at
        least ``floor`` always gets its exact score.
        """
        if not a.values and not b.values:
            return 1.0
        if not a.values or not b.values:
            return 0.0
        smaller, larger = (a, b) if len(a.values) <= len(b.values) else (b, a)
        values, candidates = smaller.prepared(), larger.prepared()
        weights = [float(len(value)) for value in smaller.values]
        if floor is None:
            floor = -math.inf  # cut nothing
        # Heaviest first: the bound drops fastest. Stable on ties.
        order = sorted(range(len(values)), key=weights.__getitem__, reverse=True)
        bests = [_CEILING] * len(values)
        scans: List[Optional[_Scan]] = [None] * len(values)
        # Phase 1: scan every value; no Levenshtein or Jaro-Winkler yet.
        for index in order:
            scan = scans[index] = self._scan(values[index], candidates)
            _value_lower, best, top, _deferred = scan
            bests[index] = max(best, top, 0.0)  # at least its best match
            bound = _weighted_mean(bests, weights)
            if bound < floor:
                self.early_exits += 1
                return bound
        # Phase 2: resolve the deferred pairs, heaviest value first.
        for step, index in enumerate(order, 1):
            bests[index] = self._resolve(*scans[index])
            if step < len(values):
                bound = _weighted_mean(bests, weights)
                if bound < floor:
                    self.early_exits += 1
                    return bound
        return _weighted_mean(bests, weights)

    # ------------------------------------------------------------------
    def _scan(
        self, value: PreparedValue, candidates: Sequence[PreparedValue]
    ) -> _Scan:
        """The cheap pass of a best match: no Levenshtein, no Jaro-Winkler.

        Cache hits are exact and give ``best``; every other pair is
        deferred with its upper bound, the largest of which is ``top``.
        """
        text, value_lower, bag, value_counts = value
        # The Levenshtein half is scored over *lowercased* strings, and
        # lowercasing can change a string's length (e.g. 'İ' -> 'i̇'), so
        # the length-difference bound must use the lowercased lengths or
        # it stops being an upper bound.
        value_length = len(value_lower)
        best = top = -1.0
        deferred: List[_Deferred] = []
        cached = self._cached
        for other in candidates:
            other_text, other_lower, other_bag, other_counts = other
            key = (text, other_text) if text <= other_text else (other_text, text)
            hit = cached(key)
            if hit is not None:
                if hit > best:
                    best = hit
                continue
            if bag is not None and other_bag is not None:
                # Both values short (original lengths): Jaro-Winkler.
                cosine = None
                bound = jaro_winkler_bound(value, other)
            else:
                cosine = counts_cosine(value_counts, other_counts)
                other_length = len(other_lower)
                longest = max(value_length, other_length)
                bound = 0.5 * cosine + 0.5 * (
                    1.0 - abs(value_length - other_length) / longest
                )
            deferred.append((bound, other_lower, cosine, key))
            if bound > top:
                top = bound
        return value_lower, best, top, deferred

    def _resolve(
        self, value_lower: str, best: float, top: float, deferred: List[_Deferred]
    ) -> float:
        """Finish a scan: score each deferred pair whose bound still beats
        the running best; the value's exact best match.

        A pair already in the cache was resolved earlier in this call: a
        value repeated in either record defers the same pair more than
        once (within one scan, or in the scans of two equal values of the
        smaller record), and one run answers them all.
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
                if cosine is None:
                    score = jaro_winkler(value_lower, other_lower)
                else:
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
