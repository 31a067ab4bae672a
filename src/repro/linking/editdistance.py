"""Edit distance, at the bottom of the linking layer.

Levenshtein lives here — not in ``duplicates`` — because schema matching
(``linking.schemamatch``) needs it and linking sits *below* duplicate
detection in the layer map: attribute links feed object links feed
duplicate detection, never the other way around. Its callers — schema
matching (``namematch``, ``flooding``) and the duplicate scorers
(``duplicates.record``, ``duplicates.batch``) — import it from here;
``repro.duplicates`` lists it in its public surface.

The kernel is Myers' bit-vector algorithm (J. ACM 46(3), 1999) in
Hyyrö's formulation for unrestricted Levenshtein distance (2001). The
shorter string is the pattern: each column of the O(n*m) dynamic
program is held as two bit vectors of vertical +1/-1 deltas, one bit per
pattern character, and advanced by a constant number of word operations
per text character. Python ints serve as arbitrary-width bit vectors, so
the cost is O(max(n, m)) big-int operations, each over ceil(min(n, m)/w)
machine words, and the result is the exact integer distance the
textbook DP computes.
"""

from __future__ import annotations

from typing import Dict


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    # a is the pattern: bit i of peq[c] is set iff a[i] == c.
    peq: Dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv = mask  # vertical +1 deltas: column 0 is 0, 1, ..., len(a)
    mv = 0  # vertical -1 deltas
    score = len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        # Bits above the pattern never flow back down (shifts go up, and
        # the carry in xh only reaches higher bits), so masking pv alone
        # keeps every tested bit exact; mv stays within xv's width.
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_similarity(a: str, b: str) -> float:
    """1 - normalized edit distance."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))
