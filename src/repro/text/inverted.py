"""Sorted-list intersection and union.

The textbook posting-list operations both DESKS and the LkT baseline
build on: conjunctive keyword matching intersects sorted document
(POI / region) id lists, disjunctive matching unions them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence


def intersect_sorted(lists: Sequence[Sequence[int]]) -> List[int]:
    """Intersection of sorted id lists, shortest-first with galloping probes.

    Classic conjunctive-query evaluation: seed candidates from the shortest
    list and binary-search the rest, which is near-optimal when document
    frequencies are skewed (they are, under Zipf).
    """
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    if not ordered[0]:
        return []
    result = list(ordered[0])
    for other in ordered[1:]:
        if not result:
            break
        kept = []
        pos = 0
        for value in result:
            pos = bisect_left(other, value, pos)
            if pos < len(other) and other[pos] == value:
                kept.append(value)
        result = kept
    return result


def union_sorted(lists: Sequence[Sequence[int]]) -> List[int]:
    """Union of sorted id lists, as a sorted, deduplicated list.

    Disjunctive-query evaluation: a k-way merge would be asymptotically
    nicer, but a heap-free merge over Python lists loses to sort() on the
    concatenation for realistic posting counts, so this does the simple
    thing.
    """
    merged = sorted({value for lst in lists for value in lst})
    return merged

