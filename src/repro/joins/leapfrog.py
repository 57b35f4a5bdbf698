"""Leapfrog-Triejoin-style multiway sorted intersection.

Worst-case optimal join algorithms (Leapfrog Triejoin, NPRR / Generic Join)
reduce the star query to repeated intersections of sorted lists.  This module
provides the two sorted-intersection primitives — pairwise galloping
("leapfrog") search and k-way intersection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted integer arrays.

    Uses galloping (binary) search from the smaller array into the larger
    one, which is the leapfrog primitive and costs
    ``O(min * log(max / min))``.
    """
    if a.size == 0 or b.size == 0:
        return _EMPTY
    small, large = (a, b) if a.size <= b.size else (b, a)
    positions = np.searchsorted(large, small)
    valid = positions < large.size
    hits = np.zeros(small.size, dtype=bool)
    hits[valid] = large[positions[valid]] == small[valid]
    return small[hits]


def leapfrog_intersection(lists: Sequence[np.ndarray]) -> np.ndarray:
    """Intersect k sorted arrays, smallest first (leapfrog order)."""
    non_empty = [np.asarray(lst, dtype=np.int64) for lst in lists]
    if not non_empty:
        return _EMPTY
    if any(lst.size == 0 for lst in non_empty):
        return _EMPTY
    ordered = sorted(non_empty, key=lambda lst: lst.size)
    result = ordered[0]
    for lst in ordered[1:]:
        result = intersect_sorted(result, lst)
        if result.size == 0:
            break
    return result


_EMPTY = np.empty(0, dtype=np.int64)
