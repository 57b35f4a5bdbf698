"""Leapfrog-Triejoin-style multiway sorted intersection.

Worst-case optimal join algorithms (Leapfrog Triejoin, NPRR / Generic Join)
reduce the star query to repeated intersections of sorted lists.  This module
provides the sorted-intersection primitives — pairwise galloping ("leapfrog")
search and k-way intersection — plus the full-join enumerator for star
queries that Generic Join builds on.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.data.relation import Relation


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


def intersection_size(lists: Sequence[np.ndarray]) -> int:
    """Size of the k-way intersection without materialising tuples."""
    return int(leapfrog_intersection(lists).size)


def star_full_join(relations: Sequence[Relation]) -> Iterator[Tuple[int, ...]]:
    """Enumerate the *full* star join ``R1(x1,y), ..., Rk(xk,y)``.

    Tuples are emitted as ``(y, x1, x2, ..., xk)``.  The enumeration is
    worst-case optimal for the star query: for every shared ``y`` value the
    cartesian product of the per-relation neighbour lists is produced, and
    ``y`` values missing from any relation are skipped via the k-way
    intersection of the y-domains.
    """
    if not relations or any(len(r) == 0 for r in relations):
        return
    y_domains = [r.y_values() for r in relations]
    shared_ys = leapfrog_intersection(y_domains)
    indexes = [r.index_y() for r in relations]
    for y in shared_ys:
        neighbour_lists = [idx[int(y)] for idx in indexes]
        yield from _cartesian_with_prefix((int(y),), neighbour_lists)


def _cartesian_with_prefix(
    prefix: Tuple[int, ...], lists: List[np.ndarray]
) -> Iterator[Tuple[int, ...]]:
    """Yield ``prefix + combination`` for every combination of the lists."""
    if not lists:
        yield prefix
        return
    head, *tail = lists
    for value in head:
        yield from _cartesian_with_prefix(prefix + (int(value),), tail)


_EMPTY = np.empty(0, dtype=np.int64)
