"""Projection and deduplication operators.

Section 6 of the paper describes two deduplication strategies for the light
part of the join — a reusable counter array (cheap when the z-domain fits in
cache) and sort-based dedup (cheap when only a few values must be
deduplicated) — and picks the better one per x value.  This module implements
both, plus the plain hash-set strategy conventional engines use, behind one
:class:`Deduplicator` facade so callers (and the ablation benchmark) can
switch strategies explicitly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.data.pairblock import CountedPairBlock, PairBlock

Pair = Tuple[int, int]

DEDUP_STRATEGIES = ("hash", "sort", "counter", "auto")


class Deduplicator:
    """Deduplicate the z values reachable from a fixed x value.

    Parameters
    ----------
    domain_size:
        Upper bound on z values (exclusive); required by the counter strategy.
    strategy:
        One of ``hash``, ``sort``, ``counter`` or ``auto``.  ``auto`` follows
        the paper: use the counter array when the expected number of items is
        a sizeable fraction of the domain, otherwise sort.
    """

    def __init__(self, domain_size: int, strategy: str = "auto") -> None:
        if strategy not in DEDUP_STRATEGIES:
            raise ValueError(f"unknown dedup strategy {strategy!r}")
        self.domain_size = int(domain_size)
        self.strategy = strategy
        self._counter = (
            np.zeros(self.domain_size, dtype=np.int32)
            if strategy in ("counter", "auto") and self.domain_size > 0
            else None
        )

    def dedup(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Deduplicate the concatenation of the given arrays of z values."""
        chunks = [np.asarray(v, dtype=np.int64) for v in values if len(v)]
        if not chunks:
            return _EMPTY
        total = sum(c.size for c in chunks)
        strategy = self.strategy
        if strategy == "auto":
            dense_enough = self.domain_size > 0 and total >= self.domain_size // 8
            strategy = "counter" if dense_enough and self._counter is not None else "sort"
        if strategy == "hash":
            return self._dedup_hash(chunks)
        if strategy == "sort":
            return self._dedup_sort(chunks)
        return self._dedup_counter(chunks)

    def dedup_with_counts(self, values: Sequence[np.ndarray]) -> Dict[int, int]:
        """Deduplicate and return witness counts ``{z: multiplicity}``."""
        counts: Dict[int, int] = {}
        for chunk in values:
            for z in chunk:
                zi = int(z)
                counts[zi] = counts.get(zi, 0) + 1
        return counts

    # -- strategies ---------------------------------------------------------
    @staticmethod
    def _dedup_hash(chunks: List[np.ndarray]) -> np.ndarray:
        seen: Set[int] = set()
        for chunk in chunks:
            seen.update(int(v) for v in chunk)
        return np.asarray(sorted(seen), dtype=np.int64)

    @staticmethod
    def _dedup_sort(chunks: List[np.ndarray]) -> np.ndarray:
        return np.unique(np.concatenate(chunks))

    def _dedup_counter(self, chunks: List[np.ndarray]) -> np.ndarray:
        if self._counter is None:
            self._counter = np.zeros(self.domain_size, dtype=np.int32)
        counter = self._counter
        touched = np.concatenate(chunks)
        counter[touched] += 1
        uniques = np.unique(touched)
        counter[touched] = 0  # reset only the cells we touched (cheap reuse)
        return uniques


def dedup_pairs(pairs: Iterable[Pair]) -> Set[Pair]:
    """Deduplicate an iterable of pairs into a set."""
    return set((int(a), int(b)) for a, b in pairs)


def dedup_tuples(tuples: Iterable[Tuple[int, ...]]) -> Set[Tuple[int, ...]]:
    """Deduplicate an iterable of tuples of any arity."""
    return set(tuple(int(v) for v in t) for t in tuples)


def sort_dedup_pairs(pairs: Sequence[Pair]) -> List[Pair]:
    """Sort-based deduplication of a materialised pair list.

    Routed through the columnar :class:`~repro.data.pairblock.PairBlock`
    (one packed-key sort, canonical order).
    """
    if not pairs:
        return []
    return list(PairBlock.from_pairs(pairs).dedup())


def project_join_counts(full_join: Iterable[Tuple[int, int, int]]) -> Dict[Pair, int]:
    """Project (x, y, z) tuples onto (x, z) and count witnesses.

    The (x, z) expansion is aggregated columnar (run lengths of the sorted packed
    keys) instead of a per-tuple Python dict accumulation.
    """
    rows = np.asarray(list(full_join), dtype=np.int64)
    if rows.size == 0:
        return {}
    expansion = PairBlock((rows[:, 0], rows[:, 2]))
    return CountedPairBlock.from_expansion(expansion).dedup().to_dict()


def merge_pair_sets(*sets: Set[Pair]) -> Set[Pair]:
    """Union several pair sets (the final step of Algorithm 1)."""
    merged: Set[Pair] = set()
    for s in sets:
        merged |= s
    return merged


_EMPTY = np.empty(0, dtype=np.int64)
