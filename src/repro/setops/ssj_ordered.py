"""Ordered set similarity join (paper Section 4 "Ordered SSJ" / Section 7.3).

The ordered variant returns the similar pairs sorted by decreasing overlap,
so the most similar pairs are seen first.  The matrix-multiplication-based
join has a structural advantage here: the witness counts required for the
ordering come for free from the product matrix, whereas SizeAware has to
re-verify every light pair to learn its exact overlap.  All methods therefore
delegate to their unordered counterparts and differ only in how the counts
are obtained, after which the result is sorted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.data.pairblock import CountedPairBlock
from repro.data.setfamily import SetFamily
from repro.setops.ssj import set_similarity_join

Pair = Tuple[int, int]


@dataclass
class OrderedSSJResult:
    """Similar pairs sorted by decreasing overlap (ties: ascending pair).

    ``ranked`` holds the rows in that order as a counted block; Python tuples
    are built only for the rows a caller asks for — :meth:`top` for a prefix,
    ``ordered_pairs`` / iteration / :meth:`pairs` for all of them.
    """

    ranked: CountedPairBlock
    method: str
    overlap: int
    timings: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ordered_pairs)

    def top(self, k: int) -> List[Tuple[Pair, int]]:
        """The k most similar pairs."""
        k = max(int(k), 0)
        a_col, b_col = self.ranked.columns
        return list(zip(zip(a_col[:k].tolist(), b_col[:k].tolist()),
                        self.ranked.counts[:k].tolist()))

    @cached_property
    def ordered_pairs(self) -> List[Tuple[Pair, int]]:
        """Every ``((a, b), overlap)``, most similar first."""
        return self.top(len(self))

    def pairs(self) -> List[Pair]:
        """Just the pairs, most similar first."""
        return [pair for pair, _ in self.ordered_pairs]


def ordered_set_similarity_join(
    family: SetFamily,
    c: int = 1,
    method: str = "mmjoin",
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> OrderedSSJResult:
    """Enumerate similar pairs in decreasing order of overlap.

    ``method`` accepts the same values as the unordered dispatcher.  Methods
    that do not already know every pair's overlap (plain SizeAware) verify
    the missing overlaps before sorting, which is exactly the extra cost the
    paper attributes to them in Figures 5e/5f.
    """
    start = time.perf_counter()
    unordered = set_similarity_join(family, c=c, method=method, config=config)
    verify_start = time.perf_counter()
    block = unordered.block
    if block is None:
        counts = dict(unordered.counts)
        for a, b in unordered.pairs - counts.keys():
            counts[(a, b)] = family.intersection_size(a, b)
        block = CountedPairBlock.from_dict(counts).dedup("max")
    sort_start = time.perf_counter()
    # The block is in ascending pair order, so the row index breaks ties the
    # way the pair would: one plain sort of (descending overlap, index) keys.
    (a_col, b_col), overlaps, n = block.columns, block.counts, len(block)
    keys = (int(overlaps.max(initial=0)) - overlaps) * n + np.arange(n)
    keys.sort()
    order = keys % n
    ranked = CountedPairBlock((a_col[order], b_col[order]), overlaps[order], deduped=True)
    timings = dict(unordered.timings)
    timings["verify"] = sort_start - verify_start
    timings["sort"] = time.perf_counter() - sort_start
    timings["total"] = time.perf_counter() - start
    return OrderedSSJResult(ranked=ranked, method=method, overlap=c, timings=timings)


def top_k_similar(
    family: SetFamily,
    k: int,
    c: int = 1,
    method: str = "mmjoin",
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> List[Tuple[Pair, int]]:
    """Convenience wrapper: the k most similar pairs with overlap >= c."""
    return ordered_set_similarity_join(family, c=c, method=method, config=config).top(k)
