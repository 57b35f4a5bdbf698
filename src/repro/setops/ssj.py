"""Set similarity join (SSJ) — Section 4 and Section 7.3 of the paper.

Given a family of sets and an overlap threshold ``c``, the unordered SSJ
returns every pair of distinct sets whose intersection has size at least
``c``.  Three algorithms are provided:

* :func:`ssj_mmjoin` — the paper's approach: evaluate the join-project query
  with witness counts via MMJoin and keep the pairs with count >= c;
* :func:`ssj_sizeaware` — the SizeAware baseline of Deng, Tao and Li
  (SIGMOD 2018): sets are split into *light* and *heavy* by a size boundary,
  heavy sets are verified against all sets by merging inverted lists, light
  sets are bucketed by their c-subsets so any two light sets in a bucket are
  similar;
* :func:`ssj_sizeaware_plus` — SizeAware++ with the paper's three
  optimisations, each independently switchable (used by the Figure 8
  ablation): heavy processing through MMJoin, light processing through
  MMJoin, and prefix-tree computation reuse for the light merges.

:func:`set_similarity_join` is the user-facing dispatcher.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.data.pairblock import CountedPairBlock, lazy_view
from repro.data.setfamily import SetFamily
from repro.plan.planner import Planner
from repro.plan.query import SimilarityJoinQuery
from repro.setops.inverted_index import InvertedIndex, c_subsets, count_c_subsets
from repro.setops.prefix_tree import PrefixTree

Pair = Tuple[int, int]

SSJ_METHODS = ("mmjoin", "sizeaware", "sizeaware++")


@dataclass(repr=False, eq=False)  # either would materialise the views
class SSJResult:
    """Result of a set-similarity join.

    The MMJoin-based methods hand back :attr:`block`, the surviving rows of
    the pipeline's :class:`~repro.data.pairblock.CountedPairBlock` in
    canonical order: ``len()`` is its length, ``in`` a binary search in it,
    and ``pairs`` / ``counts`` / iteration are Python views built from it on
    first read and cached.  The Python-native baselines pass ``pairs`` /
    ``counts`` ready-made and leave ``block`` ``None``.

    A self-join holds canonical pairs ``(a, b)`` with ``a < b``, a two-family
    join ordered ``(id in family, id in other)`` pairs.  ``counts`` holds the
    exact overlap of every pair the method computed it for (MMJoin and
    SizeAware++: all; plain SizeAware: heavy pairs only).
    """

    pairs: Optional[Set[Pair]] = lazy_view("block", "to_set", default=set)
    counts: Optional[Dict[Pair, int]] = lazy_view("block", "to_dict", default=dict)
    method: str = "mmjoin"
    overlap: int = 1
    heavy_sets: int = 0
    light_sets: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    block: Optional[CountedPairBlock] = None
    self_join: bool = True

    def __len__(self) -> int:
        return len(self.pairs if self.block is None else self.block)

    def __contains__(self, pair: Pair) -> bool:
        pair = _canonical(pair) if self.self_join else (int(pair[0]), int(pair[1]))
        return pair in self.pairs if self.block is None else self.block.find(pair) >= 0

    def __iter__(self):
        return iter(self.pairs)


def _canonical(pair: Pair) -> Pair:
    a, b = int(pair[0]), int(pair[1])
    return (a, b) if a <= b else (b, a)


# --------------------------------------------------------------------------- #
# Dispatcher
# --------------------------------------------------------------------------- #
def set_similarity_join(
    family: SetFamily,
    c: int = 1,
    method: str = "mmjoin",
    config: MMJoinConfig = DEFAULT_CONFIG,
) -> SSJResult:
    """Unordered self-join SSJ over one set family.

    Parameters
    ----------
    c:
        Minimum overlap (>= 1).
    method:
        ``mmjoin`` (the paper's algorithm), ``sizeaware`` or ``sizeaware++``.
    """
    if c < 1:
        raise ValueError("overlap threshold c must be at least 1")
    if method not in SSJ_METHODS:
        raise ValueError(f"unknown SSJ method {method!r}; choose one of {SSJ_METHODS}")
    if method == "mmjoin":
        return ssj_mmjoin(family, c, config=config)
    if method == "sizeaware":
        return ssj_sizeaware(family, c)
    return ssj_sizeaware_plus(family, c, config=config)


# --------------------------------------------------------------------------- #
# MMJoin-based SSJ
# --------------------------------------------------------------------------- #
def ssj_from_counted(
    counted: CountedPairBlock,
    c: int,
    self_join: bool,
    seconds: float = 0.0,
    timings: Optional[Dict[str, float]] = None,
) -> SSJResult:
    """Apply the overlap threshold to a counted join-project result.

    One mask over the pipeline's
    :class:`~repro.data.pairblock.CountedPairBlock` and one filter; the
    surviving rows stay a block inside the :class:`SSJResult`, so no Python
    tuple is built here.  Shared by :func:`ssj_mmjoin` and
    :meth:`repro.serve.session.QuerySession.similarity` (whose memoized
    counting join is threshold-independent, so sweeping ``c`` reuses it).
    """
    a_col, b_col = counted.columns
    keep = counted.counts >= c
    if self_join:
        # A counting self-join block is symmetric — (a, b) and (b, a) carry
        # the same overlap — and already in canonical order, so its a < b
        # half is the unordered result: no canonicalising re-sort.
        keep &= a_col < b_col
    return SSJResult(
        block=counted.filter(keep),
        method="mmjoin",
        overlap=c,
        timings=timings if timings is not None else {"total": seconds},
        self_join=self_join,
    )


def ssj_mmjoin(
    family: SetFamily,
    c: int = 1,
    other: Optional[SetFamily] = None,
    config: MMJoinConfig = DEFAULT_CONFIG,
    planner: Optional[Planner] = None,
) -> SSJResult:
    """SSJ via the counting MMJoin: keep join-project pairs with count >= c.

    The similarity join is a logical-plan instance: a
    :class:`~repro.plan.query.SimilarityJoinQuery` lowered by the planner
    onto the counting two-path pipeline, with the overlap threshold applied
    to the resulting witness counts by :func:`ssj_from_counted`.

    When ``other`` is given the join is between the two families and output
    pairs are ``(id in family, id in other)``; otherwise it is a self-join
    with canonical ``a < b`` pairs.  ``planner`` lets a serving session pass
    its session-aware planner so the evaluation hits the session caches.
    """
    start = time.perf_counter()
    planner = planner if planner is not None else Planner(config=config)
    plan = planner.execute(SimilarityJoinQuery(family=family, other=other, overlap=c))
    state = plan.state
    counted = state.result_counted
    assert counted is not None
    return ssj_from_counted(
        counted, c, self_join=other is None,
        timings={"total": time.perf_counter() - start, **state.timings},
    )


# --------------------------------------------------------------------------- #
# SizeAware (the baseline of Deng et al.)
# --------------------------------------------------------------------------- #
def size_boundary(family: SetFamily, c: int) -> int:
    """Choose the size boundary x separating light and heavy sets.

    ``GetSizeBoundary`` balances the cost of the two phases: heavy sets are
    verified against everything (cost about ``N * N/x`` since there are at
    most ``N/x`` heavy sets), light sets enumerate their c-subsets (cost
    about ``sum_{light r} C(|r|, c)``).  We scan candidate boundaries in
    geometric steps and pick the one with the smallest estimated total.
    """
    sizes = sorted(family.sizes().values())
    if not sizes:
        return 1
    n = family.num_tuples()
    best_x = max(sizes)
    best_cost = float("inf")
    candidate = max(int(math.sqrt(max(c, 1))), 1)
    max_size = sizes[-1]
    while candidate <= max_size * 2:
        heavy_count = sum(1 for s in sizes if s > candidate)
        heavy_cost = float(n) * float(heavy_count)
        light_cost = float(
            sum(count_c_subsets(s, c) for s in sizes if s <= candidate)
        )
        total = heavy_cost + light_cost
        if total < best_cost:
            best_cost = total
            best_x = candidate
        candidate *= 2
    return max(best_x, 1)


def ssj_sizeaware(family: SetFamily, c: int = 1) -> SSJResult:
    """The SizeAware baseline (Algorithm 2 of the paper)."""
    start = time.perf_counter()
    boundary = size_boundary(family, c)
    light_ids, heavy_ids = family.partition_by_size(boundary)
    index = InvertedIndex(family)

    timings: Dict[str, float] = {}
    phase = time.perf_counter()
    pairs, counts = _heavy_pairs_bruteforce(family, index, heavy_ids, c)
    timings["heavy"] = time.perf_counter() - phase

    phase = time.perf_counter()
    light_pairs = _light_pairs_subsets(family, light_ids, c)
    pairs |= light_pairs
    timings["light"] = time.perf_counter() - phase

    timings["total"] = time.perf_counter() - start
    return SSJResult(
        pairs=pairs,
        counts=counts,
        method="sizeaware",
        overlap=c,
        heavy_sets=len(heavy_ids),
        light_sets=len(light_ids),
        timings=timings,
    )


def ssj_sizeaware_plus(
    family: SetFamily,
    c: int = 1,
    config: MMJoinConfig = DEFAULT_CONFIG,
    heavy_mm: bool = True,
    light_mm: bool = True,
    prefix: bool = True,
    prefix_depth: Optional[int] = None,
) -> SSJResult:
    """SizeAware++ — SizeAware with the paper's three optimisations.

    Parameters
    ----------
    heavy_mm:
        Process the heavy-set join ``R |><| R_h`` with the counting MMJoin
        instead of brute-force inverted-list merging.
    light_mm:
        Process the light-light pairs with the counting MMJoin instead of
        c-subset enumeration.
    prefix:
        Reuse inverted-list merges across light sets sharing a prefix
        (Example 6); only takes effect when ``light_mm`` is off, because the
        matrix path does not merge lists at all.
    prefix_depth:
        Materialisation depth limit of the prefix tree.
    """
    start = time.perf_counter()
    boundary = size_boundary(family, c)
    light_ids, heavy_ids = family.partition_by_size(boundary)
    index = InvertedIndex(family)
    timings: Dict[str, float] = {}

    # The MMJoin parts stay blocks; the Python-native parts fill the sets.
    blocks: List[CountedPairBlock] = []
    pairs: Set[Pair] = set()
    counts: Dict[Pair, int] = {}

    # Heavy phase ----------------------------------------------------------
    phase = time.perf_counter()
    if heavy_mm and heavy_ids:
        heavy_family = family.restrict(heavy_ids, name="R_h")
        joined = ssj_mmjoin(family, c, other=heavy_family, config=config).block
        a_col, b_col = joined.columns
        # Ordered (any, heavy) pairs: drop the diagonal and canonicalise; a
        # heavy-heavy pair then appears twice with one overlap (merged below).
        blocks.append(CountedPairBlock(
            (np.minimum(a_col, b_col), np.maximum(a_col, b_col)), joined.counts
        ).filter(a_col != b_col))
    else:
        pairs, counts = _heavy_pairs_bruteforce(family, index, heavy_ids, c)
    timings["heavy"] = time.perf_counter() - phase

    # Light phase ----------------------------------------------------------
    phase = time.perf_counter()
    if light_mm and light_ids:
        light_family = family.restrict(light_ids, name="R_l")
        blocks.append(ssj_mmjoin(light_family, c, config=config).block)
    elif prefix and light_ids:
        light_pairs, light_counts = _light_pairs_prefix(
            family, index, light_ids, c, prefix_depth
        )
        pairs |= light_pairs
        counts.update(light_counts)
    else:
        pairs |= _light_pairs_subsets(family, light_ids, c)
    timings["light"] = time.perf_counter() - phase

    block = CountedPairBlock.concat_all(blocks).dedup("max")
    timings["total"] = time.perf_counter() - start
    result = SSJResult(
        method="sizeaware++",
        overlap=c,
        heavy_sets=len(heavy_ids),
        light_sets=len(light_ids),
        timings=timings,
    )
    if pairs:  # a Python-native part found pairs: the union is Python sets
        result.pairs = pairs | block.to_set()
        result.counts = {**counts, **block.to_dict()}
    else:
        result.block = block
    return result


# --------------------------------------------------------------------------- #
# Phase implementations
# --------------------------------------------------------------------------- #
def _heavy_pairs_bruteforce(
    family: SetFamily,
    index: InvertedIndex,
    heavy_ids: Iterable[int],
    c: int,
) -> Tuple[Set[Pair], Dict[Pair, int]]:
    """Verify every heavy set against all sets by merging inverted lists."""
    pairs: Set[Pair] = set()
    counts: Dict[Pair, int] = {}
    for heavy_id in heavy_ids:
        merged = index.merge_lists(family.get(heavy_id))
        for other_id, overlap in merged.items():
            if other_id == heavy_id or overlap < c:
                continue
            key = _canonical((heavy_id, other_id))
            pairs.add(key)
            counts[key] = overlap
    return pairs, counts


def _light_pairs_subsets(
    family: SetFamily, light_ids: Iterable[int], c: int
) -> Set[Pair]:
    """Bucket light sets by their c-subsets; pairs sharing a bucket are similar."""
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for set_id in light_ids:
        elements = family.get(set_id)
        for subset in c_subsets(elements, c):
            buckets.setdefault(subset, []).append(int(set_id))
    pairs: Set[Pair] = set()
    for members in buckets.values():
        if len(members) < 2:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if members[i] != members[j]:
                    pairs.add(_canonical((members[i], members[j])))
    return pairs


def _light_pairs_prefix(
    family: SetFamily,
    index: InvertedIndex,
    light_ids: Iterable[int],
    c: int,
    prefix_depth: Optional[int],
) -> Tuple[Set[Pair], Dict[Pair, int]]:
    """Light-light pairs via prefix-shared inverted-list merges (Example 6)."""
    light_list = sorted(int(v) for v in light_ids)
    light_set = set(light_list)
    tree = PrefixTree(index, descending=True, max_materialize_depth=prefix_depth)
    tree.build((sid, family.get(sid)) for sid in light_list)
    pairs: Set[Pair] = set()
    counts: Dict[Pair, int] = {}
    for set_id in light_list:
        merged = tree.merged_counts(family.get(set_id))
        for other_id, overlap in merged.items():
            if other_id == set_id or other_id not in light_set or overlap < c:
                continue
            key = _canonical((set_id, other_id))
            pairs.add(key)
            counts[key] = overlap
    return pairs, counts


def ssj_bruteforce(family: SetFamily, c: int = 1) -> SSJResult:
    """Quadratic reference implementation used as a test oracle."""
    start = time.perf_counter()
    ids = [int(v) for v in family.set_ids()]
    pairs: Set[Pair] = set()
    counts: Dict[Pair, int] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            overlap = family.intersection_size(a, b)
            if overlap >= c:
                key = _canonical((a, b))
                pairs.add(key)
                counts[key] = overlap
    return SSJResult(
        pairs=pairs,
        counts=counts,
        method="bruteforce",
        overlap=c,
        timings={"total": time.perf_counter() - start},
    )
