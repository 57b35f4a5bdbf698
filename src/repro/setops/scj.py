"""Set containment join (SCJ) — Section 4 and Section 7.4 of the paper.

Given two set families R and S (usually the same family), SCJ returns every
pair ``(a, b)`` with ``a != b`` such that set ``a`` of R is contained in set
``b`` of S.  Four algorithms are provided:

* :func:`scj_pretti` — the PRETTI approach: sets of R are inserted into a
  prefix tree in *infrequent-first* element order; traversing the tree while
  intersecting the inverted lists of S yields, at every terminal node, the
  exact container set;
* :func:`scj_limit` — LIMIT+ style: only the first ``limit`` (least frequent)
  elements are intersected to produce a candidate list, every candidate is
  then verified with a merge, trading intersection work for verification;
* :func:`scj_piejoin` — a PIEJoin-style variant that partitions the R sets by
  their first (least frequent) element and processes partitions
  independently — the property that makes it parallelisable — using the same
  intersection machinery inside every partition;
* :func:`scj_mmjoin` — the paper's approach: compute the join-project with
  witness counts via MMJoin; ``a`` is contained in ``b`` exactly when the
  count equals ``|a|``.

:func:`set_containment_join` is the user-facing dispatcher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.data.pairblock import CountedPairBlock, PairBlock, lazy_view, run_starts
from repro.data.setfamily import SetFamily
from repro.joins.leapfrog import intersect_sorted
from repro.plan.planner import Planner
from repro.plan.query import ContainmentJoinQuery
from repro.setops.inverted_index import InvertedIndex

Pair = Tuple[int, int]

SCJ_METHODS = ("mmjoin", "pretti", "limit", "piejoin")


@dataclass(repr=False, eq=False)  # either would materialise the view
class SCJResult:
    """Result of a set containment join: pairs ``(contained, container)``.

    :func:`scj_mmjoin` hands back :attr:`block`, the surviving rows of the
    pipeline's result as a :class:`~repro.data.pairblock.PairBlock` in
    canonical order: ``len()`` is its length, ``in`` a binary search in it,
    and ``pairs`` (and iteration) a Python set built from it on first read
    and cached.  The Python-native methods pass ``pairs`` ready-made.
    """

    pairs: Optional[Set[Pair]] = lazy_view("block", "to_set", default=set)
    method: str = "mmjoin"
    timings: Dict[str, float] = field(default_factory=dict)
    verifications: int = 0
    block: Optional[PairBlock] = None

    def __len__(self) -> int:
        return len(self.pairs if self.block is None else self.block)

    def __contains__(self, pair: Pair) -> bool:
        pair = (int(pair[0]), int(pair[1]))
        return pair in self.pairs if self.block is None else self.block.find(pair) >= 0

    def __iter__(self):
        return iter(self.pairs)


def set_containment_join(
    family: SetFamily,
    other: Optional[SetFamily] = None,
    method: str = "mmjoin",
    config: MMJoinConfig = DEFAULT_CONFIG,
    limit: int = 2,
) -> SCJResult:
    """Compute the SCJ of ``family`` (contained side) against ``other``.

    With ``other=None`` this is the self-join the paper evaluates; pairs
    ``(a, a)`` are never reported.
    """
    if method not in SCJ_METHODS:
        raise ValueError(f"unknown SCJ method {method!r}; choose one of {SCJ_METHODS}")
    containers = other if other is not None else family
    if method == "mmjoin":
        return scj_mmjoin(family, containers, config=config)
    if method == "pretti":
        return scj_pretti(family, containers)
    if method == "limit":
        return scj_limit(family, containers, limit=limit)
    return scj_piejoin(family, containers)


# --------------------------------------------------------------------------- #
# MMJoin-based SCJ
# --------------------------------------------------------------------------- #
def scj_from_counted(
    counted: CountedPairBlock,
    family: SetFamily,
    self_join: bool,
    seconds: float = 0.0,
    timings: Optional[Dict[str, float]] = None,
) -> SCJResult:
    """Turn a counted join-project result into containment pairs.

    One mask over the pipeline's
    :class:`~repro.data.pairblock.CountedPairBlock` — each ordered witness
    count against the size of its contained set, looked up in ``family``'s
    CSR degrees; the surviving rows stay a block inside the
    :class:`SCJResult`.  Shared by :func:`scj_mmjoin` and
    :meth:`repro.serve.session.QuerySession.containment`.
    """
    a_col, b_col = counted.columns
    # A canonical block holds each contained id as one run: look |a| up once
    # per run, not once per pair.
    starts = run_starts(a_col)
    sizes = family.relation.csr_x().degrees_of(a_col[starts])
    keep = counted.counts >= np.repeat(sizes, np.diff(starts, append=a_col.size))
    if self_join:
        keep &= a_col != b_col
    return SCJResult(
        block=PairBlock((a_col[keep], b_col[keep]), deduped=counted.deduped),
        method="mmjoin",
        timings=timings if timings is not None else {"total": seconds},
    )


def scj_mmjoin(
    family: SetFamily,
    containers: SetFamily,
    config: MMJoinConfig = DEFAULT_CONFIG,
    planner: Optional[Planner] = None,
) -> SCJResult:
    """SCJ via the counting join-project: ``a ⊆ b`` iff ``|a ∩ b| = |a|``.

    The containment join is a logical-plan instance: a
    :class:`~repro.plan.query.ContainmentJoinQuery` lowered by the planner
    onto the counting two-path pipeline; :func:`scj_from_counted` applies
    the size comparison.  ``planner`` lets a serving session pass its
    session-aware planner so the evaluation hits the session caches.
    """
    start = time.perf_counter()
    self_join = containers is family
    planner = planner if planner is not None else Planner(config=config)
    plan = planner.execute(
        ContainmentJoinQuery(family=family, other=None if self_join else containers)
    )
    state = plan.state
    counted = state.result_counted
    assert counted is not None
    return scj_from_counted(
        counted, family, self_join=self_join,
        timings={"total": time.perf_counter() - start, **state.timings},
    )


# --------------------------------------------------------------------------- #
# PRETTI
# --------------------------------------------------------------------------- #
def scj_pretti(family: SetFamily, containers: SetFamily) -> SCJResult:
    """PRETTI: intersect container inverted lists along each probe set.

    For every probe set the inverted lists of its elements (in
    infrequent-first order, so the intersection shrinks as fast as possible)
    are intersected; whatever survives contains the probe set.
    """
    start = time.perf_counter()
    index = InvertedIndex(containers)
    order = index.rank_map(descending=False)
    pairs: Set[Pair] = set()
    verifications = 0
    for set_id, elements in family.sets().items():
        ordered = sorted((int(e) for e in elements), key=lambda e: order.get(e, len(order)))
        if not ordered:
            continue
        survivors = index.get(ordered[0])
        for element in ordered[1:]:
            if survivors.size == 0:
                break
            survivors = intersect_sorted(survivors, index.get(element))
            verifications += 1
        for container in survivors:
            if int(container) != int(set_id):
                pairs.add((int(set_id), int(container)))
    return SCJResult(
        pairs=pairs,
        method="pretti",
        timings={"total": time.perf_counter() - start},
        verifications=verifications,
    )


# --------------------------------------------------------------------------- #
# LIMIT+
# --------------------------------------------------------------------------- #
def scj_limit(family: SetFamily, containers: SetFamily, limit: int = 2) -> SCJResult:
    """LIMIT+ style SCJ: bounded-depth intersection then explicit verification.

    Only the ``limit`` least frequent elements of each probe set are
    intersected to produce candidates; every candidate is verified with a
    sorted-merge subset test.  This is the blocking-filter / verification
    structure the paper describes as expensive when sets are large or overlap
    heavily.
    """
    start = time.perf_counter()
    index = InvertedIndex(containers)
    order = index.rank_map(descending=False)
    pairs: Set[Pair] = set()
    verifications = 0
    container_sets = containers.sets()
    for set_id, elements in family.sets().items():
        ordered = sorted((int(e) for e in elements), key=lambda e: order.get(e, len(order)))
        if not ordered:
            continue
        prefix = ordered[: max(int(limit), 1)]
        candidates = index.get(prefix[0])
        for element in prefix[1:]:
            if candidates.size == 0:
                break
            candidates = intersect_sorted(candidates, index.get(element))
        probe = np.asarray(sorted(ordered), dtype=np.int64)
        for candidate in candidates:
            cid = int(candidate)
            if cid == int(set_id):
                continue
            verifications += 1
            container = container_sets.get(cid)
            if container is None or container.size < probe.size:
                continue
            if intersect_sorted(probe, container).size == probe.size:
                pairs.add((int(set_id), cid))
    return SCJResult(
        pairs=pairs,
        method="limit",
        timings={"total": time.perf_counter() - start},
        verifications=verifications,
    )


# --------------------------------------------------------------------------- #
# PIEJoin-style
# --------------------------------------------------------------------------- #
def scj_piejoin(
    family: SetFamily,
    containers: SetFamily,
    num_partitions: Optional[int] = None,
) -> SCJResult:
    """PIEJoin-style SCJ: partition probe sets by first element, then intersect.

    Each partition is processed independently (the property the original
    algorithm exploits for parallelism — our parallel executor runs the
    partitions across a thread pool in the Figure 7 benchmark); within a
    partition the same intersection machinery as PRETTI is used.
    """
    start = time.perf_counter()
    index = InvertedIndex(containers)
    order = index.rank_map(descending=False)
    partitions: Dict[int, List[Tuple[int, List[int]]]] = {}
    for set_id, elements in family.sets().items():
        ordered = sorted((int(e) for e in elements), key=lambda e: order.get(e, len(order)))
        if not ordered:
            continue
        partitions.setdefault(ordered[0], []).append((int(set_id), ordered))
    pairs: Set[Pair] = set()
    verifications = 0
    for first_element, probes in sorted(partitions.items()):
        base = index.get(first_element)
        for set_id, ordered in probes:
            survivors = base
            for element in ordered[1:]:
                if survivors.size == 0:
                    break
                survivors = intersect_sorted(survivors, index.get(element))
                verifications += 1
            for container in survivors:
                if int(container) != set_id:
                    pairs.add((set_id, int(container)))
    return SCJResult(
        pairs=pairs,
        method="piejoin",
        timings={"total": time.perf_counter() - start},
        verifications=verifications,
    )


def scj_partitions(family: SetFamily, containers: SetFamily) -> List[List[int]]:
    """The PIEJoin partitioning (probe set ids grouped by first element).

    Exposed so the parallel SCJ benchmark can dispatch partitions to workers.
    """
    index = InvertedIndex(containers)
    order = index.rank_map(descending=False)
    partitions: Dict[int, List[int]] = {}
    for set_id, elements in family.sets().items():
        ordered = sorted((int(e) for e in elements), key=lambda e: order.get(e, len(order)))
        if not ordered:
            continue
        partitions.setdefault(ordered[0], []).append(int(set_id))
    return [partitions[key] for key in sorted(partitions)]


def scj_bruteforce(family: SetFamily, containers: SetFamily) -> SCJResult:
    """Quadratic reference implementation used as a test oracle."""
    start = time.perf_counter()
    pairs: Set[Pair] = set()
    for a in family.set_ids():
        set_a = family.get(int(a))
        for b in containers.set_ids():
            ai, bi = int(a), int(b)
            if ai == bi and containers is family:
                continue
            set_b = containers.get(bi)
            if set_a.size == 0:
                pairs.add((ai, bi))
                continue
            if set_a.size > set_b.size:
                continue
            if intersect_sorted(set_a, set_b).size == set_a.size:
                pairs.add((ai, bi))
    return SCJResult(pairs=pairs, method="bruteforce",
                     timings={"total": time.perf_counter() - start})
