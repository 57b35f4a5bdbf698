"""Combinatorial output-sensitive join-project (the paper's "Non-MMJoin").

Lemma 2 (Amossen & Pagh [11]) gives a purely combinatorial algorithm for the
star query running in time ``O(|D| * |OUT|^{1 - 1/k})``.  The idea, for the
two-path query, is again degree-based partitioning — but *both* the light and
heavy parts are evaluated with combinatorial expansion, i.e. no matrix
multiplication.  This is the strongest baseline the paper compares MMJoin
against (labelled ``Non-MMJoin`` in every figure).

The hot path is columnar: :func:`probe_pairs_block` expands probe tuples
against the other relation's y-index with one ``searchsorted`` + index
gathers (no per-tuple Python), emitting packed int64 keys when given the
query's :class:`~repro.data.pairblock.KeyLayout`, and the block-native
variants (:func:`combinatorial_two_path_block`,
:func:`combinatorial_two_path_counted`, :func:`combinatorial_star_block`)
deduplicate with one plain sort of the packed keys of the resulting
:class:`~repro.data.pairblock.PairBlock`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.pairblock import CountedPairBlock, KeyLayout, PairBlock, run_starts
from repro.data.relation import Relation, head_layout
from repro.errors import check_deadline
from repro.joins.leapfrog import leapfrog_intersection

Pair = Tuple[int, int]

# Cap on raw expansion rows materialised at once (two int64 columns per row:
# ~64 MB per chunk).  Chunking keeps the peak memory of the full combinatorial
# expansion output-sensitive — each chunk is deduplicated (or count-aggregated)
# before the next one is built — while staying fully vectorized.
EXPANSION_CHUNK_ROWS = 1 << 22


def _probe_slices(counts: np.ndarray, chunk_rows: int) -> List[slice]:
    """Split probe tuples into slices whose expansions stay under chunk_rows.

    ``counts`` holds each probe tuple's expansion size.  A single probe
    tuple always forms a valid slice even when its own expansion exceeds the
    cap (it cannot be split further).
    """
    if counts.size == 0:
        return []
    cum = np.cumsum(counts)
    if int(cum[-1]) <= chunk_rows:
        return [slice(0, counts.size)]
    slices: List[slice] = []
    start = 0
    consumed = 0
    while start < counts.size:
        # Last probe whose cumulative expansion still fits under the cap;
        # the max() guard guarantees progress when a single probe exceeds it.
        stop = int(np.searchsorted(cum, consumed + chunk_rows, side="right"))
        stop = min(max(stop, start + 1), counts.size)
        slices.append(slice(start, stop))
        consumed = int(cum[stop - 1])
        start = stop
    return slices


# --------------------------------------------------------------------------- #
# Columnar expansion primitives
# --------------------------------------------------------------------------- #
def _expand(
    probe_xs: np.ndarray,
    lo: np.ndarray,
    counts: np.ndarray,
    partners: np.ndarray,
    flip: bool,
    layout: Optional[KeyLayout],
) -> PairBlock:
    """Raw expansion: probe ``i`` against ``partners[lo[i]:lo[i] + counts[i]]``.

    One ragged-range gather.  Under a layout the probe and partner values
    are turned into their key fields first (both are far shorter than the
    expansion) and the block is born in key form.
    """
    hit = counts > 0
    if not hit.any():
        return PairBlock.empty(2)
    xs, lo, counts = probe_xs[hit], lo[hit], counts[hit]
    probe_col, partner_col = (1, 0) if flip else (0, 1)
    if layout is not None:
        xs = layout.column_key(probe_col, xs)
        partners = layout.column_key(partner_col, partners)
    starts = np.cumsum(counts) - counts
    gather = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(lo - starts, counts)
    out = partners[gather]
    if layout is not None:
        out |= np.repeat(xs, counts)
        return PairBlock.from_keys(out, layout)
    columns = (np.repeat(xs, counts), out)
    return PairBlock(columns[::-1] if flip else columns)


def _probe_chunks(
    probe_xs: np.ndarray,
    probe_ys: np.ndarray,
    other: Relation,
    flip: bool,
    layout: Optional[KeyLayout],
    chunk_rows: int,
) -> Iterator[Tuple[PairBlock, bool]]:
    """Yield ``(raw expansion, chunked)`` per slice of at most ``chunk_rows`` rows.

    One ``searchsorted`` over ``other``'s distinct y keys serves both the
    slicing and the expansion.  ``chunked`` says the probe did not fit one
    slice: the consumer must then reduce each expansion to its distinct rows
    before pulling the next, which is what keeps peak memory tracking the
    output instead of the raw witness count.
    """
    probe_xs = np.asarray(probe_xs, dtype=np.int64)
    probe_ys = np.asarray(probe_ys, dtype=np.int64)
    if probe_xs.size == 0 or len(other) == 0:
        return
    index = other.csr_y()
    lo, counts = index.ranges_of(probe_ys)
    slices = _probe_slices(counts, chunk_rows)
    for sl in slices:
        # Cooperative cancellation point: each expansion chunk is the unit of
        # deadline granularity for the combinatorial light path.
        check_deadline("expand.chunk")
        yield (
            _expand(probe_xs[sl], lo[sl], counts[sl], index.values, flip, layout),
            len(slices) > 1,
        )


def probe_pairs_block(
    probe_xs: np.ndarray,
    probe_ys: np.ndarray,
    other: Relation,
    flip: bool = False,
    layout: Optional[KeyLayout] = None,
    chunk_rows: int = EXPANSION_CHUNK_ROWS,
) -> PairBlock:
    """Expand probe tuples ``(x, y)`` against ``other``'s y-partners.

    For every probe tuple the partners ``z`` with ``(z, y) in other`` are
    located in ``other``'s y-index and gathered with one ragged-range index
    expression — no per-tuple Python.  Rows are ``(x, z)``, or ``(z, x)``
    when ``flip`` is set (probing from the S side of the two-path query);
    with a ``layout`` (which must cover both value ranges) they are emitted
    as packed keys.  The result may contain duplicate rows — deduplication
    happens once, downstream — except that an expansion larger than
    ``chunk_rows`` is built in chunks, each reduced to its distinct rows
    before the next.
    """
    return PairBlock.concat_all([
        block.dedup() if chunked else block
        for block, chunked in _probe_chunks(
            probe_xs, probe_ys, other, flip, layout, chunk_rows
        )
    ])


def combinatorial_two_path_block(
    left: Relation,
    right: Relation,
    chunk_rows: int = EXPANSION_CHUNK_ROWS,
) -> PairBlock:
    """Block-native ``pi_{x,z}(R |><| S)``: chunked expansion + dedup.

    Fully columnar, deduplicating per expansion chunk so peak memory tracks
    the output, not the full join.
    """
    if len(left) == 0 or len(right) == 0:
        return PairBlock.empty(2)
    return probe_pairs_block(
        left.xs, left.ys, right, layout=head_layout([left, right]),
        chunk_rows=chunk_rows,
    ).dedup()


def counted_probe_block(
    probe_xs: np.ndarray,
    probe_ys: np.ndarray,
    other: Relation,
    layout: Optional[KeyLayout] = None,
    chunk_rows: int = EXPANSION_CHUNK_ROWS,
) -> CountedPairBlock:
    """Chunked witness-counting expansion of probe tuples against ``other``.

    Every expanded ``(x, y, z)`` triple is one witness, so the run lengths
    of the sorted expansion are the exact per-pair counts
    (:meth:`CountedPairBlock.dedup` on a raw expansion).  Expansion chunks
    aggregate independently (they partition the witnesses) and their counts
    sum in the final merge, so peak memory stays output-sensitive.
    """
    parts: List[CountedPairBlock] = []
    for block, chunked in _probe_chunks(
        probe_xs, probe_ys, other, False, layout, chunk_rows
    ):
        part = CountedPairBlock.from_expansion(block)
        parts.append(part.dedup() if chunked else part)
    return CountedPairBlock.concat_all(parts).dedup(reduce="sum")


def combinatorial_two_path_counted(
    left: Relation,
    right: Relation,
    chunk_rows: int = EXPANSION_CHUNK_ROWS,
) -> CountedPairBlock:
    """Witness-counting two-path expansion as a :class:`CountedPairBlock`."""
    if len(left) == 0 or len(right) == 0:
        return CountedPairBlock.empty(2)
    return counted_probe_block(
        left.xs, left.ys, right, layout=head_layout([left, right]),
        chunk_rows=chunk_rows,
    )


def star_expansion_block(
    relations: Sequence[Relation],
    restrict_to: np.ndarray | None = None,
    chunk_rows: int = EXPANSION_CHUNK_ROWS,
) -> PairBlock:
    """Shared-y cartesian expansion of the star query.

    ``restrict_to`` optionally narrows the join variable to a subset of the
    ``y`` domain — the form the MMJoin light sub-joins need.  The result may
    still contain duplicate rows (callers deduplicate, possibly after
    concatenating several sub-joins), but accumulated expansion chunks are
    compacted with an intermediate dedup whenever they exceed ``chunk_rows``,
    keeping peak memory output-sensitive.
    """
    if not relations or any(len(r) == 0 for r in relations):
        return PairBlock.empty(max(len(relations), 1))
    arity = len(relations)
    pending: List[np.ndarray] = []
    pending_rows = 0
    compacted: List[PairBlock] = []
    for lists in _star_neighbour_lists(relations, restrict_to):
        check_deadline("expand.chunk")
        combos = cartesian_arrays(lists)
        pending.append(combos)
        pending_rows += combos.shape[0]
        if pending_rows >= chunk_rows:
            compacted.append(
                PairBlock.from_array(np.concatenate(pending, axis=0)).dedup()
            )
            pending, pending_rows = [], 0
    if pending:
        compacted.append(PairBlock.from_array(np.concatenate(pending, axis=0)))
    return PairBlock.concat_all(compacted, arity=arity)


def _star_neighbour_lists(
    relations: Sequence[Relation], restrict_to: np.ndarray | None
):
    """Yield the per-relation neighbour lists of every shared ``y`` value."""
    y_domains = [r.y_values() for r in relations]
    shared_ys = leapfrog_intersection(y_domains)
    if restrict_to is not None:
        allowed = np.sort(np.asarray(restrict_to, dtype=np.int64))
        allowed = allowed[run_starts(allowed)]
        shared_ys = leapfrog_intersection([shared_ys, allowed])
    indexes = [r.index_y() for r in relations]
    for y in shared_ys:
        yield [idx[int(y)] for idx in indexes]


def combinatorial_star_block(relations: Sequence[Relation]) -> PairBlock:
    """Block-native projected star query (shared-y cartesian expansion).

    Enumerates shared ``y`` values (worst-case optimal choice of the first
    variable) and expands the cartesian product of neighbour lists; the
    running time matches Lemma 2's ``O(|D| * |OUT|^{1 - 1/k})`` shape on
    skew-free inputs.
    """
    return star_expansion_block(relations).dedup()


def cartesian_arrays(lists: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of 1-D integer arrays as an (n, k) array."""
    if len(lists) == 1:
        return np.asarray(lists[0], dtype=np.int64).reshape(-1, 1)
    grids = np.meshgrid(*lists, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64, copy=False)


def combinatorial_two_path_filtered(
    left: Relation,
    right: Relation,
    candidates: Iterable[Pair],
) -> Set[Pair]:
    """Combinatorial join-project restricted to candidate pairs.

    Used by the boolean-set-intersection baseline, where a batch relation
    ``T(x, z)`` filters the output.
    """
    wanted = set((int(a), int(b)) for a, b in candidates)
    if not wanted:
        return set()
    left_index = left.index_x()
    right_index = right.index_x()
    result: Set[Pair] = set()
    for a, b in wanted:
        ys_a = left_index.get(a)
        ys_b = right_index.get(b)
        if ys_a is None or ys_b is None:
            continue
        if leapfrog_intersection([ys_a, ys_b]).size:
            result.add((a, b))
    return result
