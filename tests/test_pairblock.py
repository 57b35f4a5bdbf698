"""Property tests: columnar blocks match Python-set semantics exactly.

Hypothesis generates random relations (from the shared strategies in
``tests/strategies.py``, including empty, single-row and heavy-hitter edge
cases); every ``PairBlock`` / ``CountedPairBlock`` operation must agree with
the equivalent operation on plain sets/dicts of tuples, and the heavy-residual
extraction must agree across every registered matmul backend.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import star_pairs, two_path_counts, two_path_pairs
from strategies import (
    HUGE_VALUES,
    any_domain_tuples,
    boundary_rows,
    pair_lists,
    triple_lists,
)

from repro.core.config import MMJoinConfig
from repro.core.partitioning import partition_two_path
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.data.pairblock import (
    MAX_KEY_BITS,
    CountedPairBlock,
    KeyLayout,
    PairBlock,
    lazy_view,
)
from repro.data.relation import Relation
from repro.joins.baseline import (
    combinatorial_star_block,
    combinatorial_two_path_block,
    combinatorial_two_path_counted,
    probe_pairs_block,
    star_expansion_block,
)
from repro.matmul.registry import make_default_registry
from repro.parallel.executor import ParallelExecutor


class TestPairBlockSetSemantics:
    @settings(max_examples=60, deadline=None)
    @given(rows=pair_lists())
    def test_dedup_matches_set(self, rows):
        block = PairBlock.from_pairs(rows)
        deduped = block.dedup()
        assert deduped.to_set() == set(rows)
        assert len(deduped) == len(set(rows))
        # Canonical order: lexicographically sorted rows.
        assert [tuple(r) for r in deduped.as_array().tolist()] == sorted(set(rows))

    @settings(max_examples=60, deadline=None)
    @given(a=pair_lists(), b=pair_lists())
    def test_concat_dedup_matches_union(self, a, b):
        merged = PairBlock.from_pairs(a).concat(PairBlock.from_pairs(b)).dedup()
        assert merged == set(a) | set(b)

    @settings(max_examples=60, deadline=None)
    @given(a=pair_lists(), b=pair_lists())
    def test_difference_matches_set_difference(self, a, b):
        block_a, block_b = PairBlock.from_pairs(a), PairBlock.from_pairs(b)
        assert block_a.difference(block_b).to_set() == set(a) - set(b)
        assert block_a.intersection(block_b).to_set() == set(a) & set(b)

    @settings(max_examples=30, deadline=None)
    @given(a=pair_lists(values=HUGE_VALUES, max_size=40),
           b=pair_lists(values=HUGE_VALUES, max_size=40))
    def test_huge_domains_use_fallback_and_agree(self, a, b):
        """Domains too large to pack into one int64 key still match sets."""
        block_a, block_b = PairBlock.from_pairs(a), PairBlock.from_pairs(b)
        assert block_a.dedup().to_set() == set(a)
        assert block_a.difference(block_b).to_set() == set(a) - set(b)

    @settings(max_examples=40, deadline=None)
    @given(rows=triple_lists())
    def test_arity_three_round_trip(self, rows):
        block = PairBlock.from_pairs(rows, arity=3)
        assert block.dedup() == set(rows)
        assert block.dedup().arity == 3

    def test_empty_and_single_row_edges(self):
        empty = PairBlock.empty()
        assert len(empty) == 0 and empty.to_set() == set()
        assert empty.dedup() == set()
        assert empty.concat(empty) == set()
        single = PairBlock.from_pairs([(3, 7)])
        assert single.dedup().to_set() == {(3, 7)}
        assert (3, 7) in single and (7, 3) not in single
        assert single.difference(empty) == {(3, 7)}
        assert empty.difference(single) == set()

    def test_invalid_columns_rejected(self):
        with pytest.raises(ValueError):
            PairBlock((np.arange(3), np.arange(4)))
        with pytest.raises(ValueError):
            PairBlock(())

    def test_arity_mismatch_rejected(self):
        pairs = PairBlock.from_pairs([(1, 2)])
        triples = PairBlock.from_pairs([(1, 2, 3)], arity=3)
        with pytest.raises(ValueError):
            pairs.concat(triples)
        with pytest.raises(ValueError):
            pairs.difference(triples)
        with pytest.raises(ValueError):
            pairs.intersection(triples)

    def test_blocks_unhashable(self):
        """Blocks compare by content, so they must not be hashable."""
        with pytest.raises(TypeError):
            hash(PairBlock.from_pairs([(1, 2)]))


class TestLazyView:
    class Owner:
        pairs = lazy_view("block", "to_set", default=set)
        counts = lazy_view("counted", "to_dict")

        def __init__(self, block=None, counted=None):
            self.block, self.counted = block, counted

    def test_builds_once_from_the_block(self):
        owner = self.Owner(PairBlock.from_pairs([(1, 2), (3, 4)]),
                           CountedPairBlock.from_dict({(1, 2): 5}))
        assert owner.pairs == {(1, 2), (3, 4)} and owner.pairs is owner.pairs
        assert owner.counts == {(1, 2): 5} and owner.counts is owner.counts
        assert self.Owner(owner.block).pairs is not owner.pairs

    def test_reads_the_default_until_there_is_a_block(self):
        owner = self.Owner()
        assert owner.pairs == set() and owner.counts is None
        owner.block = PairBlock.from_pairs([(7, 8)])
        assert owner.pairs == {(7, 8)}

    def test_assignment_stores_a_ready_made_view(self):
        owner = self.Owner(PairBlock.from_pairs([(1, 2)]))
        ready = {(9, 9)}
        owner.pairs = ready
        assert owner.pairs is ready
        owner.pairs = None  # back to the block
        assert owner.pairs == {(1, 2)}
        assert self.Owner.pairs is None  # what a dataclass reads as the default


class TestCountedBlockSemantics:
    @settings(max_examples=60, deadline=None)
    @given(rows=pair_lists(max_size=200))
    def test_expansion_dedup_matches_counter(self, rows):
        """Count aggregation over duplicate rows equals a Python Counter."""
        block = CountedPairBlock.from_expansion(PairBlock.from_pairs(rows))
        assert block.dedup().to_dict() == dict(Counter(rows))

    @settings(max_examples=40, deadline=None)
    @given(a=pair_lists(max_size=100), b=pair_lists(max_size=100))
    def test_concat_dedup_sums_counts(self, a, b):
        merged = (
            CountedPairBlock.from_expansion(PairBlock.from_pairs(a))
            .concat(CountedPairBlock.from_expansion(PairBlock.from_pairs(b)))
            .dedup(reduce="sum")
        )
        assert merged == dict(Counter(a) + Counter(b))

    def test_dict_round_trip_and_edges(self):
        assert CountedPairBlock.empty().to_dict() == {}
        counts = {(1, 2): 3, (0, 0): 1}
        assert CountedPairBlock.from_dict(counts).to_dict() == counts
        single = CountedPairBlock.from_dict({(5, 5): 2})
        assert single.pairs_block().to_set() == {(5, 5)}

    def test_reduce_max(self):
        block = CountedPairBlock(
            (np.array([1, 1, 2]), np.array([2, 2, 3])), np.array([4, 7, 5])
        )
        assert block.dedup(reduce="max").to_dict() == {(1, 2): 7, (2, 3): 5}
        with pytest.raises(ValueError):
            block.dedup(reduce="min")

    def test_reduce_max_non_positive_counts(self):
        """max must hold for counts <= 0 too (no zero-seeded aggregate)."""
        block = CountedPairBlock(
            (np.array([1, 1, 2, 2]), np.array([2, 2, 3, 3])),
            np.array([-5, -3, -1, 0]),
        )
        assert block.dedup(reduce="max").to_dict() == {(1, 2): -3, (2, 3): 0}


ARITIES = (1, 2, 3, 4)

# Small signed counts (zero and negative included) keep the counts inside the
# sort key; the wide ones need more bits than any key leaves free, which
# forces the argsort path of the aggregation.
NARROW_COUNTS = st.integers(min_value=-3, max_value=5)
WIDE_COUNTS = st.integers(min_value=-(2**61), max_value=2**61)


def _block(rows, arity):
    return PairBlock.from_pairs(rows, arity=arity)


def _key_form(block):
    """The block re-held as packed keys, or None when its ranges do not pack."""
    if len(block) == 0:
        return None
    layout = KeyLayout.for_columns([block.columns])
    if layout is None:
        return None
    return PairBlock.from_keys(layout.pack(block.columns), layout)


def _rows_of(block):
    return [tuple(row) for row in block.as_array().tolist()]


@pytest.mark.parametrize("arity", ARITIES)
class TestKeyNativeBlocks:
    """Packed keys are a representation, never a change of meaning."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_find_is_the_position_in_canonical_order(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        block = _block(rows, arity).dedup()
        counted = CountedPairBlock.of(block, np.arange(len(block)))
        canonical = sorted(set(rows))
        for position, row in enumerate(canonical):
            assert block.find(row) == position == counted.find(row)
        for row in data.draw(any_domain_tuples(arity, max_size=10)):
            assert (block.find(row) >= 0) == (row in set(rows))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_layout_round_trip(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        block = _block(rows, arity)
        layout = KeyLayout.for_columns([block.columns]) if rows else None
        if layout is None:
            return
        assert layout.bits <= MAX_KEY_BITS and layout.arity == arity
        keys = layout.pack(block.columns)
        assert keys.min() >= 0
        for packed, column in zip(layout.unpack(keys), block.columns):
            assert np.array_equal(packed, column)
        # Key order is lexicographic row order.
        assert _rows_of(PairBlock.from_keys(np.sort(keys), layout)) == sorted(rows)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dedup_equals_unique_rows(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        block = _block(rows, arity)
        expected = np.unique(block.as_array(), axis=0)
        deduped = block.dedup()
        assert np.array_equal(deduped.as_array(), expected)
        assert deduped.deduped and deduped.layout is None and deduped.arity == arity
        packed = _key_form(block)
        if packed is not None:
            assert packed == block  # key-form and column-form compare equal
            repacked = packed.dedup()
            assert len(repacked) <= 1 or repacked.layout is not None  # keys stay keys
            assert np.array_equal(repacked.as_array(), expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_counted_dedup_equals_dict_reference(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        counts = data.draw(st.lists(
            data.draw(st.sampled_from([NARROW_COUNTS, WIDE_COUNTS])),
            min_size=len(rows), max_size=len(rows),
        ))
        summed, largest = {}, {}
        for row, count in zip(rows, counts):
            summed[row] = summed.get(row, 0) + count
            largest[row] = max(largest.get(row, count), count)
        if any(abs(total) >= 2**63 for total in summed.values()):
            return  # the reference itself left int64
        block = _block(rows, arity)
        forms = [block]
        if _key_form(block) is not None:
            forms.append(_key_form(block))
        for rows_block in forms:
            counted = CountedPairBlock.of(rows_block, np.asarray(counts, dtype=np.int64))
            for reduce, expected in (("sum", summed), ("max", largest)):
                result = counted.dedup(reduce=reduce)
                assert _rows_of(result) == sorted(expected)
                assert result.counts.tolist() == [expected[r] for r in sorted(expected)]
                assert result.deduped

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_raw_expansion_counts_are_run_lengths(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        block = _block(rows, arity)
        for rows_block in filter(None, (block, _key_form(block))):
            expansion = CountedPairBlock.from_expansion(rows_block)
            assert expansion.dedup().to_dict() == dict(Counter(rows))
            assert set(expansion.dedup(reduce="max").to_dict().values()) <= {1}

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_concat_within_and_across_layouts(self, arity, data):
        a = data.draw(any_domain_tuples(arity))
        b = data.draw(any_domain_tuples(arity))
        block_a, block_b = _block(a, arity), _block(b, arity)
        # Each side packed under its own layout: the layouts differ, so the
        # concatenation decodes — and must still be the multiset union.
        own = PairBlock.concat_all(
            [_key_form(block_a) or block_a, _key_form(block_b) or block_b], arity=arity
        )
        assert sorted(_rows_of(own)) == sorted(a + b)
        assert own.dedup() == set(a) | set(b)
        # Both sides under one shared layout: the keys concatenate as keys.
        shared = KeyLayout.for_columns([block_a.columns, block_b.columns]) if a and b else None
        if shared is not None:
            merged = PairBlock.from_keys(shared.pack(block_a.columns), shared).concat(
                PairBlock.from_keys(shared.pack(block_b.columns), shared)
            )
            assert merged.layout == shared
            assert sorted(_rows_of(merged)) == sorted(a + b)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_key_form_survives_pickle_through_the_pool(self, arity, data):
        rows = data.draw(any_domain_tuples(arity))
        packed = _key_form(_block(rows, arity))
        if packed is None:
            return
        counted = CountedPairBlock.from_expansion(packed)
        pool = ParallelExecutor(cores=2)
        copies = pool.map(lambda item: pickle.loads(pickle.dumps(item)),
                          [packed, counted, packed.dedup()])
        assert copies[0].layout == packed.layout and copies[0] == packed
        assert copies[1].dedup().to_dict() == dict(Counter(rows))
        assert _rows_of(copies[2]) == sorted(set(rows))


class TestKeyLayoutLimit:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), arity=st.sampled_from(ARITIES))
    def test_limit_is_62_bits(self, data, arity):
        """Columns of w = 62 // k bits pack; one more bit each and they do not."""
        rows = data.draw(boundary_rows(arity=arity))
        block = _block(rows, arity)
        layout = KeyLayout.for_columns([block.columns])
        top = max(max(row) for row in rows)
        if top == 2 ** (62 // arity) - 1:
            assert layout is not None and layout.bits == arity * (62 // arity)
        else:
            assert layout is None
        assert np.array_equal(block.dedup().as_array(), np.unique(block.as_array(), axis=0))

    def test_for_ranges_matches_for_columns(self):
        block = PairBlock.from_pairs([(-4, 10), (9, 3), (0, 7)])
        assert KeyLayout.for_ranges([(-4, 9), (3, 10)]) == KeyLayout.for_columns(
            [block.columns]
        )
        assert KeyLayout.for_ranges([(0, 2**40), (0, 2**40)]) is None

    def test_finished_block_holds_one_representation(self):
        layout = KeyLayout.for_ranges([(0, 9), (0, 9)])
        block = PairBlock.from_keys(layout.pack((np.arange(10), np.arange(10))), layout)
        assert block.layout == layout and block.nbytes == 160
        columns = block.columns
        assert block.layout is None and block.columns is columns and block.nbytes == 160


def _relation_from(rows, name):
    return Relation.from_pairs(rows, name=name)


class TestPipelineProperties:
    @settings(max_examples=25, deadline=None)
    @given(left=pair_lists(max_size=150), right=pair_lists(max_size=150))
    def test_probe_expansion_matches_oracle(self, left, right):
        rel_l, rel_r = _relation_from(left, "R"), _relation_from(right, "S")
        block = probe_pairs_block(rel_l.xs, rel_l.ys, rel_r).dedup()
        assert block.to_set() == two_path_pairs(left, right)

    @settings(max_examples=25, deadline=None)
    @given(left=pair_lists(max_size=150), right=pair_lists(max_size=150))
    def test_combinatorial_matches_oracle_counts(self, left, right):
        rel_l, rel_r = _relation_from(left, "R"), _relation_from(right, "S")
        assert combinatorial_two_path_counted(rel_l, rel_r).to_dict() == (
            two_path_counts(left, right)
        )

    @settings(max_examples=20, deadline=None)
    @given(left=pair_lists(max_size=150), right=pair_lists(max_size=150))
    def test_chunked_expansion_matches_unchunked(self, left, right):
        """Tiny chunk caps must not change any expansion result."""
        rel_l, rel_r = _relation_from(left, "R"), _relation_from(right, "S")
        assert combinatorial_two_path_block(rel_l, rel_r, chunk_rows=7) == (
            combinatorial_two_path_block(rel_l, rel_r)
        )
        assert combinatorial_two_path_counted(rel_l, rel_r, chunk_rows=7) == (
            combinatorial_two_path_counted(rel_l, rel_r)
        )

    @settings(max_examples=15, deadline=None)
    @given(a=pair_lists(max_size=80), b=pair_lists(max_size=80), c=pair_lists(max_size=80))
    def test_chunked_star_matches_reference(self, a, b, c):
        rels = [_relation_from(rows, f"R{i}") for i, rows in enumerate((a, b, c))]
        expected = star_pairs((a, b, c))
        assert star_expansion_block(rels, chunk_rows=5).dedup().to_set() == expected
        assert combinatorial_star_block(rels).to_set() == expected

    def test_probe_slices_respect_cap(self):
        """Chunks stay under the expansion cap (single probes may exceed it)."""
        from repro.joins.baseline import _probe_slices

        counts = np.full(6, 10, dtype=np.int64)  # 10 expansions per probe
        slices = _probe_slices(counts, chunk_rows=15)
        for sl in slices:
            width = sl.stop - sl.start
            assert width * 10 <= 15 or width == 1
        covered = [i for sl in slices for i in range(sl.start, sl.stop)]
        assert covered == list(range(6))

    @settings(max_examples=10, deadline=None)
    @given(left=pair_lists(max_size=120), right=pair_lists(max_size=120))
    def test_all_backends_agree_end_to_end(self, left, right):
        """The columnar pipeline matches set semantics for every backend."""
        rel_l, rel_r = _relation_from(left, "R"), _relation_from(right, "S")
        expected_pairs = two_path_pairs(left, right)
        expected_counts = two_path_counts(left, right)
        for backend in make_default_registry().names():
            config = MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend)
            assert two_path_join(rel_l, rel_r, config=config).pairs == expected_pairs
            assert two_path_join_counts(rel_l, rel_r, config=config).counts == (
                expected_counts
            )

    @settings(max_examples=10, deadline=None)
    @given(left=pair_lists(max_size=120), right=pair_lists(max_size=120))
    def test_heavy_extraction_blocks_agree_across_backends(self, left, right):
        rel_l, rel_r = _relation_from(left, "R"), _relation_from(right, "S")
        partition = partition_two_path(rel_l, rel_r, 1, 1)
        rows, mids, cols = partition.heavy_x, partition.heavy_y, partition.heavy_z
        if min(rows.size, mids.size, cols.size) == 0:
            return
        reference = None
        for backend in make_default_registry():
            block, _, _ = backend.heavy_pairs(
                partition.r_heavy, partition.s_heavy, rows, mids, cols
            )
            counted, _, _ = backend.heavy_counts(
                partition.r_heavy, partition.s_heavy, rows, mids, cols
            )
            assert isinstance(block, PairBlock)
            assert isinstance(counted, CountedPairBlock)
            assert counted.pairs_block().dedup() == block.dedup()
            if reference is None:
                reference = block
            else:
                assert block == reference, backend.name
