"""Property-based tests (hypothesis) on the core data structures and algorithms."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import two_path_counts, two_path_pairs
from repro.core.config import MMJoinConfig
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.data.relation import Relation
from repro.data.setfamily import SetFamily
from repro.joins.baseline import combinatorial_two_path_block
from repro.joins.leapfrog import intersect_sorted, leapfrog_intersection
from repro.setops.ssj import ssj_bruteforce, ssj_mmjoin

# Strategy: a small relation as a list of (x, y) pairs over compact domains.
pairs_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
    min_size=0,
    max_size=120,
)

two_relations = st.tuples(pairs_strategy, pairs_strategy)

sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=100), min_size=0, max_size=40
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestRelationProperties:
    @given(pairs=pairs_strategy)
    @SETTINGS
    def test_construction_dedups_and_preserves_membership(self, pairs):
        rel = Relation.from_pairs(pairs)
        assert len(rel) == len(set(pairs))
        for pair in pairs:
            assert pair in rel

    @given(pairs=pairs_strategy)
    @SETTINGS
    def test_swap_involution(self, pairs):
        rel = Relation.from_pairs(pairs)
        assert rel.swap().swap() == rel

    @given(pairs=pairs_strategy)
    @SETTINGS
    def test_degree_sums_equal_cardinality(self, pairs):
        rel = Relation.from_pairs(pairs)
        assert sum(rel.degrees_x().values()) == len(rel)
        assert sum(rel.degrees_y().values()) == len(rel)

    @given(data=two_relations)
    @SETTINGS
    def test_difference_union_partition(self, data):
        a = Relation.from_pairs(data[0])
        b = Relation.from_pairs(data[1])
        only_a = a.difference(b)
        common = a.intersection(b)
        assert only_a.union(common) == a
        assert len(only_a.intersection(common)) == 0


class TestIntersectionProperties:
    @given(a=sorted_arrays, b=sorted_arrays)
    @SETTINGS
    def test_intersect_sorted_matches_sets(self, a, b):
        expected = sorted(set(a.tolist()) & set(b.tolist()))
        assert intersect_sorted(a, b).tolist() == expected

    @given(lists=st.lists(sorted_arrays, min_size=1, max_size=4))
    @SETTINGS
    def test_leapfrog_matches_sets(self, lists):
        expected = set(lists[0].tolist())
        for lst in lists[1:]:
            expected &= set(lst.tolist())
        assert set(leapfrog_intersection(lists).tolist()) == expected


class TestJoinProperties:
    @given(data=two_relations)
    @SETTINGS
    def test_mmjoin_equals_full_join_project(self, data):
        left = Relation.from_pairs(data[0], name="R")
        right = Relation.from_pairs(data[1], name="S")
        expected = two_path_pairs(left, right)
        assert two_path_join(left, right).pairs == expected
        assert two_path_join(
            left, right, config=MMJoinConfig(delta1=2, delta2=2)
        ).pairs == expected
        assert combinatorial_two_path_block(left, right).to_set() == expected

    @given(data=two_relations)
    @SETTINGS
    def test_mmjoin_counts_equal_witness_counts(self, data):
        left = Relation.from_pairs(data[0], name="R")
        right = Relation.from_pairs(data[1], name="S")
        expected = two_path_counts(left, right)
        result = two_path_join_counts(
            left, right, config=MMJoinConfig(delta1=1, delta2=1)
        )
        assert result.counts == expected

    @given(pairs=pairs_strategy)
    @SETTINGS
    def test_self_join_output_symmetric(self, pairs):
        rel = Relation.from_pairs(pairs)
        result = two_path_join(rel, rel).pairs
        assert {(b, a) for a, b in result} == result


class TestSSJProperties:
    @given(
        sets=st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
            min_size=1,
            max_size=8,
        ),
        c=st.integers(min_value=1, max_value=3),
    )
    @SETTINGS
    def test_ssj_mmjoin_matches_bruteforce(self, sets, c):
        family = SetFamily.from_dict(sets)
        assert ssj_mmjoin(family, c).pairs == ssj_bruteforce(family, c).pairs
