"""Unit tests for the join substrate (hash, sort-merge, leapfrog, generic join)."""

import numpy as np
import pytest

from repro.data.relation import Relation, full_join_size
from repro.joins.generic_join import (
    generic_star_join_project,
    generic_star_join_project_counts,
    generic_two_path_project,
)
from repro.joins.hash_join import (
    batched_hash_join_project,
    hash_join,
    hash_join_count,
    hash_join_materialized,
    hash_join_project,
    hash_join_project_counts,
)
from repro.joins.leapfrog import (
    intersect_sorted,
    intersection_size,
    leapfrog_intersection,
    star_full_join,
)
from repro.joins.sort_merge import (
    sort_merge_join,
    sort_merge_join_counts,
    sort_merge_join_project,
    sort_merge_join_project_sorted_dedup,
)


def brute_force_two_path(left, right):
    out = set()
    for x, y in left:
        for z, y2 in right:
            if y == y2:
                out.add((x, z))
    return out


def brute_force_star(relations):
    out = set()
    shared = set(relations[0].y_values().tolist())
    for rel in relations[1:]:
        shared &= set(rel.y_values().tolist())
    for y in shared:
        lists = [rel.neighbors_y(y).tolist() for rel in relations]
        def expand(prefix, rest):
            if not rest:
                out.add(tuple(prefix))
                return
            for v in rest[0]:
                expand(prefix + [v], rest[1:])
        expand([], lists)
    return out


class TestHashJoin:
    def test_full_join_matches_bruteforce(self, tiny_relation, tiny_relation_s):
        full = set(hash_join(tiny_relation, tiny_relation_s))
        expected = set()
        for x, y in tiny_relation:
            for z, y2 in tiny_relation_s:
                if y == y2:
                    expected.add((x, y, z))
        assert full == expected

    def test_project_matches_bruteforce(self, tiny_relation, tiny_relation_s):
        assert hash_join_project(tiny_relation, tiny_relation_s) == brute_force_two_path(
            tiny_relation, tiny_relation_s
        )

    def test_project_skewed(self, skewed_pair):
        left, right = skewed_pair
        assert hash_join_project(left, right) == brute_force_two_path(left, right)

    def test_empty_inputs(self, tiny_relation):
        assert hash_join_project(tiny_relation, Relation.empty()) == set()
        assert hash_join_project(Relation.empty(), tiny_relation) == set()

    def test_count_matches_materialisation(self, tiny_relation, tiny_relation_s):
        assert hash_join_count(tiny_relation, tiny_relation_s) == len(
            hash_join_materialized(tiny_relation, tiny_relation_s)
        )

    def test_project_counts_sum_to_full_join(self, tiny_relation, tiny_relation_s):
        counts = hash_join_project_counts(tiny_relation, tiny_relation_s)
        assert sum(counts.values()) == hash_join_count(tiny_relation, tiny_relation_s)

    def test_batched_project(self, tiny_relation, tiny_relation_s):
        expected = brute_force_two_path(tiny_relation, tiny_relation_s)
        candidates = [(1, 1), (1, 2), (5, 5), (6, 3)]
        result = batched_hash_join_project(tiny_relation, tiny_relation_s, candidates)
        assert result == {pair for pair in candidates if pair in expected}

    def test_batched_project_empty_candidates(self, tiny_relation, tiny_relation_s):
        assert batched_hash_join_project(tiny_relation, tiny_relation_s, []) == set()


class TestSortMergeJoin:
    def test_same_result_as_hash_join(self, tiny_relation, tiny_relation_s):
        assert set(sort_merge_join(tiny_relation, tiny_relation_s)) == set(
            hash_join(tiny_relation, tiny_relation_s)
        )

    def test_project(self, skewed_pair):
        left, right = skewed_pair
        assert sort_merge_join_project(left, right) == brute_force_two_path(left, right)

    def test_sorted_dedup_variant(self, tiny_relation, tiny_relation_s):
        expected = sorted(brute_force_two_path(tiny_relation, tiny_relation_s))
        assert sort_merge_join_project_sorted_dedup(tiny_relation, tiny_relation_s) == expected

    def test_counts_match_hash_counts(self, tiny_relation, tiny_relation_s):
        assert sort_merge_join_counts(tiny_relation, tiny_relation_s) == hash_join_project_counts(
            tiny_relation, tiny_relation_s
        )

    def test_empty(self, tiny_relation):
        assert list(sort_merge_join(tiny_relation, Relation.empty())) == []


class TestLeapfrog:
    def test_intersect_sorted_basic(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5, 8])
        assert intersect_sorted(a, b).tolist() == [3, 5]

    def test_intersect_sorted_disjoint(self):
        assert intersect_sorted(np.array([1, 2]), np.array([3, 4])).size == 0

    def test_intersect_sorted_empty(self):
        assert intersect_sorted(np.array([]), np.array([1])).size == 0

    def test_intersect_commutative(self):
        a = np.array([1, 5, 9, 20, 50])
        b = np.array([5, 20, 21])
        assert intersect_sorted(a, b).tolist() == intersect_sorted(b, a).tolist()

    def test_leapfrog_multiway(self):
        lists = [np.array([1, 2, 3, 4, 5]), np.array([2, 4, 6]), np.array([2, 3, 4])]
        assert leapfrog_intersection(lists).tolist() == [2, 4]

    def test_leapfrog_with_empty_list(self):
        assert leapfrog_intersection([np.array([1, 2]), np.array([])]).size == 0

    def test_leapfrog_no_lists(self):
        assert leapfrog_intersection([]).size == 0

    def test_intersection_size(self):
        assert intersection_size([np.array([1, 2, 3]), np.array([2, 3, 4])]) == 2

    def test_star_full_join_matches_bruteforce(self, tiny_relation, tiny_relation_s):
        rels = [tiny_relation, tiny_relation_s]
        projected = {tup[1:] for tup in star_full_join(rels)}
        assert projected == brute_force_star(rels)

    def test_star_full_join_size(self, tiny_relation, tiny_relation_s):
        rels = [tiny_relation, tiny_relation_s, tiny_relation]
        assert full_join_size(rels) == len(list(star_full_join(rels)))

    def test_star_full_join_empty_relation(self, tiny_relation):
        assert list(star_full_join([tiny_relation, Relation.empty()])) == []


class TestGenericJoin:
    def test_two_relation_star_equals_two_path(self, tiny_relation, tiny_relation_s):
        star = generic_star_join_project([tiny_relation, tiny_relation_s])
        expected = brute_force_two_path(tiny_relation, tiny_relation_s)
        assert star == expected

    def test_three_relation_star(self, tiny_relation, tiny_relation_s):
        rels = [tiny_relation, tiny_relation_s, tiny_relation]
        assert generic_star_join_project(rels) == brute_force_star(rels)

    def test_restricted_y(self, tiny_relation, tiny_relation_s):
        rels = [tiny_relation, tiny_relation_s]
        restricted = generic_star_join_project(rels, restrict_to=[4])
        expected = {
            (x, z)
            for x, z in brute_force_two_path(tiny_relation, tiny_relation_s)
            if 4 in set(tiny_relation.neighbors_x(x).tolist())
            and 4 in set(tiny_relation_s.neighbors_x(z).tolist())
        }
        # Every restricted tuple must have witness 4 specifically.
        for x, z in restricted:
            assert 4 in tiny_relation.neighbors_x(x)
            assert 4 in tiny_relation_s.neighbors_x(z)
        assert restricted <= expected

    def test_counts_sum_to_full_join(self, tiny_relation, tiny_relation_s):
        counts = generic_star_join_project_counts([tiny_relation, tiny_relation_s])
        assert sum(counts.values()) == hash_join_count(tiny_relation, tiny_relation_s)

    def test_two_path_project_with_restrictions(self, tiny_relation, tiny_relation_s):
        full = generic_two_path_project(tiny_relation, tiny_relation_s)
        assert full == brute_force_two_path(tiny_relation, tiny_relation_s)
        restricted = generic_two_path_project(
            tiny_relation, tiny_relation_s, restrict_left_x=[5, 6]
        )
        assert restricted == {(x, z) for x, z in full if x in (5, 6)}

    def test_empty_inputs(self, tiny_relation):
        assert generic_star_join_project([tiny_relation, Relation.empty()]) == set()
        assert generic_two_path_project(Relation.empty(), tiny_relation) == set()
