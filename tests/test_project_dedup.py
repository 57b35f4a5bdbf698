"""Unit tests for the combinatorial baseline join (repro.joins.baseline)."""

from repro.data.relation import Relation
from repro.joins.baseline import (
    combinatorial_star,
    combinatorial_two_path,
    combinatorial_two_path_filtered,
)
from repro.joins.hash_join import hash_join_project, hash_join_project_counts


class TestCombinatorialBaseline:
    def test_matches_full_join_project(self, skewed_pair):
        left, right = skewed_pair
        assert combinatorial_two_path(left, right) == hash_join_project(left, right)

    def test_matches_full_join_project_tiny(self, tiny_relation, tiny_relation_s):
        expected = hash_join_project(tiny_relation, tiny_relation_s)
        assert combinatorial_two_path(tiny_relation, tiny_relation_s) == expected

    def test_with_counts(self, tiny_relation, tiny_relation_s):
        counts = combinatorial_two_path(tiny_relation, tiny_relation_s, with_counts=True)
        assert counts == hash_join_project_counts(tiny_relation, tiny_relation_s)

    def test_empty_input(self, tiny_relation):
        assert combinatorial_two_path(tiny_relation, Relation.empty()) == set()
        assert combinatorial_two_path(tiny_relation, Relation.empty(), with_counts=True) == {}

    def test_star_two_relations(self, tiny_relation, tiny_relation_s):
        star = combinatorial_star([tiny_relation, tiny_relation_s])
        expected = {(x, z) for x, z in hash_join_project(tiny_relation, tiny_relation_s)}
        assert star == expected

    def test_star_with_counts_sum(self, tiny_relation, tiny_relation_s):
        counts = combinatorial_star([tiny_relation, tiny_relation_s], with_counts=True)
        assert sum(counts.values()) == tiny_relation.full_join_size(tiny_relation_s)

    def test_star_three_relations_self(self, tiny_relation):
        rels = [tiny_relation] * 3
        result = combinatorial_star(rels)
        # every output tuple must have a common witness
        for x1, x2, x3 in list(result)[:50]:
            common = set(tiny_relation.neighbors_x(x1).tolist())
            common &= set(tiny_relation.neighbors_x(x2).tolist())
            common &= set(tiny_relation.neighbors_x(x3).tolist())
            assert common

    def test_filtered_two_path(self, tiny_relation, tiny_relation_s):
        expected = hash_join_project(tiny_relation, tiny_relation_s)
        candidates = [(1, 1), (2, 2), (1, 3), (5, 6)]
        filtered = combinatorial_two_path_filtered(tiny_relation, tiny_relation_s, candidates)
        assert filtered == {pair for pair in candidates if pair in expected}

    def test_filtered_empty_candidates(self, tiny_relation, tiny_relation_s):
        assert combinatorial_two_path_filtered(tiny_relation, tiny_relation_s, []) == set()
