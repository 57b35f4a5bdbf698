"""Unit tests for the combinatorial baseline join (repro.joins.baseline)."""

from oracle import star_pairs, two_path_counts, two_path_pairs

from repro.data.relation import Relation
from repro.joins.baseline import (
    combinatorial_star_block,
    combinatorial_two_path_block,
    combinatorial_two_path_counted,
    combinatorial_two_path_filtered,
)


class TestCombinatorialBaseline:
    def test_matches_full_join_project(self, skewed_pair):
        left, right = skewed_pair
        assert combinatorial_two_path_block(left, right).to_set() == two_path_pairs(left, right)

    def test_matches_full_join_project_tiny(self, tiny_relation, tiny_relation_s):
        expected = two_path_pairs(tiny_relation, tiny_relation_s)
        assert combinatorial_two_path_block(tiny_relation, tiny_relation_s).to_set() == expected

    def test_with_counts(self, tiny_relation, tiny_relation_s):
        counts = combinatorial_two_path_counted(tiny_relation, tiny_relation_s).to_dict()
        assert counts == two_path_counts(tiny_relation, tiny_relation_s)

    def test_empty_input(self, tiny_relation):
        assert len(combinatorial_two_path_block(tiny_relation, Relation.empty())) == 0
        assert len(combinatorial_two_path_counted(tiny_relation, Relation.empty())) == 0

    def test_star_two_relations(self, tiny_relation, tiny_relation_s):
        star = combinatorial_star_block([tiny_relation, tiny_relation_s]).to_set()
        assert star == two_path_pairs(tiny_relation, tiny_relation_s)

    def test_star_three_relations_self(self, tiny_relation):
        rels = [tiny_relation] * 3
        assert combinatorial_star_block(rels).to_set() == star_pairs(rels)

    def test_filtered_two_path(self, tiny_relation, tiny_relation_s):
        expected = two_path_pairs(tiny_relation, tiny_relation_s)
        candidates = [(1, 1), (2, 2), (1, 3), (5, 6)]
        filtered = combinatorial_two_path_filtered(tiny_relation, tiny_relation_s, candidates)
        assert filtered == {pair for pair in candidates if pair in expected}

    def test_filtered_empty_candidates(self, tiny_relation, tiny_relation_s):
        assert combinatorial_two_path_filtered(tiny_relation, tiny_relation_s, []) == set()
