"""Tests for the star-query MMJoin (Section 3.2)."""

import pytest

from oracle import star_pairs
from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.data import generators
from repro.data.relation import Relation


@pytest.fixture
def star_relations():
    r1 = generators.zipf_bipartite(900, 80, 60, skew=1.1, seed=31, name="R1")
    r2 = generators.zipf_bipartite(900, 80, 60, skew=1.1, seed=32, name="R2")
    r3 = generators.zipf_bipartite(900, 80, 60, skew=1.1, seed=33, name="R3")
    return [r1, r2, r3]


class TestCorrectness:
    def test_two_relation_star_matches_baseline(self, tiny_relation, tiny_relation_s):
        relations = [tiny_relation, tiny_relation_s]
        expected = star_pairs(relations)
        result = star_join(relations, config=MMJoinConfig(delta1=2, delta2=2))
        assert result.pairs == expected

    def test_three_relation_star_matches_baseline(self, star_relations):
        expected = star_pairs(star_relations)
        result = star_join(star_relations, config=MMJoinConfig(delta1=2, delta2=2))
        assert result.pairs == expected

    @pytest.mark.parametrize("delta1,delta2", [(1, 1), (2, 3), (3, 2), (50, 50)])
    def test_any_thresholds(self, tiny_relation, tiny_relation_s, delta1, delta2):
        relations = [tiny_relation, tiny_relation_s, tiny_relation]
        expected = star_pairs(relations)
        result = star_join(relations, config=MMJoinConfig(delta1=delta1, delta2=delta2))
        assert result.pairs == expected

    def test_optimizer_choice_still_correct(self, star_relations):
        expected = star_pairs(star_relations)
        result = star_join(star_relations)
        assert result.pairs == expected

    def test_four_relation_star(self, tiny_relation, tiny_relation_s):
        relations = [tiny_relation, tiny_relation_s, tiny_relation, tiny_relation_s]
        expected = star_pairs(relations)
        result = star_join(relations, config=MMJoinConfig(delta1=1, delta2=1))
        assert result.pairs == expected

    def test_single_relation(self, tiny_relation):
        result = star_join([tiny_relation])
        assert result.pairs == {(int(x),) for x in tiny_relation.x_values()}

    def test_empty_input_list(self):
        assert star_join([]).pairs == set()

    def test_empty_relation_in_star(self, tiny_relation):
        assert star_join([tiny_relation, Relation.empty()]).pairs == set()

    def test_disjoint_witnesses(self):
        r1 = Relation.from_pairs([(1, 10)])
        r2 = Relation.from_pairs([(2, 20)])
        assert star_join([r1, r2]).pairs == set()

    def test_forced_wcoj(self, star_relations):
        result = star_join(star_relations, config=MMJoinConfig(use_optimizer=False))
        assert result.strategy == "wcoj"
        assert result.pairs == star_pairs(star_relations)


class TestMetadata:
    def test_result_protocol(self, tiny_relation, tiny_relation_s):
        result = star_join([tiny_relation, tiny_relation_s])
        assert len(result) == result.output_size == len(result.pairs)
        tup = next(iter(result.pairs))
        assert result.result_block.find(tup) >= 0

    def test_timings_and_dims(self, star_relations):
        result = star_join(star_relations, config=MMJoinConfig(delta1=2, delta2=2))
        state = result.plan.state
        assert "total" in state.timings
        assert result.strategy == "mmjoin"
        assert len(state.light_block) + len(state.heavy_block) >= len(result)

    def test_output_arity_matches_relation_count(self, star_relations):
        result = star_join(star_relations, config=MMJoinConfig(delta1=2, delta2=2))
        for tup in list(result.pairs)[:20]:
            assert len(tup) == 3

    def test_every_output_tuple_has_witness(self, star_relations):
        result = star_join(star_relations, config=MMJoinConfig(delta1=2, delta2=2))
        for tup in list(result.pairs)[:50]:
            common = set(star_relations[0].neighbors_x(tup[0]).tolist())
            for rel, head in zip(star_relations[1:], tup[1:]):
                common &= set(rel.neighbors_x(head).tolist())
            assert common
