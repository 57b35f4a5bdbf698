"""Tests for the core MMJoin two-path algorithm (Algorithm 1)."""

import pytest

from oracle import two_path_counts, two_path_pairs
from repro.core.config import MMJoinConfig
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.data import generators
from repro.data.relation import Relation


class TestCorrectness:
    def test_matches_baseline_default_config(self, skewed_pair):
        left, right = skewed_pair
        expected = two_path_pairs(left, right)
        result = two_path_join(left, right)
        assert result.pairs == expected

    @pytest.mark.parametrize("delta1,delta2", [(1, 1), (2, 2), (3, 5), (5, 3), (10, 10), (1000, 1000)])
    def test_matches_baseline_any_thresholds(self, skewed_pair, delta1, delta2):
        left, right = skewed_pair
        expected = two_path_pairs(left, right)
        config = MMJoinConfig(delta1=delta1, delta2=delta2)
        assert two_path_join(left, right, config=config).pairs == expected

    def test_self_join(self, tiny_relation):
        expected = two_path_pairs(tiny_relation, tiny_relation)
        result = two_path_join(tiny_relation, tiny_relation, config=MMJoinConfig(delta1=2, delta2=2))
        assert result.pairs == expected

    def test_community_instance(self, community_relation):
        """The Example 1 instance: big full join, small projected output."""
        expected = two_path_pairs(community_relation, community_relation)
        result = two_path_join(community_relation, community_relation)
        assert result.pairs == expected
        # The instance is dense enough that the optimizer should pick mmjoin.
        assert result.strategy == "mmjoin"

    def test_empty_inputs(self, tiny_relation):
        assert two_path_join(tiny_relation, Relation.empty()).pairs == set()
        assert two_path_join(Relation.empty(), Relation.empty()).pairs == set()

    def test_disjoint_y_domains(self):
        left = Relation.from_pairs([(1, 10), (2, 11)])
        right = Relation.from_pairs([(5, 20), (6, 21)])
        assert two_path_join(left, right).pairs == set()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_backends_agree(self, skewed_pair, backend):
        left, right = skewed_pair
        expected = two_path_pairs(left, right)
        config = MMJoinConfig(delta1=2, delta2=2, matrix_backend=backend)
        result = two_path_join(left, right, config=config)
        assert result.pairs == expected
        assert result.backend == backend

    def test_sparse_relation_uses_wcoj(self):
        """Road-network-like input: the full join is small, optimizer keeps WCOJ."""
        rel = generators.roadnet_graph(500, seed=3)
        result = two_path_join(rel, rel)
        assert result.strategy == "wcoj"
        assert result.pairs == two_path_pairs(rel, rel)

    def test_forced_wcoj(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(use_optimizer=False))
        assert result.strategy == "wcoj"
        assert result.pairs == two_path_pairs(left, right)


class TestCounting:
    def test_counts_match_bruteforce(self, skewed_pair):
        left, right = skewed_pair
        expected = two_path_counts(left, right)
        result = two_path_join_counts(left, right)
        assert result.counts == expected

    @pytest.mark.parametrize("delta1", [1, 2, 4, 50])
    def test_counts_any_threshold(self, tiny_relation, tiny_relation_s, delta1):
        expected = two_path_counts(tiny_relation, tiny_relation_s)
        config = MMJoinConfig(delta1=delta1, delta2=delta1)
        result = two_path_join_counts(tiny_relation, tiny_relation_s, config=config)
        assert result.counts == expected

    def test_counts_pairs_consistent(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join_counts(left, right)
        assert result.pairs == set(result.counts)

    def test_counts_empty(self, tiny_relation):
        result = two_path_join_counts(tiny_relation, Relation.empty())
        assert result.counts == {}


class TestResultMetadata:
    def test_result_container_protocol(self, tiny_relation, tiny_relation_s):
        result = two_path_join(tiny_relation, tiny_relation_s)
        assert len(result) == result.output_size == len(result.result_block)
        assert len(result.pairs) == len(result)
        some_pair = next(iter(result.pairs))
        assert result.result_block.find(some_pair) >= 0

    def test_timings_present(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=2, delta2=2))
        timings = result.plan.state.timings
        assert "total" in timings
        assert timings["total"] >= 0
        assert "light" in timings

    def test_matrix_dims_reported(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=1, delta2=1))
        heavy = next(op for op in result.explanation.operators if op.operator == "matmul_heavy")
        u, v, w = heavy.detail["matrix_dims"]
        assert u >= 0 and v >= 0 and w >= 0
        assert heavy.detail["heavy_pairs"] == len(result.plan.state.heavy_block)

    def test_optimizer_decision_attached(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right)
        decision = result.plan.state.decision
        assert decision is not None
        assert decision.strategy == result.strategy

    def test_light_and_heavy_cover_output(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=2, delta2=2))
        state = result.plan.state
        assert len(state.light_block) + len(state.heavy_block) >= len(result)
