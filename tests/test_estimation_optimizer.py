"""Tests for output-size estimation and the cost-based optimizer."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import random_relation, relations, skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.core.estimation import (
    estimate_output_size,
    estimate_star_output_size,
    exact_full_join_size,
)
from repro.core.optimizer import (
    SEARCH_CAP,
    THRESHOLD_SHRINK,
    CostBasedOptimizer,
    CostConstants,
    OptimizerDecision,
    _power_of_two_grid,
)
from repro.data import generators
from repro.data.indexes import DegreeStatistics
from repro.data.relation import Relation
from repro.matmul.cost_model import MatMulCostModel
from repro.joins.hash_join import hash_join_count, hash_join_project


class TestEstimation:
    def test_exact_full_join_size(self, tiny_relation, tiny_relation_s):
        assert exact_full_join_size(tiny_relation, tiny_relation_s) == hash_join_count(
            tiny_relation, tiny_relation_s
        )

    def test_bounds_contain_true_output(self, skewed_pair):
        left, right = skewed_pair
        est = estimate_output_size(left, right)
        truth = len(hash_join_project(left, right))
        assert est.lower_bound <= truth <= est.upper_bound

    def test_estimate_within_bounds(self, skewed_pair):
        left, right = skewed_pair
        est = estimate_output_size(left, right)
        assert est.lower_bound <= est.estimate <= est.upper_bound

    def test_estimate_with_precomputed_join_size(self, tiny_relation, tiny_relation_s):
        join_size = exact_full_join_size(tiny_relation, tiny_relation_s)
        est = estimate_output_size(tiny_relation, tiny_relation_s, full_join_size=join_size)
        assert est.full_join_size == join_size

    def test_clamp(self, tiny_relation, tiny_relation_s):
        est = estimate_output_size(tiny_relation, tiny_relation_s)
        assert est.clamp(-5) == est.lower_bound
        assert est.clamp(est.upper_bound * 10) == est.upper_bound

    def test_community_instance_output_much_smaller_than_join(self, community_relation):
        est = estimate_output_size(community_relation, community_relation)
        assert est.upper_bound <= est.full_join_size
        assert est.full_join_size > 5 * len(community_relation)

    def test_star_estimate_bounds(self, tiny_relation, tiny_relation_s):
        from repro.joins.baseline import combinatorial_star

        relations = [tiny_relation, tiny_relation_s, tiny_relation]
        est = estimate_star_output_size(relations)
        truth = len(combinatorial_star(relations))
        assert est.lower_bound <= truth <= max(est.upper_bound, est.lower_bound)

    def test_star_estimate_empty(self):
        est = estimate_star_output_size([])
        assert est.estimate == 0.0


class TestOptimizer:
    def test_small_join_picks_wcoj(self):
        rel = generators.roadnet_graph(400, seed=1)
        decision = CostBasedOptimizer().choose_two_path(rel, rel)
        assert decision.strategy == "wcoj"

    def test_dense_join_picks_mmjoin(self, community_relation):
        decision = CostBasedOptimizer().choose_two_path(community_relation, community_relation)
        assert decision.strategy == "mmjoin"
        assert decision.delta1 >= 1 and decision.delta2 >= 1

    def test_full_join_factor_respected(self, community_relation):
        config = MMJoinConfig(full_join_factor=1e12)
        decision = CostBasedOptimizer(config=config).choose_two_path(
            community_relation, community_relation
        )
        assert decision.strategy == "wcoj"

    def test_decision_fields_populated(self, community_relation):
        decision = CostBasedOptimizer().choose_two_path(community_relation, community_relation)
        assert decision.full_join_size > 0
        assert decision.estimated_output > 0
        assert decision.estimated_cost > 0
        assert decision.search_steps > 0

    def test_search_terminates(self, skewed_pair):
        left, right = skewed_pair
        decision = CostBasedOptimizer().choose_two_path(left, right)
        assert decision.search_steps < 200

    def test_cost_constants_influence_decision(self, community_relation):
        cheap_mm = CostBasedOptimizer(
            constants=CostConstants(random_insert=1.0)  # make light work absurdly expensive
        )
        decision = cheap_mm.choose_two_path(community_relation, community_relation)
        assert decision.strategy == "mmjoin"

    def test_star_decision_small_input(self, tiny_relation, tiny_relation_s):
        decision = CostBasedOptimizer().choose_star([tiny_relation, tiny_relation_s])
        assert decision.strategy in ("wcoj", "mmjoin")

    def test_star_decision_dense_input(self, community_relation):
        relations = [community_relation, community_relation, community_relation]
        decision = CostBasedOptimizer().choose_star(relations)
        assert decision.strategy == "mmjoin"
        assert decision.delta1 >= 1 and decision.delta2 >= 1

    def test_star_single_relation_is_wcoj(self, tiny_relation):
        decision = CostBasedOptimizer().choose_star([tiny_relation])
        assert decision.strategy == "wcoj"

    def test_thresholds_bounded_by_max_degree(self, skewed_pair):
        left, right = skewed_pair
        decision = CostBasedOptimizer().choose_two_path(left, right)
        if decision.strategy == "mmjoin":
            max_deg = max(
                max(left.degrees_y().values()), max(right.degrees_y().values())
            )
            assert decision.delta1 <= max_deg + 1


def reference_choose_two_path(optimizer, left, right):
    """The step-at-a-time threshold search, kept as the oracle of the array pass.

    Walks the geometric ``delta1`` grid one step at a time with scalar index
    queries and one matrix-model call per step, stops at the first step
    whose cost exceeds the previous one, and keeps the first minimum.
    """
    n = max(len(left), len(right), 1)
    estimate = estimate_output_size(left, right)
    out_join = estimate.full_join_size
    c = optimizer.constants
    wcoj_cost = (out_join + n) * c.random_insert
    if out_join <= optimizer.config.full_join_factor * n:
        return OptimizerDecision("wcoj", 0, 0, wcoj_cost, estimate.estimate, out_join)
    sl = DegreeStatistics.from_relation(left)
    sr = DegreeStatistics.from_relation(right)
    out_estimate = max(estimate.estimate, 1.0)
    model, cores = optimizer.matmul_model, optimizer.config.cores
    best, prev_total, steps = None, float("inf"), 0
    delta1 = float(max(sl.y_index.max_degree(), sr.y_index.max_degree(), 1))
    while delta1 >= 1.0 and steps < 200:
        steps += 1
        delta2 = max(n * delta1 / out_estimate, 1.0)
        light = (
            c.random_insert * (sl.sum_y(delta1) + sr.sum_y(delta1)
                               + (sl.sum_x(delta2) + sr.sum_x(delta2)) * max(delta1, 1.0))
            + c.sequential_access * (sl.cdfx_y(delta1) + sr.cdfx_y(delta1))
            + c.allocation * (sl.domain_x + sr.domain_x)
        )
        u = sl.heavy_x_count(delta2)
        v = max(sl.heavy_y_count(delta1), sr.heavy_y_count(delta1))
        w = sr.heavy_x_count(delta2)
        heavy = 0.0 if min(u, v, w) == 0 else (
            model.estimate(u, v, w, cores=cores)
            + model.estimate_construction(u, v, w, cores=cores)
        )
        total = light + heavy
        if best is None or total < best[0]:
            best = (total, int(round(delta1)), int(round(delta2)), light, heavy)
        if total > prev_total:
            break
        prev_total = total
        delta1 *= THRESHOLD_SHRINK
    total, d1, d2, light, heavy = best
    if wcoj_cost <= total:
        return OptimizerDecision("wcoj", 0, 0, wcoj_cost, out_estimate, out_join,
                                 search_steps=steps)
    return OptimizerDecision("mmjoin", max(d1, 1), max(d2, 1), total, out_estimate,
                             out_join, light, heavy, steps)


CALIBRATED = {128: 1.1e-3, 256: 7.3e-3, 512: 5.2e-2}


def _optimizer(table, cores, factor):
    model = MatMulCostModel()
    if table:
        model.set_table(table)
    return CostBasedOptimizer(config=MMJoinConfig(cores=cores, full_join_factor=factor),
                              matmul_model=model)


class TestGridSearchMatchesStepwiseOracle:
    """The array-priced grid decides exactly what the scalar loop decides."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        left=relations(name="R"),
        right=st.one_of(st.none(), relations(name="S")),
        table=st.sampled_from([None, CALIBRATED]),
        cores=st.sampled_from([1, 3]),
        factor=st.sampled_from([1e-9, 1.0, 20.0]),
    )
    def test_property(self, left, right, table, cores, factor):
        right = left if right is None else right  # None draws a self-join
        optimizer = _optimizer(table, cores, factor)
        assert (optimizer.choose_two_path(left, right)
                == reference_choose_two_path(optimizer, left, right))

    @pytest.mark.parametrize("factor", [1e-9, 20.0])
    @pytest.mark.parametrize("table", [None, CALIBRATED])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_skewed_inputs(self, seed, table, factor):
        left = skewed_random_relation(seed, n_pairs=3000, x_domain=300, y_domain=80)
        right = skewed_random_relation(seed + 50, n_pairs=2000, x_domain=200,
                                       y_domain=90, hot_fraction=0.1)
        # Few heads on one side, many on the other: grid points where only
        # one side has heavy heads (an empty heavy product) occur here.
        narrow = skewed_random_relation(seed, n_pairs=1500, x_domain=30,
                                        y_domain=200, hot_fraction=0.5)
        wide = random_relation(seed + 7, n_pairs=1500, x_domain=600, y_domain=200)
        optimizer = _optimizer(table, 1, factor)
        for pair in ((left, left), (left, right), (right, left), (narrow, wide),
                     (wide, narrow)):
            decision = optimizer.choose_two_path(*pair)
            assert decision == reference_choose_two_path(optimizer, *pair)


class TestStarSearch:
    """The choose_star grid search deduplicates pairs and caps its steps."""

    def test_search_steps_capped(self, community_relation):
        relations = [community_relation, community_relation, community_relation]
        decision = CostBasedOptimizer().choose_star(relations)
        assert decision.strategy == "mmjoin"
        assert 0 < decision.search_steps <= SEARCH_CAP

    def test_no_duplicate_candidate_pairs_evaluated(self, community_relation):
        relations = [community_relation, community_relation]
        decision = CostBasedOptimizer().choose_star(relations)
        grid = _power_of_two_grid(
            max(d for rel in relations for d in rel.degrees_y().values())
        )
        # Distinct pairs only: never more than |grid|^2 evaluations even
        # before the early exit kicks in.
        assert decision.search_steps <= len(set(grid)) ** 2

    def test_early_exit_prunes_grid(self, community_relation):
        """Mirroring the two-path search: rows stop once cost grows again."""
        relations = [community_relation, community_relation, community_relation]
        decision = CostBasedOptimizer().choose_star(relations)
        grid = _power_of_two_grid(
            max(d for rel in relations for d in rel.degrees_y().values())
        )
        full_grid = len(set(grid)) ** 2
        assert decision.search_steps <= full_grid

    def test_capped_search_still_returns_valid_thresholds(self, skewed_pair):
        left, right = skewed_pair
        decision = CostBasedOptimizer().choose_star([left, right, left])
        if decision.strategy == "mmjoin":
            assert decision.delta1 >= 1 and decision.delta2 >= 1
