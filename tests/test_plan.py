"""Tests for the logical-plan layer: queries, planner, operators, explain()."""

import pytest

from oracle import star_pairs, two_path_counts, two_path_pairs
from repro.bench.runner import time_call
from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.core.two_path import two_path_join
from repro.data.setfamily import SetFamily
from repro.plan.planner import Planner
from repro.plan.query import (
    ContainmentJoinQuery,
    SimilarityJoinQuery,
    StarQuery,
    TwoPathQuery,
)

OPERATOR_NAMES = [
    "semijoin_reduce",
    "light_heavy_partition",
    "combinatorial_light",
    "matmul_heavy",
    "dedup_merge",
]


class TestPlanStructure:
    def test_pipeline_has_five_operators(self, skewed_pair):
        left, right = skewed_pair
        plan = Planner().create_plan(TwoPathQuery(left=left, right=right))
        assert [op.name for op in plan.operators] == OPERATOR_NAMES
        assert not plan.executed

    def test_unknown_query_type_rejected(self):
        with pytest.raises(TypeError):
            Planner().create_plan(object())  # type: ignore[arg-type]

    def test_similarity_query_lowers_to_counting_two_path(self, small_family):
        query = SimilarityJoinQuery(family=small_family, overlap=2)
        lowered = query.lower()
        assert isinstance(lowered, TwoPathQuery)
        assert lowered.with_counts
        plan = Planner().create_plan(query)
        assert plan.query.kind == "similarity"
        assert plan.mode == "counts"

    def test_containment_query_lowers_to_counting_two_path(self, small_family):
        plan = Planner().create_plan(ContainmentJoinQuery(family=small_family))
        assert plan.query.kind == "containment"
        assert plan.mode == "counts"


class TestPlanExecution:
    def test_two_path_matches_baseline(self, skewed_pair):
        left, right = skewed_pair
        plan = Planner().execute(TwoPathQuery(left=left, right=right))
        assert plan.state.result_block.to_set() == two_path_pairs(left, right)

    def test_counting_matches_baseline(self, skewed_pair):
        left, right = skewed_pair
        plan = Planner().execute(TwoPathQuery(left=left, right=right, counting=True))
        assert plan.state.result_counted.to_dict() == two_path_counts(left, right)

    def test_star_matches_baseline(self, tiny_relation, tiny_relation_s):
        relations = [tiny_relation, tiny_relation_s, tiny_relation]
        config = MMJoinConfig(delta1=2, delta2=2)
        plan = Planner(config=config).execute(StarQuery(relations))
        assert plan.state.result_block.to_set() == star_pairs(relations)

    def test_forced_mmjoin_runs_every_operator(self, skewed_pair):
        left, right = skewed_pair
        config = MMJoinConfig(delta1=2, delta2=2)
        plan = Planner(config=config).execute(TwoPathQuery(left=left, right=right))
        statuses = {op.name: op.status for op in plan.operators}
        assert all(status == "ran" for status in statuses.values()), statuses

    def test_wcoj_skips_matmul_heavy(self, skewed_pair):
        left, right = skewed_pair
        config = MMJoinConfig(use_optimizer=False)
        plan = Planner(config=config).execute(TwoPathQuery(left=left, right=right))
        statuses = {op.name: op.status for op in plan.operators}
        assert statuses["matmul_heavy"] == "skipped"
        assert statuses["combinatorial_light"] == "ran"
        assert plan.state.strategy == "wcoj"


class TestExplain:
    def test_explain_names_every_executed_operator(self, skewed_pair):
        """Acceptance: explain() names every physical operator executed with
        its backend choice and per-operator wall-clock time."""
        left, right = skewed_pair
        config = MMJoinConfig(delta1=2, delta2=2)
        plan = Planner(config=config).execute(TwoPathQuery(left=left, right=right))
        explanation = plan.explain()
        assert explanation.operator_names() == OPERATOR_NAMES
        matmul = [op for op in explanation.operators if op.operator == "matmul_heavy"][0]
        assert matmul.backend in ("dense", "sparse")
        for report in explanation.operators:
            assert report.actual_seconds >= 0.0
        text = explanation.format()
        for name in OPERATOR_NAMES:
            assert name in text
        assert matmul.backend in text

    def test_explain_reports_estimated_vs_actual(self, skewed_pair):
        left, right = skewed_pair
        plan = Planner().execute(TwoPathQuery(left=left, right=right))
        explanation = plan.explain()
        decision = plan.state.decision
        assert decision is not None
        assert explanation.estimated_total_cost == decision.estimated_cost
        by_name = {op.operator: op for op in explanation.operators}
        if plan.state.strategy == "mmjoin":
            assert by_name["combinatorial_light"].estimated_cost == decision.light_cost
            assert by_name["matmul_heavy"].estimated_cost == decision.heavy_cost

    def test_result_explain_facility(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=2, delta2=2))
        text = result.explain()
        assert "matmul_heavy" in text and "strategy" in text
        assert result.explanation is not None
        assert result.explanation.query_kind == "two_path"

    def test_star_explain(self, tiny_relation, tiny_relation_s):
        result = star_join(
            [tiny_relation, tiny_relation_s, tiny_relation],
            config=MMJoinConfig(delta1=2, delta2=2),
        )
        assert "semijoin_reduce" in result.explain()
        assert result.explanation.query_kind == "star"


class TestDetailsPlumbing:
    def test_bench_measurement_carries_details(self, skewed_pair):
        left, right = skewed_pair
        measurement = time_call(two_path_join, left, right, repeats=1)
        assert measurement.details["strategy"] in ("wcoj", "mmjoin")
        assert "backend" in measurement.details
        operators = measurement.details["operators"]
        assert [op["operator"] for op in operators] == OPERATOR_NAMES
        assert "op.matmul_heavy.seconds" in measurement.details


class TestLegacyTimings:
    def test_timings_keys_preserved(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=2, delta2=2))
        for key in ("partition", "light", "matrix_build", "matrix_multiply", "total"):
            assert key in result.plan.state.timings, key

    def test_operator_timings_added(self, skewed_pair):
        left, right = skewed_pair
        result = two_path_join(left, right, config=MMJoinConfig(delta1=2, delta2=2))
        for name in OPERATOR_NAMES:
            assert name in result.plan.state.timings, name
