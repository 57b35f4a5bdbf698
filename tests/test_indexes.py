"""Unit tests for repro.data.indexes (the optimizer's degree indexes)."""

import numpy as np
import pytest

from repro.data.indexes import DegreeIndex, DegreeStatistics, build_statistics
from repro.data.relation import Relation


class TestDegreeIndex:
    def test_count_at_most(self):
        idx = DegreeIndex(np.array([1, 2, 2, 5, 9]))
        assert idx.count_at_most(0) == 0
        assert idx.count_at_most(2) == 3
        assert idx.count_at_most(100) == 5

    def test_count_above_complements_count_at_most(self):
        idx = DegreeIndex(np.array([1, 3, 3, 7]))
        for delta in (0, 1, 3, 6, 7, 10):
            assert idx.count_at_most(delta) + idx.count_above(delta) == 4

    def test_sum_at_most_default_weights(self):
        idx = DegreeIndex(np.array([1, 2, 4]))
        assert idx.sum_at_most(2) == pytest.approx(3.0)
        assert idx.sum_at_most(10) == pytest.approx(7.0)

    def test_sum_above(self):
        idx = DegreeIndex(np.array([1, 2, 4]))
        assert idx.sum_above(1) == pytest.approx(6.0)

    def test_custom_weights(self):
        idx = DegreeIndex(np.array([2, 3]), weights=np.array([10.0, 20.0]))
        assert idx.sum_at_most(2) == pytest.approx(10.0)
        assert idx.total() == pytest.approx(30.0)

    def test_unsorted_degrees(self):
        idx = DegreeIndex(np.array([3, 1, 5]))
        assert idx.num_values() == 3
        assert idx.max_degree() == 5

    def test_weights_follow_their_degrees_through_the_sort(self):
        idx = DegreeIndex(np.array([4, 2]), weights=np.array([16.0, 4.0]))
        assert idx.sum_at_most(2) == pytest.approx(4.0)
        assert idx.sum_at_most(4) == pytest.approx(20.0)

    def test_quantile_degree(self):
        idx = DegreeIndex(np.array([1, 2, 3, 4, 100]))
        assert idx.quantile_degree(0.0) == 1
        assert idx.quantile_degree(1.0) == 100
        assert idx.quantile_degree(0.5) == 3

    def test_empty_index(self):
        idx = DegreeIndex(np.array([], dtype=np.int64))
        assert idx.count_at_most(5) == 0
        assert idx.max_degree() == 0
        assert idx.quantile_degree(0.5) == 0


class TestDegreeStatistics:
    @pytest.fixture
    def stats(self, tiny_relation):
        return DegreeStatistics.from_relation(tiny_relation)

    def test_counts_match_relation(self, stats, tiny_relation):
        assert stats.num_tuples == len(tiny_relation)
        assert stats.domain_x == tiny_relation.x_values().size
        assert stats.domain_y == tiny_relation.y_values().size

    def test_light_heavy_partition_of_x(self, stats, tiny_relation):
        max_deg = max(tiny_relation.degrees_x().values())
        for delta in range(0, max_deg + 1):
            assert stats.light_x_count(delta) + stats.heavy_x_count(delta) == stats.x_index.num_values()

    def test_light_heavy_partition_of_y(self, stats):
        total = stats.y_index.num_values()
        for delta in (0, 1, 2, 3, 10):
            assert stats.light_y_count(delta) + stats.heavy_y_count(delta) == total

    def test_sum_x_counts_light_tuples(self, stats, tiny_relation):
        """sum(x_delta) over all degrees equals the tuple count."""
        max_deg = max(tiny_relation.degrees_x().values())
        assert stats.sum_x(max_deg) == pytest.approx(len(tiny_relation))

    def test_sum_y_is_sum_of_squares(self, stats, tiny_relation):
        expected = sum(d * d for d in tiny_relation.degrees_y().values())
        max_deg = max(tiny_relation.degrees_y().values())
        assert stats.sum_y(max_deg) == pytest.approx(expected)

    def test_cdfx_counts_tuples_by_y_degree(self, stats, tiny_relation):
        max_deg = max(tiny_relation.degrees_y().values())
        assert stats.cdfx_y(max_deg) == pytest.approx(len(tiny_relation))
        assert stats.cdfx_y(0) == pytest.approx(0.0)

    def test_cdfx_monotone(self, stats):
        values = [stats.cdfx_y(d) for d in range(0, 6)]
        assert values == sorted(values)

    def test_heavy_dimensions(self, stats):
        u, v = stats.heavy_dimensions(1, 1)
        assert u == stats.heavy_x_count(1)
        assert v == stats.heavy_y_count(1)

    def test_build_statistics_helper(self, tiny_relation, tiny_relation_s):
        stats = build_statistics({"R": tiny_relation, "S": tiny_relation_s})
        assert set(stats) == {"R", "S"}
        assert stats["R"].num_tuples == len(tiny_relation)
