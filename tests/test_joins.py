"""Unit tests for the sorted-intersection primitives (repro.joins.leapfrog)."""

import numpy as np

from repro.joins.leapfrog import intersect_sorted, leapfrog_intersection


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
