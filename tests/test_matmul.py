"""Unit tests for the matrix multiplication substrate."""

import numpy as np
import pytest

from repro.data.relation import Relation
from repro.matmul.cost_model import (
    MatMulCostModel,
    calibration_series,
    rectangular_cost,
    theoretical_cost,
)
from repro.matmul.dense import (
    FLOAT32_EXACT_LIMIT,
    accumulation_dtype,
    boolean_matmul,
    build_adjacency,
    build_pair_adjacency,
    count_matmul,
    naive_matmul,
    nonzero_pairs,
    nonzero_pairs_with_counts,
)
from repro.matmul.sparse import (
    build_sparse_adjacency,
    sparse_boolean_matmul,
    sparse_count_matmul,
    sparse_nonzero_pairs,
    sparse_nonzero_pairs_with_counts,
)


@pytest.fixture
def random_matrices():
    rng = np.random.default_rng(3)
    a = (rng.random((17, 23)) < 0.3).astype(np.float32)
    b = (rng.random((23, 11)) < 0.3).astype(np.float32)
    return a, b


class TestCountOverflowGuard:
    """Regression tests: witness counts must stay exact past float32's 2^24."""

    def test_default_limit_is_float32_mantissa(self):
        assert FLOAT32_EXACT_LIMIT == 2**24

    def test_accumulation_dtype_below_limit(self):
        assert accumulation_dtype(2**24) == np.float32
        assert accumulation_dtype(8) == np.float32

    def test_accumulation_dtype_above_limit(self):
        assert accumulation_dtype(2**24 + 1) == np.float64
        assert accumulation_dtype(2**30) == np.float64

    def test_small_products_stay_float32(self):
        a = np.ones((2, 8), dtype=np.float32)
        b = np.ones((8, 2), dtype=np.float32)
        assert count_matmul(a, b).dtype == np.float32

    def test_guard_widens_accumulation(self):
        # A lowered limit stands in for a >2^24 inner dimension: the product
        # must widen to float64 and the counts must stay exact integers.
        a = np.ones((3, 8), dtype=np.float32)
        b = np.ones((8, 3), dtype=np.float32)
        product = count_matmul(a, b, exact_limit=4)
        assert product.dtype == np.float64
        assert np.array_equal(product, np.full((3, 3), 8.0))

    def test_widened_counts_survive_float32_rounding(self):
        # 2^24 + 1 is the first integer float32 cannot represent; simulate a
        # count that large by accumulating float64 values near the boundary.
        boundary = np.float64(2**24)
        a = np.array([[boundary, 1.0]])
        b = np.array([[1.0], [1.0]])
        exact = count_matmul(a, b, exact_limit=1)  # force the float64 path
        assert exact.dtype == np.float64
        assert exact[0, 0] == 2**24 + 1
        # The float32 path loses the +1 — the failure the guard prevents.
        lossy = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
        assert lossy[0, 0] == 2**24


class TestDenseKernels:
    def test_count_matmul_matches_naive(self, random_matrices):
        a, b = random_matrices
        assert np.allclose(count_matmul(a, b), naive_matmul(a, b))

    def test_boolean_matmul(self, random_matrices):
        a, b = random_matrices
        counts = count_matmul(a, b)
        assert np.array_equal(boolean_matmul(a, b), counts > 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            count_matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            count_matmul(np.ones(3), np.ones((3, 2)))

    def test_build_adjacency(self, tiny_relation):
        matrix = build_adjacency(tiny_relation, [4, 5, 6], [4, 5, 6])
        assert matrix[1, 1] == 1  # (5, 5)
        assert matrix[0, 1] == 0  # (4, 5) absent

    def test_nonzero_pairs_threshold(self):
        product = np.array([[0.0, 2.0], [1.0, 3.0]])
        rows, cols = [10, 20], [30, 40]
        assert set(nonzero_pairs(product, rows, cols)) == {(10, 40), (20, 30), (20, 40)}
        assert set(nonzero_pairs(product, rows, cols, threshold=1.5)) == {(10, 40), (20, 40)}

    def test_nonzero_pairs_with_counts(self):
        product = np.array([[0.0, 2.0], [1.0, 0.0]])
        counts = nonzero_pairs_with_counts(product, [1, 2], [3, 4])
        assert counts == {(1, 4): 2, (2, 3): 1}

    def test_build_pair_adjacency(self, tiny_relation, tiny_relation_s):
        groups = [(5, 5), (5, 6), (6, 5)]
        matrix = build_pair_adjacency([tiny_relation, tiny_relation_s], groups, [4, 5, 6])
        # group (5,5): R has (5,4),(5,5),(5,6); S has (5,4),(5,5),(5,6) -> all three columns set
        assert matrix[0].tolist() == [1.0, 1.0, 1.0]
        # group (6,5): R(6,*) = {4,5}; S(5,*) = {4,5,6} -> columns 4 and 5
        assert matrix[2].tolist() == [1.0, 1.0, 0.0]


class TestSparseKernels:
    def test_sparse_matches_dense(self, tiny_relation, tiny_relation_s):
        rows = tiny_relation.x_values()
        mids = np.intersect1d(tiny_relation.y_values(), tiny_relation_s.y_values())
        cols = tiny_relation_s.x_values()
        dense_product = count_matmul(
            build_adjacency(tiny_relation, rows, mids),
            build_adjacency(tiny_relation_s, cols, mids).T,
        )
        sparse_product = sparse_count_matmul(
            build_sparse_adjacency(tiny_relation, rows, mids),
            build_sparse_adjacency(tiny_relation_s, cols, mids).T,
        )
        assert np.allclose(sparse_product.toarray(), dense_product)

    def test_sparse_boolean_clips(self, tiny_relation):
        rows = tiny_relation.x_values()
        mids = tiny_relation.y_values()
        m = build_sparse_adjacency(tiny_relation, rows, mids)
        product = sparse_boolean_matmul(m, m.T)
        assert product.data.max() <= 1.0

    def test_sparse_nonzero_pairs_agree_with_dense(self, tiny_relation):
        rows = tiny_relation.x_values()
        mids = tiny_relation.y_values()
        dense_product = count_matmul(
            build_adjacency(tiny_relation, rows, mids),
            build_adjacency(tiny_relation, rows, mids).T,
        )
        sparse_product = sparse_count_matmul(
            build_sparse_adjacency(tiny_relation, rows, mids),
            build_sparse_adjacency(tiny_relation, rows, mids).T,
        )
        assert set(sparse_nonzero_pairs(sparse_product, rows, rows)) == set(
            nonzero_pairs(dense_product, rows, rows)
        )
        assert sparse_nonzero_pairs_with_counts(sparse_product, rows, rows) == (
            nonzero_pairs_with_counts(dense_product, rows, rows)
        )

    def test_sparse_dimension_mismatch(self):
        a = build_sparse_adjacency(Relation.from_pairs([(0, 0)]), [0], [0])
        b = build_sparse_adjacency(Relation.from_pairs([(0, 0), (1, 1)]), [0, 1], [0, 1])
        with pytest.raises(ValueError):
            sparse_count_matmul(a, b)


class TestCostModel:
    def test_rectangular_cost_classical(self):
        assert rectangular_cost(10, 20, 30, omega=3.0) == pytest.approx(6000.0)

    def test_rectangular_cost_omega2(self):
        # U*V*W / beta with beta = 10
        assert rectangular_cost(10, 20, 30, omega=2.0) == pytest.approx(600.0)

    def test_rectangular_cost_zero_dim(self):
        assert rectangular_cost(0, 5, 5) == 0.0

    def test_theoretical_cost_matches_rectangular(self):
        assert theoretical_cost(8, 8, 8, omega=3.0) == pytest.approx(512.0)

    def test_uncalibrated_uses_flops(self):
        model = MatMulCostModel(flops_per_second=1e9)
        assert model.estimate(1000, 1000, 1000, cores=1) == pytest.approx(2.0, rel=1e-6)

    def test_zero_dimension(self):
        assert MatMulCostModel().estimate(0, 10, 10) == 0.0

    def test_speedup_monotone_in_cores(self):
        model = MatMulCostModel()
        times = [model.estimate(500, 500, 500, cores=c) for c in range(1, 6)]
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))

    def test_calibration_fills_table(self):
        model = MatMulCostModel(calibration_sizes=(32, 64))
        table = model.calibrate(repeats=1)
        assert set(table) == {32, 64}
        assert model.is_calibrated
        assert model.estimate(64, 64, 64) > 0

    def test_set_table(self):
        model = MatMulCostModel()
        model.set_table({100: 0.001, 200: 0.008})
        assert model.is_calibrated
        # Estimates should be monotone in problem size.
        assert model.estimate(100, 100, 100) < model.estimate(200, 200, 200)

    def test_estimate_construction_scales_with_cells(self):
        model = MatMulCostModel()
        assert model.estimate_construction(10, 10, 10) < model.estimate_construction(100, 100, 100)

    def test_calibration_series_shape(self):
        model = MatMulCostModel()
        rows = calibration_series(model, sizes=[100, 200], cores=[1, 2])
        assert len(rows) == 4
        assert rows[0][0] == 100 and rows[0][1] == 1
