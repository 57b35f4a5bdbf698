"""Property tests: tiled extraction is equivalent to the full non-zero scan.

The tiled scan (:mod:`repro.matmul.tiling`) must produce *exactly* the same
pairs and witness counts as ``np.nonzero(product > threshold)`` for every
tile size (1, odd, larger than the matrix, the auto heuristic and the
forced full scan), every threshold, and every product shape — including
empty and fully dense products.  The extraction accounting (tile counts and
the ``memory_*_bytes`` fields) is checked alongside.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matmul import dense as dense_mm
from repro.matmul import tiling

TILE_ROWS = (None, 0, 1, 3, 7, 10**6)
THRESHOLDS = (0.5, 1.5, 2.5)

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)


@st.composite
def products(draw):
    """Small count matrices over a sweep of shapes and densities."""
    n_rows = draw(st.integers(min_value=0, max_value=12))
    n_cols = draw(st.integers(min_value=0, max_value=12))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 5, size=(n_rows, n_cols))
    mask = rng.random((n_rows, n_cols)) < density
    return (values * mask).astype(np.float32)


def _labels(n: int, stride: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) * stride + 5


class TestTiledEquivalence:
    @settings(**SETTINGS)
    @given(product=products(), tile_rows=st.sampled_from(TILE_ROWS),
           threshold=st.sampled_from(THRESHOLDS))
    def test_pairs_match_full_scan(self, product, tile_rows, threshold):
        rows = _labels(product.shape[0], 2)
        cols = _labels(product.shape[1], 3)
        stats = {}
        block = tiling.tiled_nonzero_block(
            product, rows, cols, threshold=threshold, tile_rows=tile_rows,
            stats=stats,
        )
        reference = dense_mm.nonzero_block(product, rows, cols, threshold=threshold)
        assert block.to_set() == reference.to_set()
        assert stats["memory_output_bytes"] == block.nbytes

    @settings(**SETTINGS)
    @given(product=products(), tile_rows=st.sampled_from(TILE_ROWS),
           threshold=st.sampled_from(THRESHOLDS))
    def test_counts_match_full_scan(self, product, tile_rows, threshold):
        rows = _labels(product.shape[0], 2)
        cols = _labels(product.shape[1], 3)
        counted = tiling.tiled_nonzero_counted_block(
            product, rows, cols, threshold=threshold, tile_rows=tile_rows,
        )
        reference = dense_mm.nonzero_counted_block(
            product, rows, cols, threshold=threshold
        )
        assert counted.to_dict() == reference.to_dict()

    @settings(**SETTINGS)
    @given(product=products(), tile_rows=st.sampled_from(TILE_ROWS))
    def test_coords_row_major_order(self, product, tile_rows):
        """Tiled coordinates come back in np.nonzero's row-major order."""
        got = tiling.tiled_nonzero_coords(product, tile_rows=tile_rows)
        expected = np.nonzero(product > 0.5)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


class TestTiledAccounting:
    def test_empty_product(self):
        for shape in [(0, 0), (0, 7), (7, 0)]:
            stats = {}
            block = tiling.tiled_nonzero_block(
                np.zeros(shape, dtype=np.float32), np.arange(shape[0]),
                np.arange(shape[1]), stats=stats,
            )
            assert len(block) == 0
            assert stats["memory_extract_peak_bytes"] == 0

    def test_all_zero_tiles_skipped(self):
        product = np.zeros((200, 200), dtype=np.float32)
        product[5, 5] = 1.0
        stats = {}
        block = tiling.tiled_nonzero_block(
            product, np.arange(200), np.arange(200), tile_rows=10, stats=stats,
        )
        assert block.to_set() == {(5, 5)}
        assert stats["extract_mode"] == "tiled"
        assert stats["extract_tiles_total"] == 20
        assert stats["extract_tiles_skipped"] == 19

    def test_tiny_products_use_full_scan(self):
        product = np.ones((4, 4), dtype=np.float32)
        stats = {}
        tiling.tiled_nonzero_block(product, np.arange(4), np.arange(4), stats=stats)
        assert stats["extract_mode"] == "full"

    def test_peak_bytes_bounded_by_tile_and_output(self):
        """Sparse output: peak transients far below the full boolean mask."""
        product = np.zeros((600, 600), dtype=np.float32)
        product[300, ::5] = 2.0
        stats = {}
        tiling.tiled_nonzero_block(
            product, np.arange(600), np.arange(600), tile_rows=50, stats=stats,
        )
        full_bytes = stats["memory_full_scan_bytes"]
        assert full_bytes == 600 * 600
        assert stats["memory_extract_peak_bytes"] * 8 <= full_bytes

    def test_full_scan_records_mask_bytes(self):
        product = np.ones((100, 300), dtype=np.float32)
        stats = {}
        tiling.tiled_nonzero_block(
            product, np.arange(100), np.arange(300), tile_rows=0, stats=stats,
        )
        assert stats["extract_mode"] == "full"
        assert stats["memory_extract_peak_bytes"] == 100 * 300

    def test_extraction_plan_resolution(self):
        assert tiling.extraction_plan((4, 4)) == ("full", 0)
        mode, rows = tiling.extraction_plan((10_000, 10_000))
        assert mode == "tiled" and rows >= 1
        assert tiling.extraction_plan((10_000, 10_000), tile_rows=0) == ("full", 0)
        assert tiling.extraction_plan((4, 4), tile_rows=3) == ("tiled", 3)


def test_backends_thread_tile_rows(skewed_pair):
    """Every backend accepts the tile knob and reports extraction stats."""
    from repro.core.partitioning import partition_two_path
    from repro.matmul.registry import make_default_registry

    left, right = skewed_pair
    partition = partition_two_path(left, right, 2, 2)
    rows, mids, cols = partition.heavy_x, partition.heavy_y, partition.heavy_z
    reference = None
    for backend in make_default_registry():
        stats = {}
        pairs, _, _ = backend.heavy_pairs(
            partition.r_heavy, partition.s_heavy, rows, mids, cols,
            tile_rows=2, extract_stats=stats,
        )
        assert "memory_extract_peak_bytes" in stats, backend.name
        assert "memory_output_bytes" in stats, backend.name
        if backend.name == "sparse":
            assert stats["extract_mode"] == "sparse"
        if reference is None:
            reference = pairs
        else:
            assert pairs == reference, backend.name


def test_operator_surfaces_extraction_stats_in_explain(skewed_pair):
    """The heavy operator's explain() detail carries the memory fields."""
    from repro.core.config import MMJoinConfig
    from repro.core.two_path import two_path_join

    left, right = skewed_pair
    config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense",
                          extract_tile_rows=3)
    result = two_path_join(left, right, config=config)
    heavy = next(op for op in result.explanation.operators
                 if op.operator == "matmul_heavy")
    if heavy.status != "ran" or "extract_mode" not in heavy.detail:
        pytest.skip("workload produced no heavy residual")
    assert heavy.detail["extract_mode"] in ("tiled", "full")
    assert heavy.detail["memory_full_scan_bytes"] >= 0
    assert heavy.detail["memory_extract_peak_bytes"] >= 0


def test_cost_model_extraction_term():
    from repro.matmul.cost_model import MatMulCostModel

    model = MatMulCostModel()
    assert model.estimate_extraction(0, 100) == 0.0
    full = model.estimate_extraction(10_000, 10_000, tile_rows=0)
    tiled = model.estimate_extraction(10_000, 10_000)
    assert full > tiled > 0.0
    # More cores shrink the estimate.
    assert model.estimate_extraction(10_000, 10_000, cores=4) < tiled


def test_wide_product_tiles_in_two_dimensions():
    """A single row past TILE_TARGET_BYTES forces column-band (2-D) tiling."""
    from repro.matmul.tiling import TILE_TARGET_BYTES, choose_tile_cols

    n_cols = TILE_TARGET_BYTES // 4 + 5_000  # one float32 row > the budget
    wide = np.zeros((4, n_cols), dtype=np.float32)
    wide[0, 0] = wide[1, 5] = wide[3, n_cols - 1] = 2.0
    assert choose_tile_cols(n_cols, 4) < n_cols
    stats = {}
    rows, cols = tiling.tiled_nonzero_coords(wide, tile_rows=1, stats=stats)
    er, ec = np.nonzero(wide > 0.5)
    # Column tiles are re-sorted into the same row-major order.
    assert np.array_equal(rows, er) and np.array_equal(cols, ec)
    assert stats["extract_tiles_total"] > 4  # row bands x column bands
    assert stats["memory_extract_peak_bytes"] < wide.size  # << full mask


def test_saturated_band_accounting():
    """Contiguous saturated bands merge into one arithmetic rectangle."""
    arr = np.zeros((100, 50), dtype=np.float32)
    arr[:40] = 1.0   # four saturated bands at tile_rows=10
    arr[70, 3] = 2.0
    stats = {}
    rows, cols, values = tiling.tiled_nonzero_coords(
        arr, tile_rows=10, stats=stats, want_values=True)
    er, ec = np.nonzero(arr > 0.5)
    assert np.array_equal(rows, er) and np.array_equal(cols, ec)
    assert np.array_equal(values, arr[er, ec])
    assert stats["extract_tiles_saturated"] == 4
    assert stats["extract_tiles_skipped"] == 5  # rows 40-69 and 80-99
    assert stats["extract_mode"] == "tiled"
