"""DIM3 dense-core mapping, adaptive bail-out, and the extract-mode knob.

Property tests assert the load-bearing invariant of the whole subsystem:
whatever permutation, core geometry, band size or scan mode is in play, the
extracted coordinate set is *identical* to the one-shot
``np.nonzero(product > t)`` oracle.  Unit tests pin the adaptive bail-out
trigger, the mapping geometry model, the session-level mapping cache and
the per-mode cost estimates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import two_path_pairs
from repro.core.config import EXTRACT_MODES, MMJoinConfig
from repro.core.two_path import two_path_join
from repro.data.relation import Relation
from repro.matmul import mapping as core_mapping
from repro.matmul import tiling
from repro.matmul.cost_model import MatMulCostModel
from repro.serve import QuerySession

SETTINGS = dict(max_examples=30, deadline=None, derandomize=True)

# Auto band height, one-row bands, odd bands, and a single whole-matrix band.
TILE_SIZES = (None, 1, 7, 10**6)


@st.composite
def products_and_degrees(draw):
    """A random product matrix plus row/column degree vectors.

    Density spans empty, sparse, dense-noisy and fully saturated so every
    scan path (skip, mask, bail-out, rectangle) gets drawn.
    """
    n_rows = draw(st.integers(min_value=0, max_value=40))
    n_cols = draw(st.integers(min_value=0, max_value=40))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 0.8, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    product = ((rng.random((n_rows, n_cols)) < density) *
               rng.integers(1, 5, (n_rows, n_cols))).astype(np.float32)
    row_deg = rng.integers(0, 60, n_rows)
    col_deg = rng.integers(0, 60, n_cols)
    inner = draw(st.integers(min_value=1, max_value=200))
    return product, row_deg, col_deg, inner


# --------------------------------------------------------------------------- #
# Mapped extraction == identity-mapped extraction
# --------------------------------------------------------------------------- #
class TestMappedExtractionEquivalence:
    @settings(**SETTINGS)
    @given(case=products_and_degrees(), tile_rows=st.sampled_from(TILE_SIZES))
    def test_mapped_coords_match_oracle(self, case, tile_rows):
        product, row_deg, col_deg, inner = case
        mapping = core_mapping.mapping_from_degrees(row_deg, col_deg, inner)
        stats = {}
        r, c, v = core_mapping.mapped_nonzero_coords(
            product, mapping, tile_rows=tile_rows, stats=stats,
            want_values=True)
        er, ec = np.nonzero(product > 0.5)
        assert set(zip(r.tolist(), c.tolist())) == \
            set(zip(er.tolist(), ec.tolist()))
        assert np.all(product[r, c] == v)
        assert stats["extract_mode"] == "core"
        assert stats["dense_core_shape"] == mapping.core_shape
        assert 0.0 <= stats["dense_core_density"] <= 1.0

    @settings(**SETTINGS)
    @given(case=products_and_degrees())
    def test_mapped_blocks_match_tiled_blocks(self, case):
        product, row_deg, col_deg, inner = case
        mapping = core_mapping.mapping_from_degrees(row_deg, col_deg, inner)
        n_rows, n_cols = product.shape
        rows = np.arange(100, 100 + n_rows, dtype=np.int64)
        cols = np.arange(500, 500 + n_cols, dtype=np.int64)
        mapped = core_mapping.mapped_nonzero_block(product, rows, cols, mapping)
        tiled = tiling.tiled_nonzero_block(product, rows, cols)
        assert mapped.to_set() == tiled.to_set()
        mapped_counts = core_mapping.mapped_nonzero_counted_block(
            product, rows, cols, mapping)
        tiled_counts = tiling.tiled_nonzero_counted_block(product, rows, cols)
        assert mapped_counts.to_dict() == tiled_counts.to_dict()

    def test_mismatched_mapping_rejected(self):
        mapping = core_mapping.mapping_from_degrees([3, 4], [5], inner_dim=10)
        with pytest.raises(ValueError):
            core_mapping.mapped_nonzero_coords(
                np.ones((3, 3), dtype=np.float32), mapping)


# --------------------------------------------------------------------------- #
# Mapping geometry
# --------------------------------------------------------------------------- #
class TestMappingGeometry:
    def test_cutoff_follows_density_model(self):
        # d* = sqrt(-v ln(1 - target)); at target 0.5 and v=100: ~8.33
        assert core_mapping.core_degree_cutoff(100, 0.5) == \
            pytest.approx(np.sqrt(100 * np.log(2)))
        # Higher targets demand higher degrees.
        assert core_mapping.core_degree_cutoff(100, 0.9) > \
            core_mapping.core_degree_cutoff(100, 0.5)

    def test_degree_split_defines_core(self):
        # 3 hot rows / 2 hot cols clear the cutoff, the rest do not.
        m = core_mapping.mapping_from_degrees(
            [50, 1, 50, 50, 0], [1, 50, 0, 50], inner_dim=100)
        assert m.core_shape == (3, 2)
        assert sorted(m.row_order[:3].tolist()) == [0, 2, 3]
        assert sorted(m.col_order[:2].tolist()) == [1, 3]
        assert m.core_density == pytest.approx(1 - np.exp(-25.0), rel=1e-6)

    def test_all_cold_degrees_mean_no_core(self):
        m = core_mapping.mapping_from_degrees([1, 1], [1, 1], inner_dim=1000)
        assert m.core_shape == (0, 0)
        assert m.core_density == 0.0

    def test_heavy_core_mapping_reads_relation_degrees(self):
        left = Relation.from_pairs(
            [(1, y) for y in range(30)] + [(2, 0)], name="L")
        right = Relation.from_pairs(
            [(7, y) for y in range(30)] + [(8, 1)], name="R")
        m = core_mapping.heavy_core_mapping(
            left, right, rows=[1, 2], cols=[7, 8], inner_dim=30)
        # degree 30 clears d* = sqrt(30 ln 2) ~ 4.6; degree 1 does not.
        assert m.core_shape == (1, 1)
        assert m.row_order[0] == 0 and m.col_order[0] == 0


# --------------------------------------------------------------------------- #
# Adaptive bail-out
# --------------------------------------------------------------------------- #
class TestAdaptiveBailOut:
    def test_bail_fires_mid_scan_on_dense_noise(self):
        # Large enough that the auto band height yields several bands.
        rng = np.random.default_rng(5)
        dense = (rng.random((2000, 400)) < 0.8).astype(np.float32)
        stats = {}
        r, c = tiling.tiled_nonzero_coords(dense, stats=stats)
        assert stats["extract_mode"] == "adaptive"
        assert stats["extract_bailed_at_band"] >= 1
        # Far fewer bands screened than the tiled scan would touch.
        assert stats["extract_tiles_total"] < -(-2000 // stats["extract_tile_rows"])
        er, ec = np.nonzero(dense > 0.5)
        assert np.array_equal(r, er) and np.array_equal(c, ec)

    def test_saturated_product_keeps_screening(self):
        # All-ones: every band is a saturated rectangle — screening wins, so
        # the bail-out must NOT fire.
        sat = np.ones((2000, 400), dtype=np.float32)
        stats = {}
        r, c = tiling.tiled_nonzero_coords(sat, stats=stats)
        assert stats["extract_mode"] == "tiled"
        assert stats["extract_tiles_total"] > 1  # multiple bands screened
        assert stats["extract_tiles_saturated"] == stats["extract_tiles_total"]
        assert "extract_bailed_at_band" not in stats
        assert np.array_equal(r, np.nonzero(sat > 0.5)[0])

    def test_sparse_product_never_bails(self):
        sparse = np.zeros((400, 200), dtype=np.float32)
        sparse[3, 5] = sparse[390, 100] = 2.0
        stats = {}
        tiling.tiled_nonzero_coords(sparse, stats=stats)
        assert stats["extract_mode"] == "tiled"
        assert "extract_bailed_at_band" not in stats

    def test_explicit_tile_rows_pins_memory_contract(self):
        # A caller-chosen band height disables the bail-out: the screened
        # scan's O(tile + output) envelope must hold even on dense products.
        rng = np.random.default_rng(6)
        dense = (rng.random((400, 200)) < 0.8).astype(np.float32)
        stats = {}
        tiling.tiled_nonzero_coords(dense, tile_rows=40, stats=stats)
        assert stats["extract_mode"] == "tiled"
        assert stats["extract_tiles_total"] == 10

    def test_mode_adaptive_rearms_bail_with_explicit_tiles(self):
        rng = np.random.default_rng(6)
        dense = (rng.random((400, 200)) < 0.8).astype(np.float32)
        stats = {}
        r, c = tiling.tiled_nonzero_coords(dense, tile_rows=40, stats=stats,
                                           mode="adaptive")
        assert stats["extract_mode"] == "adaptive"
        er, ec = np.nonzero(dense > 0.5)
        assert np.array_equal(r, er) and np.array_equal(c, ec)

    def test_density_hint_skips_screening_up_front(self):
        rng = np.random.default_rng(7)
        dense = (rng.random((400, 200)) < 0.8).astype(np.float32)
        stats = {}
        tiling.tiled_nonzero_coords(dense, stats=stats, density_hint=0.8)
        assert stats["extract_mode"] == "full"
        # ...but a saturated prediction stays screened: rectangles win.
        stats = {}
        tiling.tiled_nonzero_coords(np.ones((400, 200), dtype=np.float32),
                                    stats=stats, density_hint=0.99)
        assert stats["extract_mode"] == "tiled"


# --------------------------------------------------------------------------- #
# End-to-end: extract_mode through plans, sessions, cost model
# --------------------------------------------------------------------------- #
def _heavy_pair():
    x = np.arange(300, dtype=np.int64)
    left = Relation(np.column_stack([x % 40, x % 60]), name="L")
    right = Relation(np.column_stack([x % 50, x % 60]), name="R")
    return left, right


class TestExtractModeEndToEnd:
    def test_config_validates_mode(self):
        assert "core" in EXTRACT_MODES
        with pytest.raises(ValueError):
            MMJoinConfig(extract_mode="bogus")

    @pytest.mark.parametrize("mode", EXTRACT_MODES)
    def test_all_modes_agree_with_baseline(self, mode):
        left, right = _heavy_pair()
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                              extract_mode=mode)
        result = two_path_join(left, right, config=config)
        assert result.pairs == two_path_pairs(left, right)

    def test_core_mode_surfaces_geometry_in_explain(self):
        left, right = _heavy_pair()
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                              extract_mode="core")
        result = two_path_join(left, right, config=config)
        heavy = next(op for op in result.explanation.operators
                     if op.operator == "matmul_heavy")
        assert heavy.detail["extract_mode"] == "core"
        shape = heavy.detail["dense_core_shape"]
        assert len(shape) == 2 and all(s >= 0 for s in shape)
        assert 0.0 <= heavy.detail["dense_core_density"] <= 1.0

    def test_session_caches_core_mapping(self):
        left, right = _heavy_pair()
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                              extract_mode="core")
        with QuerySession(config=config) as session:
            session.register(left, name="L")
            session.register(right, name="R")
            cold = session.two_path("L", "R", use_memo=False)
            warm = session.two_path("L", "R", use_memo=False)
            detail_cold = next(
                op for op in cold.explanation.operators
                if op.operator == "matmul_heavy").detail
            detail_warm = next(
                op for op in warm.explanation.operators
                if op.operator == "matmul_heavy").detail
            assert detail_cold["mapping_cache"] == "miss"
            assert detail_warm["mapping_cache"] == "hit"
            assert cold.pairs == warm.pairs == two_path_pairs(left, right)
            # Mutation bumps the relation version, invalidating the mapping.
            session.update("L", left)
            fresh = session.two_path("L", "R", use_memo=False)
            detail_fresh = next(
                op for op in fresh.explanation.operators
                if op.operator == "matmul_heavy").detail
            assert detail_fresh["mapping_cache"] == "miss"

    def test_cost_model_per_mode_estimates(self):
        model = MatMulCostModel()
        u = w = 10_000
        full = model.estimate_extraction(u, w, mode="full")
        tiled = model.estimate_extraction(u, w, mode="tiled", density=0.01)
        adaptive = model.estimate_extraction(u, w, mode="adaptive",
                                             density=0.01)
        auto = model.estimate_extraction(u, w, density=0.01)
        assert 0 < tiled < full
        assert adaptive <= tiled
        assert auto == min(full, tiled, adaptive)
        # A small dense core with a sparse remainder beats the full scan.
        core = model.estimate_extraction(u, w, mode="core", density=0.01,
                                         core_shape=(500, 500))
        assert 0 < core < full

    def test_observe_extraction_calibrates_full_modes_only(self):
        model = MatMulCostModel()
        before = model.extract_seconds_per_cell
        model.observe_extraction(1000, 1000, seconds=1.0, mode="tiled")
        assert model.extract_seconds_per_cell == before  # screened: no signal
        model.observe_extraction(1000, 1000, seconds=1.0, mode="full")
        assert model.extract_seconds_per_cell != before
