"""Tests for the parallel executor and the deterministic work model."""

import numpy as np
import pytest

from oracle import two_path_pairs
from repro.core.config import MMJoinConfig
from repro.core.two_path import two_path_join
from repro.parallel.executor import ParallelExecutor, parallel_matmul
from repro.parallel.workmodel import (
    ALGORITHM_PARALLEL_FRACTIONS,
    ParallelWorkModel,
    amdahl_speedup,
    model_for,
)


class TestParallelExecutor:
    def test_map_matches_serial(self):
        items = list(range(50))
        serial = [x * x for x in items]
        assert ParallelExecutor(cores=1).map(lambda x: x * x, items) == serial
        assert ParallelExecutor(cores=4).map(lambda x: x * x, items) == serial

    def test_chunks_cover_items(self):
        executor = ParallelExecutor(cores=3)
        items = list(range(10))
        chunks = executor.chunks(items)
        assert [x for chunk in chunks for x in chunk] == items

    def test_chunks_empty(self):
        assert ParallelExecutor(cores=3).chunks([]) == []

    def test_chunk_ranges_cover_range(self):
        executor = ParallelExecutor(cores=4)
        ranges = executor.chunk_ranges(13)
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(13))

    def test_cores_clamped(self):
        assert ParallelExecutor(cores=0).cores == 1


class TestParallelMatmul:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_matches_numpy(self, cores):
        rng = np.random.default_rng(5)
        a = rng.random((37, 19)).astype(np.float32)
        b = rng.random((19, 23)).astype(np.float32)
        assert np.allclose(parallel_matmul(a, b, cores=cores), a @ b, atol=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parallel_matmul(np.ones((2, 3)), np.ones((2, 3)), cores=2)


class TestParallelTwoPath:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_matches_baseline(self, skewed_pair, cores):
        left, right = skewed_pair
        expected = two_path_pairs(left, right)
        config = MMJoinConfig().with_thresholds(3, 3).with_cores(cores)
        result = two_path_join(left, right, config=config)
        assert result.pairs == expected
        assert result.plan.state.config.cores == cores

    def test_phase_timings_reported(self, skewed_pair):
        left, right = skewed_pair
        config = MMJoinConfig().with_thresholds(2, 2).with_cores(2)
        result = two_path_join(left, right, config=config)
        timings = result.plan.state.timings
        assert timings["light"] >= 0
        assert timings["matrix_build"] + timings["matrix_multiply"] >= 0
        assert result.seconds >= timings["light"]


class TestWorkModel:
    def test_amdahl_speedup_bounds(self):
        assert amdahl_speedup(1, 0.9) == pytest.approx(1.0)
        assert amdahl_speedup(8, 0.0) == pytest.approx(1.0)
        # fully parallel with perfect efficiency is linear
        assert amdahl_speedup(8, 1.0, efficiency=1.0) == pytest.approx(8.0)

    def test_speedup_monotone_in_cores(self):
        speedups = [amdahl_speedup(c, 0.9) for c in range(1, 10)]
        assert speedups == sorted(speedups)

    def test_speedup_monotone_in_fraction(self):
        assert amdahl_speedup(8, 0.95) > amdahl_speedup(8, 0.5)

    def test_series_decreasing(self):
        model = ParallelWorkModel(parallel_fraction=0.9)
        series = model.series(10.0, range(1, 9))
        times = [t for _, t in series]
        assert times == sorted(times, reverse=True)
        assert times[0] == pytest.approx(10.0)

    def test_model_for_known_algorithms(self):
        assert model_for("mmjoin").parallel_fraction == ALGORITHM_PARALLEL_FRACTIONS["mmjoin"]
        assert model_for("unknown-algo").parallel_fraction == pytest.approx(0.8)

    def test_mmjoin_scales_better_than_sizeaware(self):
        """The paper's qualitative claim: MMJoin parallelises better than SizeAware."""
        base = 100.0
        mmjoin_8 = model_for("mmjoin").time_at(base, 8)
        sizeaware_8 = model_for("sizeaware").time_at(base, 8)
        assert mmjoin_8 < sizeaware_8
