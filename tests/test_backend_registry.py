"""Tests for the pluggable matmul backend registry."""

import numpy as np
import pytest

from oracle import two_path_pairs
from repro.core.config import MATRIX_BACKENDS, MMJoinConfig
from repro.matmul.cost_model import MatMulCostModel
from repro.matmul.registry import (
    BackendRegistry,
    DenseBackend,
    MatMulBackend,
    SparseBackend,
    default_registry,
    make_default_registry,
)


@pytest.fixture
def registry():
    return make_default_registry()


class TestRegistryBasics:
    def test_builtin_backends_registered(self, registry):
        assert registry.names() == ["dense", "sparse"]

    def test_config_registry_and_cli_name_the_same_backends(self, registry):
        from repro.cli import build_parser

        assert set(MATRIX_BACKENDS) - {"auto"} == set(registry.names())
        for backend in MATRIX_BACKENDS:
            args = build_parser().parse_args(["join", "f.txt", "--backend", backend])
            assert args.backend == backend
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "f.txt", "--backend", "strassen"])

    def test_get_by_name(self, registry):
        assert registry.get("dense").name == "dense"
        assert registry.get("sparse").name == "sparse"

    def test_unknown_backend_raises(self, registry):
        with pytest.raises(ValueError, match="unknown matmul backend"):
            registry.get("tensorcore")

    def test_duplicate_registration_refused(self, registry):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(DenseBackend())
        registry.register(DenseBackend(), replace=True)  # explicit replace is fine

    def test_custom_backend_pluggable(self, registry):
        class DoubleDense(DenseBackend):
            name = "double-dense"

        registry.register(DoubleDense())
        assert "double-dense" in registry
        assert registry.get("double-dense").multiply_dense(
            np.eye(3), np.eye(3)
        ).trace() == pytest.approx(3.0)

    def test_default_registry_is_shared(self):
        assert default_registry() is default_registry()


class TestMultiply:
    @pytest.mark.parametrize("name", ["dense", "sparse"])
    def test_multiply_dense_matches_numpy(self, registry, name):
        rng = np.random.default_rng(7)
        a = (rng.random((13, 9)) < 0.4).astype(np.float32)
        b = (rng.random((9, 11)) < 0.4).astype(np.float32)
        product = registry.get(name).multiply_dense(a, b)
        assert np.allclose(np.asarray(product), a @ b, atol=1e-4)


class TestSelection:
    def test_explicit_backend_wins(self, registry):
        args = ((10, 10, 10), 50, 50)
        assert registry.select(MMJoinConfig(matrix_backend="auto"), *args).name == "dense"
        assert registry.select(MMJoinConfig(matrix_backend="sparse"), *args).name == "sparse"

    def test_auto_picks_cheapest_finite_estimate(self, registry):
        config = MMJoinConfig(matrix_backend="auto")
        for dims, nnz in [((100, 50, 100), 500), ((50, 50, 50), 2000),
                          ((4000, 4000, 4000), 100)]:
            costs = {
                backend.name: backend.estimate_cost(
                    dims, nnz, nnz, registry.cost_model, config)
                for backend in registry
            }
            assert registry.select(config, dims, nnz, nnz).name == min(costs, key=costs.get)

    def test_auto_small_dense_product_prefers_dense(self, registry):
        config = MMJoinConfig(matrix_backend="auto")
        backend = registry.select(config, (50, 50, 50), 2000, 2000)
        assert backend.name == "dense"

    def test_auto_respects_max_heavy_dimension(self, registry):
        config = MMJoinConfig(matrix_backend="auto", max_heavy_dimension=64)
        backend = registry.select(config, (100_000, 10, 100_000), 100, 100)
        assert backend.name == "sparse"

    def test_selection_uses_cost_model(self):
        class FreeSparse(SparseBackend):
            def estimate_cost(self, dims, nnz_left, nnz_right, cost_model, config):
                return 0.0

        registry = BackendRegistry(cost_model=MatMulCostModel())
        registry.register(DenseBackend())
        registry.register(FreeSparse())
        config = MMJoinConfig(matrix_backend="auto")
        assert registry.select(config, (10, 10, 10), 10, 10).name == "sparse"

    def test_auto_falls_back_to_sparse_when_all_estimates_are_inf(self):
        class NeverDense(DenseBackend):
            def estimate_cost(self, dims, nnz_left, nnz_right, cost_model, config):
                return float("inf")

        class NeverSparse(SparseBackend):
            def estimate_cost(self, dims, nnz_left, nnz_right, cost_model, config):
                return float("inf")

        registry = BackendRegistry()
        registry.register(NeverDense())
        registry.register(NeverSparse())
        config = MMJoinConfig(matrix_backend="auto")
        assert registry.select(config, (10, 10, 10), 10, 10).name == "sparse"


class TestHeavyEvaluation:
    def test_heavy_pairs_agree_across_backends(self, registry, skewed_pair):
        from repro.core.partitioning import partition_two_path

        left, right = skewed_pair
        partition = partition_two_path(left, right, 2, 2)
        rows, mids, cols = partition.heavy_x, partition.heavy_y, partition.heavy_z
        reference = None
        for backend in registry:
            pairs, build_s, mult_s = backend.heavy_pairs(
                partition.r_heavy, partition.s_heavy, rows, mids, cols
            )
            assert build_s >= 0 and mult_s >= 0
            if reference is None:
                reference = pairs
            else:
                assert pairs == reference, backend.name

    def test_heavy_counts_agree_across_backends(self, registry, skewed_pair):
        from repro.core.partitioning import partition_two_path

        left, right = skewed_pair
        partition = partition_two_path(left, right, 2, 2)
        rows, mids, cols = partition.heavy_x, partition.heavy_y, partition.heavy_z
        reference = None
        for backend in registry:
            counts, _, _ = backend.heavy_counts(
                partition.r_heavy, partition.s_heavy, rows, mids, cols
            )
            if reference is None:
                reference = counts
            else:
                assert counts == reference, backend.name


class TestAbstractInterface:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            MatMulBackend()  # type: ignore[abstract]


class TestEndToEndPluggability:
    def test_custom_backend_usable_via_config(self, skewed_pair):
        """A runtime-registered backend is selectable by name end-to-end:
        the config accepts it and the planner's heavy operator invokes it."""
        from repro.core.two_path import two_path_join

        class TracingBackend(DenseBackend):
            name = "tracing-test-backend"
            calls = 0

            def multiply_dense(self, left, right, cores=1):
                TracingBackend.calls += 1
                return super().multiply_dense(left, right, cores=cores)

        if TracingBackend.name not in default_registry():
            default_registry().register(TracingBackend())
        left, right = skewed_pair
        config = MMJoinConfig(
            delta1=2, delta2=2, matrix_backend=TracingBackend.name
        )
        result = two_path_join(left, right, config=config)
        assert result.pairs == two_path_pairs(left, right)
        assert result.backend == TracingBackend.name
        assert TracingBackend.calls >= 1

    def test_unregistered_backend_still_rejected(self):
        with pytest.raises(ValueError, match="matrix_backend"):
            MMJoinConfig(matrix_backend="not-a-backend")
