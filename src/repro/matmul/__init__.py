"""Matrix multiplication substrate: kernels and a calibrated cost model."""

from repro.matmul.dense import (
    FLOAT32_EXACT_LIMIT,
    accumulation_dtype,
    boolean_matmul,
    count_matmul,
    build_adjacency,
    nonzero_block,
    nonzero_counted_block,
    nonzero_pairs,
)
from repro.matmul.sparse import sparse_count_matmul, sparse_boolean_matmul, build_sparse_adjacency
from repro.matmul.cost_model import MatMulCostModel, rectangular_cost, theoretical_cost
from repro.matmul.tiling import (
    choose_tile_rows,
    extraction_plan,
    tiled_nonzero_block,
    tiled_nonzero_counted_block,
    tiled_nonzero_coords,
)
from repro.matmul.registry import (
    BackendRegistry,
    MatMulBackend,
    default_registry,
    make_default_registry,
)

__all__ = [
    "FLOAT32_EXACT_LIMIT",
    "accumulation_dtype",
    "boolean_matmul",
    "count_matmul",
    "build_adjacency",
    "nonzero_block",
    "nonzero_counted_block",
    "nonzero_pairs",
    "sparse_count_matmul",
    "sparse_boolean_matmul",
    "build_sparse_adjacency",
    "rectangular_cost",
    "MatMulCostModel",
    "theoretical_cost",
    "choose_tile_rows",
    "extraction_plan",
    "tiled_nonzero_block",
    "tiled_nonzero_counted_block",
    "tiled_nonzero_coords",
    "BackendRegistry",
    "MatMulBackend",
    "default_registry",
    "make_default_registry",
]
