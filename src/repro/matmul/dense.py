"""Dense matrix multiplication kernels.

The paper's prototype uses Eigen + Intel MKL ``SGEMM`` over ``float32``
matrices.  The equivalent here is numpy's BLAS-backed ``@`` on ``float32``
arrays — the same "single highly-optimised kernel" role, with the same
property the paper exploits: the product entry ``M[a, c]`` is the number of
witnesses ``y`` connecting ``a`` and ``c``, so deduplication and counting
come for free.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.data.relation import Relation

Pair = Tuple[int, int]

# A float32 mantissa holds 24 bits, so consecutive integers are exact only up
# to 2^24; a witness count can be as large as the inner dimension of the
# product, so beyond this limit the accumulation must widen to float64.
FLOAT32_EXACT_LIMIT = 2**24


def accumulation_dtype(inner_dim: int, exact_limit: int = FLOAT32_EXACT_LIMIT) -> np.dtype:
    """Narrowest float dtype whose integer range covers counts up to ``inner_dim``."""
    return np.float64 if int(inner_dim) > int(exact_limit) else np.float32


def count_matmul(
    left: np.ndarray,
    right: np.ndarray,
    *,
    exact_limit: int = FLOAT32_EXACT_LIMIT,
) -> np.ndarray:
    """Witness-count product: standard (real) matrix multiplication.

    Inputs are 0/1 adjacency matrices; the output entry is the number of
    shared y witnesses.  ``float32`` is used deliberately (the paper's SGEMM
    choice) — but a count is bounded only by the inner dimension, so when the
    inner dimension exceeds ``exact_limit`` (2^24, the float32 exact-integer
    range) the product accumulates in ``float64`` to keep counts exact.
    """
    a = np.asarray(left)
    b = np.asarray(right)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("count_matmul expects 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions do not match: {a.shape} x {b.shape}"
        )
    dtype = accumulation_dtype(a.shape[1], exact_limit)
    a = np.ascontiguousarray(a, dtype=dtype)
    b = np.ascontiguousarray(b, dtype=dtype)
    return a @ b


def boolean_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Boolean product: entry is True iff at least one witness exists."""
    return count_matmul(left, right) > 0.5


def build_adjacency(
    relation: Relation,
    row_values: Sequence[int],
    col_values: Sequence[int],
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Build the dense adjacency matrix of a relation restricted to given values.

    Rows are x values, columns are y values (pass the transposed relation to
    get the opposite orientation).  This is the matrix-construction step
    whose cost the paper accounts for separately (the ``C`` term in Eq. 1).
    """
    return relation.adjacency_matrix(row_values, col_values, dtype=dtype)


def build_pair_adjacency(
    relations: Sequence[Relation],
    group_values: Sequence[Tuple[int, ...]],
    col_values: Sequence[int],
    dtype: np.dtype = np.float32,
) -> np.ndarray:
    """Build the grouped adjacency matrix used by the star algorithm.

    Row ``i`` corresponds to the tuple of head values ``group_values[i]``
    (one head value per relation in ``relations``); the entry at column ``j``
    is 1 iff *every* relation contains ``(group_values[i][r], col_values[j])``.
    This is matrix ``V`` / ``W`` from Section 3.2.
    """
    groups = np.asarray(group_values, dtype=np.int64).reshape(-1, len(relations))
    matrix = np.ones((groups.shape[0], len(col_values)), dtype=dtype)
    for relation, heads in zip(relations, groups.T):
        distinct, rows = np.unique(heads, return_inverse=True)
        matrix *= relation.adjacency_matrix(distinct, col_values, dtype=dtype)[rows]
    return matrix


def nonzero_pairs(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> List[Pair]:
    """Extract output pairs from a product matrix.

    Returns ``(row_value, col_value)`` for every entry strictly above
    ``threshold`` — with the default threshold this is "at least one witness",
    for SSJ pass ``threshold = c - 0.5`` to keep only pairs with >= c
    witnesses.
    """
    rows, cols = np.nonzero(product > threshold)
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    return [(int(row_arr[r]), int(col_arr[c])) for r, c in zip(rows, cols)]


def nonzero_pairs_with_counts(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> Dict[Pair, int]:
    """Like :func:`nonzero_pairs` but also return the witness counts."""
    arr = np.asarray(product)
    # One boolean temporary serves both the coordinates and the counts
    # (boolean indexing yields row-major order, matching np.nonzero).
    mask = arr > threshold
    rows, cols = np.nonzero(mask)
    values = arr[mask]
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    return {
        (int(row_arr[r]), int(col_arr[c])): int(round(float(v)))
        for r, c, v in zip(rows, cols, values)
    }


def nonzero_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> PairBlock:
    """Output pairs above ``threshold`` as a columnar :class:`PairBlock`.

    The non-zero coordinates of the product are gathered straight into the
    block's column arrays — no per-pair Python tuples.  Cells of a matrix are
    unique, so the block is born deduplicated.
    """
    rows, cols = np.nonzero(np.asarray(product) > threshold)
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    return PairBlock((row_arr[rows], col_arr[cols]), deduped=True)


def nonzero_counted_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> CountedPairBlock:
    """Like :func:`nonzero_block` but carrying the witness counts.

    The product may be float32 or (past the 2^24 overflow guard) float64;
    either way the entries are exact integers, so ``np.rint`` recovers the
    counts losslessly into the block's int64 count column.
    """
    arr = np.asarray(product)
    # One boolean temporary serves both the coordinates and the counts
    # (boolean indexing yields row-major order, matching np.nonzero).
    mask = arr > threshold
    rows, cols = np.nonzero(mask)
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    counts = np.rint(arr[mask]).astype(np.int64)
    return CountedPairBlock((row_arr[rows], col_arr[cols]), counts, deduped=True)


def naive_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Textbook O(n^3) triple loop, used as a reference oracle in tests."""
    a = np.asarray(left, dtype=np.float64)
    b = np.asarray(right, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions do not match")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            total = 0.0
            for k in range(a.shape[1]):
                total += a[i, k] * b[k, j]
            out[i, j] = total
    return out
