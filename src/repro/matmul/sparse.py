"""Sparse matrix multiplication kernels (scipy CSR).

When the heavy sub-relations are large but sparse, a dense product wastes
both memory and time; a CSR x CSR product costs roughly the number of
"flops" (expansions).  The MMJoin configuration exposes the backend choice
and the ablation benchmark compares the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.data.pairblock import CountedPairBlock, KeyLayout, PairBlock
from repro.data.relation import Relation

Pair = Tuple[int, int]


def build_sparse_adjacency(
    relation: Relation,
    row_values: Sequence[int],
    col_values: Sequence[int],
    dtype: np.dtype = np.float32,
) -> sparse.csr_matrix:
    """Build a CSR adjacency matrix of the relation restricted to given values."""
    rows, cols = relation.adjacency_coords(row_values, col_values)
    return sparse.csr_matrix(
        (np.ones(rows.size, dtype=dtype), (rows, cols)),
        shape=(len(row_values), len(col_values)),
    )


def sparse_count_matmul(
    left: sparse.spmatrix, right: sparse.spmatrix
) -> sparse.csr_matrix:
    """Witness-count product of two sparse matrices."""
    if left.shape[1] != right.shape[0]:
        raise ValueError(f"inner dimensions do not match: {left.shape} x {right.shape}")
    return (left @ right).tocsr()


def sparse_boolean_matmul(
    left: sparse.spmatrix, right: sparse.spmatrix
) -> sparse.csr_matrix:
    """Boolean product of two sparse matrices (entries clipped to 1)."""
    product = sparse_count_matmul(left, right)
    product.data = np.minimum(product.data, 1.0)
    return product


def _record_coo_stats(stats, coo, block) -> None:
    """Extraction accounting for COO scans (already output-proportional)."""
    if stats is None:
        return
    transient = int(coo.data.nbytes + coo.row.nbytes + coo.col.nbytes)
    stats.update(
        extract_mode="sparse",
        extract_tile_rows=0,
        extract_tiles_total=1,
        extract_tiles_skipped=0,
        memory_extract_peak_bytes=transient,
        memory_full_scan_bytes=int(coo.shape[0]) * int(coo.shape[1]),
        memory_output_bytes=block.nbytes,
    )


def sparse_nonzero_block(
    product: sparse.spmatrix,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
    stats=None,
    layout: Optional[KeyLayout] = None,
) -> PairBlock:
    """Output pairs above ``threshold`` as a :class:`PairBlock`."""
    coo = product.tocoo()
    keep = coo.data > threshold
    block = PairBlock.from_gather(
        (row_values, col_values), (coo.row[keep], coo.col[keep]), layout, deduped=True
    )
    _record_coo_stats(stats, coo, block)
    return block


def sparse_nonzero_counted_block(
    product: sparse.spmatrix,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
    stats=None,
    layout: Optional[KeyLayout] = None,
) -> CountedPairBlock:
    """Like :func:`sparse_nonzero_block` but with exact witness counts."""
    coo = product.tocoo()
    keep = coo.data > threshold
    block = CountedPairBlock.of(
        PairBlock.from_gather(
            (row_values, col_values), (coo.row[keep], coo.col[keep]), layout, deduped=True
        ),
        np.rint(coo.data[keep]).astype(np.int64),
    )
    _record_coo_stats(stats, coo, block)
    return block


def sparse_nonzero_pairs(
    product: sparse.spmatrix,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> List[Pair]:
    """Extract output pairs above a count threshold from a sparse product."""
    coo = product.tocoo()
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    keep = coo.data > threshold
    return [
        (int(row_arr[r]), int(col_arr[c]))
        for r, c in zip(coo.row[keep], coo.col[keep])
    ]


def sparse_nonzero_pairs_with_counts(
    product: sparse.spmatrix,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
) -> Dict[Pair, int]:
    """Like :func:`sparse_nonzero_pairs` but with witness counts."""
    coo = product.tocoo()
    row_arr = np.asarray(row_values, dtype=np.int64)
    col_arr = np.asarray(col_values, dtype=np.int64)
    keep = coo.data > threshold
    return {
        (int(row_arr[r]), int(col_arr[c])): int(round(float(v)))
        for r, c, v in zip(coo.row[keep], coo.col[keep], coo.data[keep])
    }
