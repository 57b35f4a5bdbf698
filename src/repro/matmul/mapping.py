"""Density-optimized dense-core mapping of product domains (DIM3).

Huang & Chen's *Density-optimized Intersection-free Mapping* observes that
the non-zeros of a join product are not uniformly spread: rows and columns
with high witness degree are far more likely to intersect.  Sorting the
``x`` (row) and ``z`` (column) domains by descending heavy-witness degree
clusters those hot values into a compact **top-left dense core**, which is
then extracted one-shot — or, when saturated, emitted arithmetically with no
scan at all — while the sparse remainder keeps the screened/tiled path of
:mod:`repro.matmul.tiling`.

The core geometry follows from an independent-witness model: a row of degree
``d_r`` and a column of degree ``d_c`` over ``v`` shared witnesses intersect
with probability about ``1 - exp(-d_r * d_c / v)``.  Solving for the degree
at which that reaches :data:`CORE_DENSITY_TARGET` gives a single cutoff
``d* = sqrt(-v * ln(1 - target))``; the core is every row/column at or above
``d*``, so its *least* dense cell still meets the target.  (When
``d_r + d_c > v`` the intersection is guaranteed by pigeonhole — such
rows/columns always land in the core.)

The mapping depends only on the heavy relations' degree sequences, so the
serving layer caches it as a session artifact keyed by relation version:
warm queries never recompute the permutation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.pairblock import CountedPairBlock, KeyLayout, PairBlock
from repro.data.relation import Relation
from repro.matmul.tiling import MODE_CORE, _record, choose_tile_rows

# Estimated density the least-dense core cell must reach for membership.
CORE_DENSITY_TARGET = 0.5

_EMPTY_IDX = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DenseCoreMapping:
    """A degree-sorted permutation of the product's row/column domains.

    ``row_order`` / ``col_order`` permute row and column *positions* into
    descending heavy-degree order; the first ``core_rows`` x ``core_cols``
    block of the permuted product is the dense core.  ``core_density`` is
    the modelled density of the core's boundary cell (a lower bound for the
    whole core).
    """

    row_order: np.ndarray
    col_order: np.ndarray
    core_rows: int
    core_cols: int
    core_density: float

    @property
    def core_shape(self) -> Tuple[int, int]:
        return (int(self.core_rows), int(self.core_cols))

    @property
    def nbytes(self) -> int:
        return int(self.row_order.nbytes + self.col_order.nbytes)


def core_degree_cutoff(inner_dim: int, target: float = CORE_DENSITY_TARGET) -> float:
    """Degree ``d*`` at which ``1 - exp(-d*^2 / v)`` reaches ``target``."""
    v = max(float(inner_dim), 1.0)
    return math.sqrt(-v * math.log(max(1.0 - float(target), 1e-12)))


def mapping_from_degrees(
    row_degrees: Sequence[int],
    col_degrees: Sequence[int],
    inner_dim: int,
    target: float = CORE_DENSITY_TARGET,
) -> DenseCoreMapping:
    """Build the mapping from per-position heavy-witness degrees."""
    row_deg = np.asarray(row_degrees, dtype=np.float64).reshape(-1)
    col_deg = np.asarray(col_degrees, dtype=np.float64).reshape(-1)
    row_order = np.argsort(-row_deg, kind="stable").astype(np.int64)
    col_order = np.argsort(-col_deg, kind="stable").astype(np.int64)
    cutoff = core_degree_cutoff(inner_dim, target)
    core_rows = int(np.count_nonzero(row_deg >= cutoff))
    core_cols = int(np.count_nonzero(col_deg >= cutoff))
    if core_rows == 0 or core_cols == 0:
        return DenseCoreMapping(row_order, col_order, 0, 0, 0.0)
    v = max(float(inner_dim), 1.0)
    # Density of the boundary cell: the least-degree row meets the
    # least-degree column still inside the core.
    d_r = float(row_deg[row_order[core_rows - 1]])
    d_c = float(col_deg[col_order[core_cols - 1]])
    density = 1.0 - math.exp(-(d_r * d_c) / v)
    return DenseCoreMapping(row_order, col_order, core_rows, core_cols,
                            min(density, 1.0))


def heavy_core_mapping(
    left_heavy: Relation,
    right_heavy: Relation,
    rows: Sequence[int],
    cols: Sequence[int],
    inner_dim: int,
    target: float = CORE_DENSITY_TARGET,
) -> DenseCoreMapping:
    """Mapping for the heavy residual's ``rows x cols`` product.

    Row degrees come from the left heavy relation's ``x`` degree index
    (witnesses per head value), column degrees from the right one — the same
    ``DegreeIndex``-backed statistics the optimizer's threshold search uses.
    """
    row_degrees = left_heavy.csr_x().degrees_of(rows)
    col_degrees = right_heavy.csr_x().degrees_of(cols)
    return mapping_from_degrees(row_degrees, col_degrees, inner_dim, target)


def mapped_nonzero_coords(
    product: np.ndarray,
    mapping: DenseCoreMapping,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    want_values: bool = False,
):
    """Coordinates (and optionally values) above ``threshold``, via the core.

    The dense core is gathered and scanned one-shot (or emitted
    arithmetically when saturated); the remainder — everything outside the
    core rectangle — is scanned in *contiguous* screened row bands of the
    original matrix, with the already-emitted core cells cleared from each
    band's mask.  Contiguous bands are views, so the remainder pass pays no
    gather copies at all (the earlier slab decomposition gathered every
    band through fancy row/column indexing, which dominated its runtime).
    Unlike :func:`repro.matmul.tiling.tiled_nonzero_coords` the coordinates
    come back in core-first order, not row-major: every consumer feeds them
    into born-deduplicated blocks, where order is irrelevant.
    """
    return _mapped_nonzero_coords(
        product, mapping, threshold, tile_rows, stats, want_values
    )


def _mapped_nonzero_coords(
    product: np.ndarray,
    mapping: DenseCoreMapping,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    want_values: bool = False,
):
    record = stats is not None
    start = time.perf_counter() if record else 0.0
    arr = np.asarray(product)
    n_rows, n_cols = arr.shape
    if mapping.row_order.size != n_rows or mapping.col_order.size != n_cols:
        raise ValueError(
            f"mapping covers {mapping.row_order.size}x{mapping.col_order.size} "
            f"but the product is {n_rows}x{n_cols}"
        )
    counters = {"tiles": 0, "skipped": 0, "saturated": 0, "peak": 0}
    row_parts: List[np.ndarray] = []
    col_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []

    cr, cc = mapping.core_rows, mapping.core_cols
    # The order prefixes define core *membership*; within each subset the
    # scan order is free (consumers accept unordered coordinates), so sort
    # ascending to keep the gathers memory-sequential.
    core_r = np.sort(mapping.row_order[:cr])
    core_c = np.sort(mapping.col_order[:cc])
    if cr > 0 and cc > 0 and n_rows > 0 and n_cols > 0:
        sub = arr[core_r[:, None], core_c]
        counters["tiles"] += 1
        transient = int(sub.nbytes)
        if float(sub.min()) > threshold:
            # Saturated core: its coordinates are the full rectangle over the
            # selected rows/columns — no mask, no nonzero.
            counters["saturated"] += 1
            r = np.repeat(core_r, cc)
            c = np.tile(core_c, cr)
            vals = sub.reshape(-1) if want_values else None
        else:
            mask = sub > threshold
            rl, cl = np.nonzero(mask)
            transient += int(mask.nbytes + rl.nbytes + cl.nbytes)
            r = core_r[rl]
            c = core_c[cl]
            vals = sub[mask] if want_values else None
        counters["peak"] = max(counters["peak"], transient)
        row_parts.append(r)
        col_parts.append(c)
        if want_values:
            value_parts.append(vals)

    band_hint = int(tile_rows) if tile_rows is not None and int(tile_rows) > 0 else None
    if cr < n_rows or cc < n_cols:
        _remainder_scan(arr, core_r, core_c, threshold, want_values,
                        row_parts, col_parts, value_parts, counters, band_hint)

    if row_parts:
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        values = np.concatenate(value_parts) if want_values else None
    else:
        rows, cols = _EMPTY_IDX, _EMPTY_IDX
        values = np.empty(0, dtype=arr.dtype) if want_values else None
    if record:
        _record(stats, extract_mode=MODE_CORE,
                extract_tile_rows=choose_tile_rows(n_rows, n_cols, arr.itemsize),
                extract_tiles_total=counters["tiles"],
                extract_tiles_skipped=counters["skipped"],
                extract_tiles_saturated=counters["saturated"],
                dense_core_shape=mapping.core_shape,
                dense_core_density=float(mapping.core_density),
                memory_extract_peak_bytes=counters["peak"],
                memory_full_scan_bytes=int(n_rows) * int(n_cols),
                extract_seconds=time.perf_counter() - start)
    if want_values:
        return rows, cols, values
    return rows, cols


def _remainder_scan(arr, core_r, core_c, threshold, want_values,
                    row_parts, col_parts, value_parts, counters,
                    band_hint: Optional[int] = None) -> None:
    """Screened band scan over everything outside the core rectangle.

    Bands are *contiguous* row slices of the original matrix — views, never
    gathers — screened with the usual ``max`` reduction; inside a surviving
    band only the live rows are masked and the core cells (already emitted)
    are cleared from the mask before ``np.nonzero``.  The transient
    footprint stays in the ``O(tile + output)`` envelope of the contiguous
    tiled scan: one band mask (plus a live-row copy when the screen
    filtered anything) at a time.
    """
    n_rows, n_cols = arr.shape
    if n_rows == 0 or n_cols == 0:
        return
    is_core_row = np.zeros(n_rows, dtype=bool)
    is_core_row[core_r] = True
    band_rows = band_hint or choose_tile_rows(n_rows, n_cols, arr.itemsize)
    for lo in range(0, n_rows, band_rows):
        band = arr[lo: lo + band_rows]
        counters["tiles"] += 1
        row_max = band.max(axis=1)
        if not np.any(row_max > threshold):
            counters["skipped"] += 1
            counters["peak"] = max(counters["peak"],
                                   int(row_max.nbytes))
            continue
        # Mask the whole band (a view — no live-row copy: comparing the
        # extra cold rows is cheaper than gathering the live ones), clear
        # the already-emitted core cells, then locate hits through
        # ``flatnonzero`` + one divmod — per-hit coordinate cost instead of
        # ``np.nonzero``'s far slower 2-D materialisation.
        mask = band > threshold
        band_core = np.flatnonzero(is_core_row[lo: lo + band.shape[0]])
        if band_core.size and core_c.size:
            mask[band_core[:, None], core_c] = False
        flat = np.flatnonzero(mask)
        transient = int(row_max.nbytes + mask.nbytes + flat.nbytes)
        counters["peak"] = max(counters["peak"], transient)
        if flat.size == 0:
            counters["skipped"] += 1
            continue
        rl, cl = np.divmod(flat, n_cols)
        row_parts.append(rl + lo)
        col_parts.append(cl)
        if want_values:
            value_parts.append(band[rl, cl])


def mapped_nonzero_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    mapping: DenseCoreMapping,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    layout: Optional[KeyLayout] = None,
) -> PairBlock:
    """Core-mapped equivalent of :func:`repro.matmul.tiling.tiled_nonzero_block`."""
    rows, cols = mapped_nonzero_coords(
        product, mapping, threshold=threshold, tile_rows=tile_rows, stats=stats
    )
    block = PairBlock.from_gather(
        (row_values, col_values), (rows, cols), layout, deduped=True
    )
    _record(stats, memory_output_bytes=block.nbytes)
    return block


def mapped_nonzero_counted_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    mapping: DenseCoreMapping,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    layout: Optional[KeyLayout] = None,
) -> CountedPairBlock:
    """Core-mapped equivalent of
    :func:`repro.matmul.tiling.tiled_nonzero_counted_block`."""
    rows, cols, values = mapped_nonzero_coords(
        product, mapping, threshold=threshold, tile_rows=tile_rows, stats=stats,
        want_values=True
    )
    block = CountedPairBlock.of(
        PairBlock.from_gather((row_values, col_values), (rows, cols), layout, deduped=True),
        np.rint(values).astype(np.int64),
    )
    _record(stats, memory_output_bytes=block.nbytes)
    return block
