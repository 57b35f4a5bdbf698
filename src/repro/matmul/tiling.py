"""Density-aware tiled non-zero extraction from dense product matrices.

The paper's whole point is output-sensitive join-project evaluation, yet the
naive extraction step is not: ``np.nonzero(product > threshold)`` on the full
``|x| x |z|`` product materialises an ``O(|x| * |z|)`` boolean temporary even
when the output is tiny.  This module scans the product in contiguous row
bands instead (the density-optimised blocking idea of Huang & Chen's DIM3):

* each band is screened with one ``max`` reduction — a single read pass with
  no boolean temporary — and bands whose rows all fall below the threshold
  are skipped outright;
* within a surviving band only the rows that can contribute are masked, so
  the boolean temporary is bounded by the band (tile), not the matrix;
* coordinates are emitted tile-by-tile and concatenated once at the end.

Peak extraction memory is therefore ``O(tile + output)`` instead of
``O(|x| * |z|)``, and on sparse-output products the scan approaches the cost
of one reduction pass over the matrix.  Tiny products keep the one-shot full
scan: the per-band Python overhead would dominate and the boolean temporary
is negligible.

Dense products used to pay for the screen with nothing to show for it (the
0.61x saturated-product regression).  Three mechanisms close that gap:

* **Adaptive bail-out** (the default when the band size is auto-chosen):
  the scan tracks the observed live-row fraction as bands complete; once it
  crosses :data:`ADAPTIVE_DENSITY_CUTOFF` — and the live rows are not mostly
  *saturated* (see below) — screening is abandoned and the remaining rows
  are scanned one-shot.  Worst-case overhead is therefore bounded by a small
  prefix of screened bands.  An explicit positive ``tile_rows`` pins the
  ``O(tile + output)`` memory contract and disables the bail-out (the
  one-shot remainder scan is unbounded); ``mode="adaptive"`` re-arms it.
* **Saturated-band rectangle emission**: a band whose every row clears the
  threshold is additionally screened with a ``min`` reduction; if every cell
  clears it the band's coordinates are the full rectangle.  Contiguous
  saturated bands are merged into one pending rectangle that is emitted
  arithmetically (``repeat``/``tile``) only when the run breaks — no boolean
  mask, no ``np.nonzero``, and on a fully saturated product no
  ``concatenate`` either — strictly faster than the one-shot scan.  This is
  why saturated bands *keep* screening alive instead of triggering bail-out.
* **Planner hints**: callers that already estimated the output density (the
  optimizer's ``estimated_output``) pass ``density_hint``; products predicted
  dense-but-not-saturated skip straight to the one-shot scan.

Wide products whose single row exceeds :data:`TILE_TARGET_BYTES` are tiled in
two dimensions: each row band is processed in column bands and re-sorted into
row-major order before it is emitted.

Every entry point accepts an optional ``stats`` dict that is filled with the
extraction accounting (``extract_mode``, tile counts, and the
``memory_*_bytes`` fields surfaced by ``explain()``).  When ``stats`` is
``None`` — the hot path in sharded fan-out — all bookkeeping, including the
``perf_counter`` calls, is short-circuited.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.pairblock import CountedPairBlock, KeyLayout, PairBlock
from repro.errors import check_deadline
from repro.faults import SITE_EXTRACT_ALLOC, fault_site

# Products at most this many cells are scanned in one shot: the boolean
# temporary is tiny and per-band Python overhead would dominate.
FULL_SCAN_CELLS = 1 << 14

# Auto tile sizing targets roughly one row band of this many product bytes —
# large enough to amortise the per-band Python overhead, small enough that
# the band mask stays cache-friendly.
TILE_TARGET_BYTES = 1 << 20

# ``tile_rows`` sentinel forcing the untiled one-shot scan.
FULL_SCAN = 0

MODE_FULL = "full"
MODE_TILED = "tiled"
MODE_ADAPTIVE = "adaptive"
MODE_CORE = "core"

# Observed live-row fraction at which the adaptive scan abandons screening.
ADAPTIVE_DENSITY_CUTOFF = 0.5

# ...unless at least this fraction of the live rows is saturated: saturated
# rows are emitted arithmetically, which beats the one-shot scan, so
# screening is still paying for itself.
ADAPTIVE_SATURATED_KEEP = 0.5

# Planner density hints at/above this skip screening entirely — except
# essentially-saturated predictions (>= DENSITY_HINT_SATURATED), where the
# min-screen rectangle emission beats the one-shot scan.
DENSITY_HINT_FULL = 0.5
DENSITY_HINT_SATURATED = 0.98

_EMPTY_IDX = np.empty(0, dtype=np.int64)


def choose_tile_rows(
    n_rows: int,
    n_cols: int,
    itemsize: int = 4,
    target_bytes: int = TILE_TARGET_BYTES,
) -> int:
    """Rows per band so one band covers about ``target_bytes`` of product."""
    if n_rows <= 0 or n_cols <= 0:
        return 1
    rows = int(target_bytes // max(int(n_cols) * int(itemsize), 1))
    return max(1, min(rows, int(n_rows)))


def choose_tile_cols(
    n_cols: int,
    itemsize: int = 4,
    target_bytes: int = TILE_TARGET_BYTES,
) -> int:
    """Columns per band; ``n_cols`` (no column tiling) unless a single row
    already blows the byte budget, in which case row bands degenerate to one
    row and the scan tiles in two dimensions."""
    if n_cols <= 0:
        return 1
    if int(n_cols) * int(itemsize) <= target_bytes:
        return int(n_cols)
    return max(1, int(target_bytes // itemsize))


def extraction_plan(
    shape: Tuple[int, int],
    tile_rows: Optional[int] = None,
    itemsize: int = 4,
) -> Tuple[str, int]:
    """Resolve ``(mode, tile_rows)`` for a product of the given shape.

    ``tile_rows=None`` is the density-aware default: tiny products take the
    one-shot scan, everything else is tiled at :func:`choose_tile_rows`.
    An explicit positive value forces that band height; ``FULL_SCAN`` (0)
    forces the one-shot scan.  (The adaptive bail-out refines the tiled mode
    at scan time; see :func:`tiled_nonzero_coords`.)
    """
    n_rows, n_cols = int(shape[0]), int(shape[1])
    if tile_rows is None:
        if n_rows * n_cols <= FULL_SCAN_CELLS:
            return MODE_FULL, 0
        return MODE_TILED, choose_tile_rows(n_rows, n_cols, itemsize=itemsize)
    tile_rows = int(tile_rows)
    if tile_rows <= FULL_SCAN:
        return MODE_FULL, 0
    return MODE_TILED, tile_rows


def _resolve_scan(
    shape: Tuple[int, int],
    tile_rows: Optional[int],
    itemsize: int,
    mode: Optional[str],
    density_hint: Optional[float],
) -> Tuple[str, int, bool]:
    """Resolve ``(scan_mode, band_rows, bail_enabled)``.

    ``scan_mode`` is :data:`MODE_FULL` (one-shot) or :data:`MODE_TILED`
    (screened); ``bail_enabled`` arms the adaptive bail-out on the screened
    path.  ``mode`` is the configured ``extract_mode`` (``None`` == "auto");
    ``MODE_CORE`` reaching this resolver means no mapping was available, so
    it degrades to the auto policy.
    """
    plan_mode, band_rows = extraction_plan(shape, tile_rows, itemsize)
    if mode == MODE_FULL:
        return MODE_FULL, 0, False
    if tile_rows is not None and int(tile_rows) <= FULL_SCAN:
        # An explicit FULL_SCAN tile override wins over the mode knob.
        return MODE_FULL, 0, False
    if mode == MODE_TILED:
        if band_rows <= 0:
            band_rows = choose_tile_rows(shape[0], shape[1], itemsize=itemsize)
        return MODE_TILED, band_rows, False
    if mode == MODE_ADAPTIVE:
        if band_rows <= 0:
            band_rows = choose_tile_rows(shape[0], shape[1], itemsize=itemsize)
        return MODE_TILED, band_rows, True
    # Auto (None / "auto" / fallback for MODE_CORE without a mapping).
    if plan_mode == MODE_FULL:
        return MODE_FULL, 0, False
    if density_hint is not None and DENSITY_HINT_FULL <= density_hint < DENSITY_HINT_SATURATED:
        # Predicted dense but not saturated: screening would bail almost
        # immediately anyway, so skip straight to the one-shot scan.
        return MODE_FULL, 0, False
    # An explicit positive ``tile_rows`` pins the O(tile + output) memory
    # contract, so the bail-out (whose one-shot remainder scan is unbounded)
    # only arms when the band size was auto-chosen.
    return MODE_TILED, band_rows, tile_rows is None


def _record(stats: Optional[Dict[str, object]], **fields: object) -> None:
    if stats is not None:
        stats.update(fields)


def _empty_coords(want_values: bool, dtype) -> Tuple[np.ndarray, ...]:
    if want_values:
        return _EMPTY_IDX, _EMPTY_IDX, np.empty(0, dtype=dtype)
    return _EMPTY_IDX, _EMPTY_IDX


def _band_rectangle(
    lo: int, hi: int, n_cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-major coordinates of the full ``[lo, hi) x n_cols`` rectangle."""
    r = np.repeat(np.arange(lo, hi, dtype=np.int64), n_cols)
    c = np.tile(np.arange(n_cols, dtype=np.int64), hi - lo)
    return r, c


def tiled_nonzero_coords(
    product: np.ndarray,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    want_values: bool = False,
    mode: Optional[str] = None,
    density_hint: Optional[float] = None,
):
    """Coordinates (and optionally values) of entries above ``threshold``.

    Returns ``(rows, cols)`` — or ``(rows, cols, values)`` when
    ``want_values`` is set — in the same row-major order ``np.nonzero``
    produces, so callers can swap the full scan for the tiled one without
    reordering anything.

    ``mode`` pins the scan strategy (``"full"`` / ``"tiled"`` /
    ``"adaptive"``; ``None`` or ``"auto"`` resolves it); ``density_hint`` is
    the planner's output-density estimate, used by the auto policy to skip
    screening on products predicted dense up front.
    """
    return _tiled_nonzero_coords(
        product, threshold, tile_rows, stats, want_values, mode,
        density_hint,
    )


def _tiled_nonzero_coords(
    product: np.ndarray,
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    want_values: bool = False,
    mode: Optional[str] = None,
    density_hint: Optional[float] = None,
):
    record = stats is not None
    start = time.perf_counter() if record else 0.0
    arr = np.asarray(product)
    n_rows, n_cols = arr.shape
    scan_mode, band_rows, bail_enabled = _resolve_scan(
        (n_rows, n_cols), tile_rows, arr.itemsize, mode, density_hint
    )
    full_scan_bytes = int(n_rows) * int(n_cols)  # the one-shot boolean temp

    if n_rows == 0 or n_cols == 0:
        if record:
            _record(stats, extract_mode=scan_mode, extract_tile_rows=band_rows,
                    extract_tiles_total=0, extract_tiles_skipped=0,
                    extract_tiles_saturated=0,
                    memory_extract_peak_bytes=0, memory_full_scan_bytes=0,
                    extract_seconds=time.perf_counter() - start)
        return _empty_coords(want_values, arr.dtype)

    if scan_mode == MODE_FULL:
        # One-shot scan; the mask is computed once and reused for the values.
        fault_site(SITE_EXTRACT_ALLOC)
        mask = arr > threshold
        rows, cols = np.nonzero(mask)
        out = (rows, cols, arr[mask]) if want_values else (rows, cols)
        if record:
            _record(stats, extract_mode=MODE_FULL, extract_tile_rows=0,
                    extract_tiles_total=1, extract_tiles_skipped=0,
                    extract_tiles_saturated=0,
                    memory_extract_peak_bytes=int(mask.nbytes),
                    memory_full_scan_bytes=full_scan_bytes,
                    extract_seconds=time.perf_counter() - start)
        return out

    band_cols = choose_tile_cols(n_cols, arr.itemsize)
    row_parts: List[np.ndarray] = []
    col_parts: List[np.ndarray] = []
    value_parts: List[np.ndarray] = []
    tiles = 0
    skipped = 0
    saturated = 0
    peak = 0
    # Contiguous fully-saturated bands merge into one pending rectangle so a
    # saturated run is emitted as a single ``repeat``/``tile`` pair instead
    # of per-band chunks that the final concatenate would re-copy.
    pending_rect: Optional[Tuple[int, int]] = None

    def _flush_rect() -> None:
        nonlocal pending_rect, peak
        if pending_rect is None:
            return
        r_lo, r_hi = pending_rect
        r, c = _band_rectangle(r_lo, r_hi, n_cols)
        peak = max(peak, int(r.nbytes + c.nbytes))
        row_parts.append(r)
        col_parts.append(c)
        if want_values:
            value_parts.append(arr[r_lo:r_hi].reshape(-1))
        pending_rect = None

    # Adaptive bail-out state: rows screened so far, how many were live, and
    # how many of the live ones were saturated (arithmetic emission).
    rows_seen = 0
    live_seen = 0
    saturated_seen = 0
    bailed_at: Optional[int] = None
    band_index = 0
    for lo in range(0, n_rows, band_rows):
        # Cooperative cancellation point: one band is the unit of deadline
        # granularity (and of allocation-fault injection) for extraction.
        check_deadline("extract.band")
        fault_site(SITE_EXTRACT_ALLOC)
        if bail_enabled and rows_seen > 0:
            live_frac = live_seen / rows_seen
            sat_frac = saturated_seen / live_seen if live_seen else 0.0
            if live_frac >= ADAPTIVE_DENSITY_CUTOFF and sat_frac < ADAPTIVE_SATURATED_KEEP:
                # Screening is not skipping bands and the live rows are not
                # saturated rectangles either: rescan the whole product
                # one-shot, discarding the prefix parts.  Re-reading the few
                # screened bands is far cheaper than the extra full copy of
                # a dense output the final concatenate would cost.
                mask = arr > threshold
                r, c = np.nonzero(mask)
                peak = max(peak, int(mask.nbytes + r.nbytes + c.nbytes))
                row_parts = [r]
                col_parts = [c]
                if want_values:
                    value_parts = [arr[mask]]
                pending_rect = None
                tiles += 1
                bailed_at = band_index
                break
        band = arr[lo: lo + band_rows]
        hi = lo + band.shape[0]
        if band_cols >= n_cols:
            emitted = _scan_band(band, lo, hi, n_cols, threshold, want_values)
        else:
            emitted = _scan_band_2d(band, lo, hi, n_cols, band_cols,
                                    threshold, want_values)
        r, c, vals, n_live, n_sat, band_tiles, band_skipped, transient = emitted
        tiles += band_tiles
        skipped += band_skipped
        peak = max(peak, transient)
        rows_seen += band.shape[0]
        live_seen += n_live
        saturated_seen += n_sat
        if n_sat == band.shape[0] and n_sat > 0:
            # Fully saturated band: extend (or start) the rectangle run.
            saturated += 1
            if pending_rect is not None:
                pending_rect = (pending_rect[0], hi)
            else:
                pending_rect = (lo, hi)
        else:
            _flush_rect()
            if r is not None:
                row_parts.append(r)
                col_parts.append(c)
                if want_values:
                    value_parts.append(vals)
        band_index += 1
    _flush_rect()

    if len(row_parts) == 1:
        # Single chunk (one-shot bail, a lone band, or one merged saturated
        # rectangle): no concatenate copy.
        rows, cols = row_parts[0], col_parts[0]
        values = value_parts[0] if want_values else None
    elif row_parts:
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        values = np.concatenate(value_parts) if want_values else None
    else:
        rows, cols = _EMPTY_IDX, _EMPTY_IDX
        values = np.empty(0, dtype=arr.dtype) if want_values else None
    if record:
        _record(stats,
                extract_mode=MODE_ADAPTIVE if bailed_at is not None else MODE_TILED,
                extract_tile_rows=band_rows,
                extract_tiles_total=tiles, extract_tiles_skipped=skipped,
                extract_tiles_saturated=saturated,
                memory_extract_peak_bytes=peak,
                memory_full_scan_bytes=full_scan_bytes,
                extract_seconds=time.perf_counter() - start)
        if bailed_at is not None:
            stats["extract_bailed_at_band"] = bailed_at
    if want_values:
        return rows, cols, values
    return rows, cols


def _scan_band(band, lo, hi, n_cols, threshold, want_values):
    """Screen and extract one full-width row band.

    Returns ``(rows, cols, values, n_live, n_saturated, tiles, skipped,
    transient_bytes)`` with ``rows`` already offset to matrix coordinates.
    ``rows`` is ``None`` when the band is all-zero (skipped) or fully
    saturated (``n_saturated == len(band)``; the caller emits the rectangle).
    """
    # Density screen: one reduction pass, no boolean temporary.  Product
    # entries are non-negative counts, so a row whose maximum cannot
    # clear the threshold contributes nothing.
    row_max = band.max(axis=1)
    live = row_max > threshold
    transient = int(row_max.nbytes + live.nbytes)
    n_live = int(np.count_nonzero(live))
    if n_live == 0:
        return None, None, None, 0, 0, 1, 1, transient
    n_sat = 0
    if n_live == band.shape[0]:
        # Every row is live: check for saturation with one more reduction.
        # A fully saturated band needs no mask and no nonzero at all — its
        # coordinates are the rectangle; the caller merges contiguous
        # saturated bands and emits the run arithmetically.
        row_min = band.min(axis=1)
        transient += int(row_min.nbytes)
        n_sat = int(np.count_nonzero(row_min > threshold))
        if n_sat == band.shape[0]:
            return None, None, None, n_live, n_sat, 1, 0, transient
        sub = band
        live_rows = None
    else:
        sub = band[live]
        live_rows = np.flatnonzero(live)
        transient += int(sub.nbytes + live_rows.nbytes)
    mask = sub > threshold
    r, c = np.nonzero(mask)
    transient += int(mask.nbytes + r.nbytes + c.nbytes)
    rows = (r + lo) if live_rows is None else (live_rows[r] + lo)
    vals = sub[mask] if want_values else None
    return rows, c, vals, n_live, n_sat, 1, 0, transient


def _scan_band_2d(band, lo, hi, n_cols, band_cols, threshold, want_values):
    """Screen one row band in column tiles (wide products) and restore the
    band's row-major order before emitting."""
    r_parts: List[np.ndarray] = []
    c_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    tiles = 0
    skipped = 0
    peak = 0
    live_rows_any = np.zeros(band.shape[0], dtype=bool)
    for c0 in range(0, n_cols, band_cols):
        tile = band[:, c0: c0 + band_cols]
        tiles += 1
        row_max = tile.max(axis=1)
        live = row_max > threshold
        transient = int(row_max.nbytes + live.nbytes)
        n_live = int(np.count_nonzero(live))
        if n_live == 0:
            skipped += 1
            peak = max(peak, transient)
            continue
        live_rows_any |= live
        if n_live == tile.shape[0]:
            sub = tile
            live_rows = None
        else:
            sub = tile[live]
            live_rows = np.flatnonzero(live)
            transient += int(sub.nbytes + live_rows.nbytes)
        mask = sub > threshold
        r, c = np.nonzero(mask)
        transient += int(mask.nbytes + r.nbytes + c.nbytes)
        peak = max(peak, transient)
        r_parts.append(r if live_rows is None else live_rows[r])
        c_parts.append(c + c0)
        if want_values:
            v_parts.append(sub[mask])
    n_live_band = int(np.count_nonzero(live_rows_any))
    if not r_parts:
        return None, None, None, n_live_band, 0, tiles, skipped, peak
    r = np.concatenate(r_parts)
    c = np.concatenate(c_parts)
    # Column tiles emit column-major across the band; one lexsort restores
    # global row-major order (bands themselves are processed in order).
    order = np.lexsort((c, r))
    vals = np.concatenate(v_parts)[order] if want_values else None
    return r[order] + lo, c[order], vals, n_live_band, 0, tiles, skipped, peak


def tiled_nonzero_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    mode: Optional[str] = None,
    density_hint: Optional[float] = None,
    layout: Optional[KeyLayout] = None,
) -> PairBlock:
    """Tiled equivalent of :func:`repro.matmul.dense.nonzero_block`.

    With a ``layout`` the block is born as packed keys
    (``row_key[rows] | col_key[cols]``).
    """
    rows, cols = tiled_nonzero_coords(
        product, threshold=threshold, tile_rows=tile_rows, stats=stats,
        mode=mode, density_hint=density_hint,
    )
    block = PairBlock.from_gather(
        (row_values, col_values), (rows, cols), layout, deduped=True
    )
    _record(stats, memory_output_bytes=block.nbytes)
    return block


def tiled_nonzero_counted_block(
    product: np.ndarray,
    row_values: Sequence[int],
    col_values: Sequence[int],
    threshold: float = 0.5,
    tile_rows: Optional[int] = None,
    stats: Optional[Dict[str, object]] = None,
    mode: Optional[str] = None,
    density_hint: Optional[float] = None,
    layout: Optional[KeyLayout] = None,
) -> CountedPairBlock:
    """Tiled equivalent of :func:`repro.matmul.dense.nonzero_counted_block`."""
    rows, cols, values = tiled_nonzero_coords(
        product, threshold=threshold, tile_rows=tile_rows, stats=stats,
        want_values=True, mode=mode, density_hint=density_hint,
    )
    block = CountedPairBlock.of(
        PairBlock.from_gather((row_values, col_values), (rows, cols), layout, deduped=True),
        np.rint(values).astype(np.int64),
    )
    _record(stats, memory_output_bytes=block.nbytes)
    return block
