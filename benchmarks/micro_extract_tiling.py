"""Microbenchmark: output-sensitive extraction.

Quantifies the perf claim of the density-aware extraction layer
(``repro.matmul.tiling`` / ``repro.matmul.mapping``): the one-shot
``np.nonzero(product > t)`` scan materialises an ``O(|x| * |z|)`` boolean
temporary regardless of the output size; the tiled scan screens each row
band with one ``max`` reduction, skips all-zero bands and bounds its
transient memory by ``O(tile + output)``.  The sweep times both scans on
products of the same shape across output densities — clustered-sparse,
scattered-sparse, a saturated dense core (merged-rectangle emission), a
dense-but-noisy product (adaptive bail-out) and a scrambled hidden core
extracted through the DIM3 degree-sorted mapping — and records the mode
each scan settled on plus the peak transient bytes next to the wall-clock.

The acceptance bars (``test_micro_extract_tiling.py``) gate a >= 2x tiled
extraction speedup on the sparse-output workloads, a >= 0.95x bar on the
dense workloads (the adaptive modes must not regress them) and O(tile +
output) peak extraction memory (asserted via the ``memory_*_bytes`` explain
fields of a real plan).  ``main()`` records the table under
``benchmarks/results/`` plus the machine-readable ``BENCH_micro.json``
entry.  (Warm and post-``update_shard`` sharded re-query are timed by
``micro_shard_scaling``.)

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (smaller product, no
acceptance-grade timings).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script usage: python benchmarks/micro_extract_tiling.py
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import speedup
from repro.matmul import mapping as core_mapping
from repro.matmul import tiling

RESULTS_PATH = Path(__file__).parent / "results" / "micro_extract_tiling.txt"

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

PRODUCT_SIDE = 1_000 if QUICK else 3_000
THRESHOLD = 0.5


def _best_of(fn: Callable[[], object], repeats: int = 5) -> float:
    """Fastest of ``repeats`` runs.

    Best-of is the right statistic for these single-digit-millisecond
    kernels, but it only rejects noise the sweep outlasts: a recorded
    ledger once shipped a 3x-slowed ``sparse_clustered`` row because all
    five runs landed inside one burst of background load.  The sweep
    defaults to nine repeats so a transient has to span the whole sweep to
    bias the minimum.
    """
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def product_workloads(side: int = PRODUCT_SIDE) -> Dict[str, np.ndarray]:
    """Same-shape products across output densities."""
    rng = np.random.default_rng(11)
    clustered = np.zeros((side, side), dtype=np.float32)
    hot_rows = rng.choice(side, size=max(side // 100, 4), replace=False)
    clustered[hot_rows[:, None],
              rng.choice(side, size=(hot_rows.size, 40))] = 3.0
    scattered = np.zeros((side, side), dtype=np.float32)
    n_scatter = max(int(side * side * 1e-4), 8)
    scattered[rng.integers(0, side, n_scatter),
              rng.integers(0, side, n_scatter)] = 2.0
    dense_core = np.ones((side, side), dtype=np.float32)
    # Dense but not saturated: ~80% of cells clear the threshold, so the
    # min-screen never fires and the auto policy must bail out to win.
    dense_noisy = (rng.random((side, side)) < 0.8).astype(np.float32)
    return {
        "sparse_clustered": clustered,
        "sparse_scattered": scattered,
        "dense_core": dense_core,
        "dense_noisy": dense_noisy,
    }


def hidden_core_workload(side: int = PRODUCT_SIDE):
    """A saturated core scattered across the domains, plus sparse noise.

    Returns ``(product, mapping)``: a quarter of the rows/columns are "hot"
    at random positions and their intersection is saturated; the DIM3
    mapping (built from the hot/cold degree split, as the heavy relations'
    degree indexes would supply it) permutes them into the top-left core.
    """
    rng = np.random.default_rng(7)
    n_hot = max(side // 4, 1)
    hot_rows = rng.choice(side, size=n_hot, replace=False)
    hot_cols = rng.choice(side, size=n_hot, replace=False)
    product = np.zeros((side, side), dtype=np.float32)
    product[np.ix_(hot_rows, hot_cols)] = 1.0
    n_scatter = max(int(side * side * 1e-4), 8)
    product[rng.integers(0, side, n_scatter),
            rng.integers(0, side, n_scatter)] = 2.0
    row_deg = np.ones(side)
    col_deg = np.ones(side)
    row_deg[hot_rows] = 50
    col_deg[hot_cols] = 50
    mapping = core_mapping.mapping_from_degrees(row_deg, col_deg, inner_dim=100)
    return product, mapping


def run_extract_rows(repeats: int = 9) -> List[Dict[str, object]]:
    """Full-scan vs tiled extraction across output densities."""
    rows: List[Dict[str, object]] = []
    for name, product in product_workloads().items():
        side = product.shape[0]
        ids = np.arange(side, dtype=np.int64)
        full_stats: Dict[str, object] = {}
        tiled_stats: Dict[str, object] = {}
        full_seconds = _best_of(
            lambda: tiling.tiled_nonzero_block(
                product, ids, ids, threshold=THRESHOLD,
                tile_rows=tiling.FULL_SCAN, stats=full_stats,
            ),
            repeats,
        )
        tiled_seconds = _best_of(
            lambda: tiling.tiled_nonzero_block(
                product, ids, ids, threshold=THRESHOLD, stats=tiled_stats,
            ),
            repeats,
        )
        rows.append({
            "workload": name,
            "cells": int(product.size),
            "output_pairs": int((product > THRESHOLD).sum()),
            "full_ms": round(full_seconds * 1e3, 3),
            "tiled_ms": round(tiled_seconds * 1e3, 3),
            "speedup": round(speedup(full_seconds, tiled_seconds), 2),
            "mode": tiled_stats["extract_mode"],
            "tile_rows": tiled_stats["extract_tile_rows"],
            "tiles_skipped": tiled_stats["extract_tiles_skipped"],
            "full_peak_bytes": full_stats["memory_extract_peak_bytes"],
            "tiled_peak_bytes": tiled_stats["memory_extract_peak_bytes"],
            "output_bytes": tiled_stats["memory_output_bytes"],
        })
    rows.append(_hidden_core_row(repeats))
    return rows


def _hidden_core_row(repeats: int = 5) -> Dict[str, object]:
    """Full one-shot scan vs DIM3 core-mapped extraction."""
    product, mapping = hidden_core_workload()
    side = product.shape[0]
    ids = np.arange(side, dtype=np.int64)
    full_stats: Dict[str, object] = {}
    mapped_stats: Dict[str, object] = {}
    full_seconds = _best_of(
        lambda: tiling.tiled_nonzero_block(
            product, ids, ids, threshold=THRESHOLD,
            tile_rows=tiling.FULL_SCAN, stats=full_stats,
        ),
        repeats,
    )
    mapped_seconds = _best_of(
        lambda: core_mapping.mapped_nonzero_block(
            product, ids, ids, mapping, threshold=THRESHOLD,
            stats=mapped_stats,
        ),
        repeats,
    )
    return {
        "workload": "hidden_core_mapped",
        "cells": int(product.size),
        "output_pairs": int((product > THRESHOLD).sum()),
        "full_ms": round(full_seconds * 1e3, 3),
        "tiled_ms": round(mapped_seconds * 1e3, 3),
        "speedup": round(speedup(full_seconds, mapped_seconds), 2),
        "mode": mapped_stats["extract_mode"],
        "tile_rows": mapped_stats["extract_tile_rows"],
        "tiles_skipped": mapped_stats["extract_tiles_skipped"],
        "full_peak_bytes": full_stats["memory_extract_peak_bytes"],
        "tiled_peak_bytes": mapped_stats["memory_extract_peak_bytes"],
        "output_bytes": mapped_stats["memory_output_bytes"],
    }


def headline_metrics(extract_rows) -> Dict[str, object]:
    """The BENCH_micro.json entry shared by main() and the acceptance test."""
    by_name = {row["workload"]: row for row in extract_rows}
    return {
        "sparse_clustered_speedup": by_name["sparse_clustered"]["speedup"],
        "sparse_scattered_speedup": by_name["sparse_scattered"]["speedup"],
        "dense_core_speedup": by_name["dense_core"]["speedup"],
        "dense_noisy_speedup": by_name["dense_noisy"]["speedup"],
        "hidden_core_mapped_speedup": by_name["hidden_core_mapped"]["speedup"],
        "quick_mode": QUICK,
    }


def format_results(extract_rows) -> str:
    """The table as rendered text."""
    from repro.bench.report import format_table

    return format_table(extract_rows,
                        title="Microbenchmark: full-scan vs tiled extraction")


def record_results(extract_rows) -> str:
    """Write the table to the results file and return the rendered text."""
    text = format_results(extract_rows)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(text + "\n", encoding="utf-8")
    return text


def main() -> None:
    from repro.bench.report import record_bench_json

    extract_rows = run_extract_rows()
    print(record_results(extract_rows))
    record_bench_json("micro_extract_tiling", headline_metrics(extract_rows),
                      RESULTS_PATH.parent)


if __name__ == "__main__":
    main()
