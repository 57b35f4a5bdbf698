"""Microbenchmark: output-sensitive extraction and warm sharded re-query.

Two perf claims of the density-aware extraction layer are quantified here:

* **Adaptive non-zero extraction** (``repro.matmul.tiling`` /
  ``repro.matmul.mapping``): the one-shot ``np.nonzero(product > t)`` scan
  materialises an ``O(|x| * |z|)`` boolean temporary regardless of the
  output size; the tiled scan screens each row band with one ``max``
  reduction, skips all-zero bands and bounds its transient memory by
  ``O(tile + output)``.  The sweep times both scans on products of the same
  shape across output densities — clustered-sparse, scattered-sparse, a
  saturated dense core (merged-rectangle emission), a dense-but-noisy
  product (adaptive bail-out) and a scrambled hidden core extracted through
  the DIM3 degree-sorted mapping — and records the mode each scan settled
  on plus the peak transient bytes next to the wall-clock.
* **Per-shard result cache** (``repro.shard.executor``): warm sharded
  serving used to re-run every shard's pipeline (PR 4's baseline); with the
  result cache each shard's merged block re-serves from the artifact cache
  and a fully-warm query skips even the cross-shard merge.  The second
  table measures warm steady-state and post-``update_shard`` re-query with
  the caches disabled and enabled, on the same 10^5-tuple skewed workload
  as ``micro_shard_scaling``.  That workload isolates no heavy shards (the
  dense core caps every key's degree at the head-domain size), so the
  cache-off rows exercise exactly PR 4's serving path — the rank-1
  heavy-shard strategy, which stays on regardless of the flag, never fires
  here.

The acceptance bars (``test_micro_extract_tiling.py``) gate a >= 2x tiled
extraction speedup on the sparse-output workloads, a >= 0.95x bar on the
dense workloads (the adaptive modes must not regress them), O(tile +
output) peak extraction memory (asserted via the ``memory_*_bytes`` explain
fields of a real plan), and a >= 3x warm re-query speedup from the result
cache.  ``main()`` records both tables under ``benchmarks/results/`` plus
the machine-readable ``BENCH_micro.json`` entry.

A measurement note on ``update_requery_speedup`` (~1.4x here) versus
``micro_shard_scaling``'s ``requery_speedup_vs_cold`` (~6x): the two gauge
different baselines, not contradictory results.  This benchmark compares
post-update re-query between two *warm sharded* sessions that differ only
in the per-shard result cache flag — both keep every other artifact cache
(adjacency matrices, degree indexes, the partition itself) warm, so the
result cache's marginal win over an already-warm sibling is modest.
``micro_shard_scaling`` instead divides by a *cold unsharded* session that
rebuilds everything from scratch, which credits the whole warm serving
stack — sharding, artifact reuse and the result cache together — with the
speedup.  Keep the denominators in mind before comparing the two numbers.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (smaller product and
workload, no acceptance-grade timings).
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script usage: python benchmarks/micro_extract_tiling.py
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import speedup
from repro.core.config import MMJoinConfig
from repro.data import generators
from repro.matmul import mapping as core_mapping
from repro.matmul import tiling
from repro.serve import QuerySession

RESULTS_PATH = Path(__file__).parent / "results" / "micro_extract_tiling.txt"

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

# ---- extraction sweep ----------------------------------------------------- #
PRODUCT_SIDE = 1_000 if QUICK else 3_000
THRESHOLD = 0.5

# ---- warm sharded re-query ------------------------------------------------ #
N_TUPLES = 20_000 if QUICK else 100_000
X_DOMAIN = 100
Y_DOMAIN = 300
SKEW = 1.1
SHARDS = 8
SHARD_CONFIG = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense")


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


def _trimmed_mean(runs: List[float]) -> float:
    kept = sorted(runs)[1:-1] if len(runs) >= 3 else runs
    return float(statistics.mean(kept))


def _batched_best(fn: Callable[[], object], batch: int, samples: int) -> float:
    """Best per-call seconds over ``samples`` timing windows of ``batch`` calls.

    The warm cached query runs in ~100 microseconds, where single-call
    timings are dominated by timer resolution and interpreter jitter;
    batching several calls per timing window and taking the best window
    keeps the recorded ratio of a ~100us path to a ~5ms path stable across
    ambient machine load.
    """
    best = float("inf")
    for _ in range(max(samples, 1)):
        start = time.perf_counter()
        for _ in range(max(batch, 1)):
            fn()
        best = min(best, (time.perf_counter() - start) / max(batch, 1))
    return best


def _shard_session(result_cache: bool) -> QuerySession:
    left = generators.zipf_bipartite(N_TUPLES, X_DOMAIN, Y_DOMAIN,
                                     skew=SKEW, seed=1, name="R")
    right = generators.zipf_bipartite(N_TUPLES, X_DOMAIN, Y_DOMAIN,
                                      skew=SKEW, seed=2, name="S")
    session = QuerySession(config=SHARD_CONFIG, shards=SHARDS,
                           shard_result_cache=result_cache)
    session.register(left, name="R", sharded=True)
    session.register(right, name="S", sharded=True)
    return session


def run_shard_rows(repeats: int = 3) -> List[Dict[str, object]]:
    """Warm / post-update re-query with the result cache off (PR 4) vs on."""
    rows: List[Dict[str, object]] = []
    for cached in (False, True):
        with _shard_session(result_cache=cached) as session:
            session.two_path("R", "S", use_memo=False)  # fill the caches
            session.two_path("R", "S", use_memo=False)  # reach steady state
            warm_seconds = _batched_best(
                lambda: session.two_path("R", "S", use_memo=False),
                batch=8 if cached else 3,
                samples=max(repeats, 2) + 2,
            )
            reference = session.two_path("R", "S", use_memo=False)

            # The PR 4 update scenario: mutate the busiest hash shard, then
            # re-serve.  Alternating row sets keeps every repeat a mutation.
            spec = session.sharding_spec
            sizes = session.sharded("R").sizes()[: spec.hash_shards]
            target = int(np.argmax(sizes))
            full_shard = np.array(session.sharded("R").shard(target).data)
            variants = (full_shard[::2], full_shard)
            requery_runs: List[float] = []
            for i in range(max(repeats, 2) + 1):
                session.update_shard("R", target, variants[i % 2])
                requery_runs.append(
                    _best_of(lambda: session.two_path("R", "S", use_memo=False), 1)
                )
            rows.append({
                "result_cache": cached,
                "shards": SHARDS,
                "tuples": 2 * N_TUPLES,
                "output_pairs": len(reference),
                "warm_seconds": round(warm_seconds, 7),
                "update_requery_seconds": round(_trimmed_mean(requery_runs), 5),
            })
    baseline, with_cache = rows
    for row in rows:
        row["warm_speedup_vs_pr4"] = round(
            speedup(float(baseline["warm_seconds"]), float(row["warm_seconds"])), 2
        )
        row["requery_speedup_vs_pr4"] = round(
            speedup(float(baseline["update_requery_seconds"]),
                    float(row["update_requery_seconds"])), 2
        )
    return rows


def headline_metrics(extract_rows, shard_rows) -> Dict[str, object]:
    """The BENCH_micro.json entry shared by main() and the acceptance test."""
    by_name = {row["workload"]: row for row in extract_rows}
    cached = next(row for row in shard_rows if row["result_cache"])
    return {
        "sparse_clustered_speedup": by_name["sparse_clustered"]["speedup"],
        "sparse_scattered_speedup": by_name["sparse_scattered"]["speedup"],
        "dense_core_speedup": by_name["dense_core"]["speedup"],
        "dense_noisy_speedup": by_name["dense_noisy"]["speedup"],
        "hidden_core_mapped_speedup": by_name["hidden_core_mapped"]["speedup"],
        "warm_shard_requery_speedup": cached["warm_speedup_vs_pr4"],
        "update_requery_speedup": cached["requery_speedup_vs_pr4"],
        "quick_mode": QUICK,
    }


def format_results(extract_rows, shard_rows) -> str:
    """Both tables as rendered text."""
    from repro.bench.report import format_table

    return "\n\n".join([
        format_table(extract_rows,
                     title="Microbenchmark: full-scan vs tiled extraction"),
        format_table(shard_rows,
                     title="Microbenchmark: warm sharded re-query, result cache off/on"),
    ])


def record_results(extract_rows, shard_rows) -> str:
    """Write both tables to the results file and return the rendered text."""
    text = format_results(extract_rows, shard_rows)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(text + "\n", encoding="utf-8")
    return text


def main() -> None:
    from repro.bench.report import record_bench_json

    extract_rows = run_extract_rows()
    shard_rows = run_shard_rows()
    print(record_results(extract_rows, shard_rows))
    record_bench_json("micro_extract_tiling",
                      headline_metrics(extract_rows, shard_rows),
                      RESULTS_PATH.parent)


if __name__ == "__main__":
    main()
