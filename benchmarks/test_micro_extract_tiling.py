"""Bench-runner wiring for the extraction-tiling microbenchmark.

Runs :mod:`micro_extract_tiling` under the pytest-benchmark harness,
formats the table (``benchmarks/results/micro_extract_tiling.txt`` plus
the machine-readable ``BENCH_micro.json`` entry are written only when
recording — ``--record-results``), and asserts the acceptance
bars:

* tiled extraction is at least **2x** faster than the one-shot full scan on
  the sparse-output dense-product workload, with peak transient memory an
  order of magnitude under the full scan's boolean temporary;
* peak extraction memory of a real plan is bounded by O(tile + output),
  asserted through the ``memory_*_bytes`` fields ``explain()`` now carries.
"""

import numpy as np

import micro_extract_tiling

from repro.core.config import MMJoinConfig
from repro.core.two_path import two_path_join
from repro.data.relation import Relation
from repro.joins.baseline import combinatorial_two_path_block
from repro.matmul.tiling import choose_tile_rows


def test_micro_extract_tiling_tables(benchmark, record_json, recording):
    extract_rows = benchmark.pedantic(micro_extract_tiling.run_extract_rows,
                                      rounds=1, iterations=1)
    render = (micro_extract_tiling.record_results if recording
              else micro_extract_tiling.format_results)
    print("\n" + render(extract_rows))
    metrics = micro_extract_tiling.headline_metrics(extract_rows)
    record_json("micro_extract_tiling", metrics)

    by_name = {row["workload"]: row for row in extract_rows}
    clustered = by_name["sparse_clustered"]
    # Acceptance: >= 2x on the sparse-output dense-product workload, with
    # peak transient memory far below the full scan's boolean temporary.
    assert clustered["speedup"] >= 2.0, clustered
    assert clustered["tiled_peak_bytes"] * 8 <= clustered["full_peak_bytes"], clustered
    # The scattered-sparse case must at least not regress.
    assert by_name["sparse_scattered"]["speedup"] >= 1.2, by_name
    # Acceptance: the adaptive modes close the dense regression — the
    # saturated product must no longer lose to the one-shot scan (merged
    # rectangle emission), the noisy-dense product must stay within noise of
    # it (bail-out), and the scrambled hidden core must win through the
    # DIM3 mapping.
    assert by_name["dense_core"]["speedup"] >= 0.95, by_name["dense_core"]
    assert by_name["dense_noisy"]["speedup"] >= 0.8, by_name["dense_noisy"]
    assert by_name["hidden_core_mapped"]["speedup"] >= 0.95, \
        by_name["hidden_core_mapped"]


def _sparse_output_pair():
    """All-heavy workload whose product is large but sparsely populated.

    Every head value has degree 2 and every join key degree 6 (both heavy
    at delta = 1), so the whole input lands in the matrix phase; the
    1200 x 1200 product holds ~1% non-zeros.
    """
    n, keys = 1200, 400
    x = np.arange(n, dtype=np.int64)
    left = Relation(np.vstack([
        np.column_stack([x, x % keys]),
        np.column_stack([x, (x * 7 + 3) % keys]),
    ]), name="L")
    right = Relation(np.vstack([
        np.column_stack([x, (x * 11 + 5) % keys]),
        np.column_stack([x, (x * 13 + 8) % keys]),
    ]), name="R")
    return left, right


def test_extraction_memory_bounded_via_explain_fields():
    """Peak extraction memory of a real plan is O(tile + output)."""
    left, right = _sparse_output_pair()
    tile_rows = 64
    config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                          extract_tile_rows=tile_rows)
    result = two_path_join(left, right, config=config)
    assert result.result_block == combinatorial_two_path_block(left, right)
    heavy = next(op for op in result.explanation.operators
                 if op.operator == "matmul_heavy")
    detail = heavy.detail
    assert detail["extract_mode"] == "tiled"
    u, _, w = detail["matrix_dims"]
    assert detail["memory_full_scan_bytes"] == u * w
    # O(tile + output): one band's transients (screen + mask + coordinate
    # chunks) plus the emitted block, never the whole product's mask.
    tile_budget = tile_rows * w * 2 + tile_rows * 16
    output_budget = 4 * detail["memory_output_bytes"]
    assert detail["memory_extract_peak_bytes"] <= tile_budget + output_budget, detail
    assert detail["memory_extract_peak_bytes"] * 8 <= detail["memory_full_scan_bytes"], \
        detail
    assert detail["extract_tiles_total"] == -(-u // tile_rows)


def test_auto_tile_rows_matches_full_scan_output():
    """The density-aware default produces identical output to the full scan."""
    left, right = _sparse_output_pair()
    expected = combinatorial_two_path_block(left, right)
    for tile_rows in (None, 0, 1, 97, 10**6):
        config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                              extract_tile_rows=tile_rows)
        assert two_path_join(left, right, config=config).result_block == expected


def test_choose_tile_rows_bounds():
    assert choose_tile_rows(0, 10) == 1
    assert choose_tile_rows(10, 0) == 1
    assert 1 <= choose_tile_rows(10**6, 10**6) <= 10**6
    assert choose_tile_rows(5, 8) == 5  # never exceeds the matrix
