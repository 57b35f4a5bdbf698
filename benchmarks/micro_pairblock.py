"""Microbenchmark: set-based vs columnar dedup-merge.

Reproduces, in isolation, the hot merge step of the pipeline: the light and
heavy phases each produce result pairs (with cross-phase overlap), and
``DedupMerge`` must deduplicate their union.

* ``set_based_merge`` is the pre-columnar implementation: materialise both
  phases as Python ``set`` objects of int tuples and union them.
* ``columnar_merge`` is the current implementation on column-form inputs:
  one array concatenation, then :meth:`PairBlock.dedup` — pack the rows into
  int64 keys under a bit-field :class:`~repro.data.pairblock.KeyLayout`, one
  plain ``np.sort``, a neighbour compare, one decode.  (Inside the pipeline
  the phases already hand over keys, so the pack and the range scan drop
  out; this benchmark keeps the column-form entry point, which is what the
  shard merges and the write path use.)

Timing goes through :func:`repro.bench.runner.time_call` (the paper's
trimmed-mean protocol); ``main()`` records the table to
``benchmarks/results/micro_pairblock.txt``.  The pytest wrapper
``test_micro_pairblock.py`` runs the same rows under the bench harness and
asserts the acceptance bar: >= 2x speedup on the 10^6-pair workload.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script usage: python benchmarks/micro_pairblock.py
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import speedup, time_call
from repro.data.pairblock import PairBlock

Pair = Tuple[int, int]

RESULTS_PATH = Path(__file__).parent / "results" / "micro_pairblock.txt"

# Sweep sizes; the last one is the acceptance workload (10^6 total pairs).
WORKLOAD_SIZES = (10_000, 100_000, 1_000_000)


def make_workload(
    n_pairs: int, overlap_fraction: float = 0.2, domain: int = 1 << 20, seed: int = 7
) -> Tuple[np.ndarray, np.ndarray]:
    """Two (n, 2) coordinate arrays with ~overlap_fraction shared rows."""
    rng = np.random.default_rng(seed)
    half = n_pairs // 2
    light = rng.integers(0, domain, size=(half, 2), dtype=np.int64)
    fresh = rng.integers(0, domain, size=(n_pairs - half, 2), dtype=np.int64)
    n_shared = int(overlap_fraction * (n_pairs - half))
    if n_shared:
        fresh[:n_shared] = light[rng.integers(0, half, size=n_shared)]
    return light, fresh


def set_based_merge(light: np.ndarray, heavy: np.ndarray) -> Set[Pair]:
    """The old pipeline: per-tuple set construction, then a set union."""
    light_set = set(map(tuple, light.tolist()))
    heavy_set = set(map(tuple, heavy.tolist()))
    return light_set | heavy_set


def columnar_merge(light: np.ndarray, heavy: np.ndarray) -> PairBlock:
    """The columnar pipeline: one concat + one packed-key sort."""
    return PairBlock.from_array(light).concat(PairBlock.from_array(heavy)).dedup()


def run_rows(sizes=WORKLOAD_SIZES, repeats: int = 3) -> List[Dict[str, object]]:
    """Time both merges per workload size; returns paper-style table rows."""
    rows: List[Dict[str, object]] = []
    for n_pairs in sizes:
        light, heavy = make_workload(n_pairs)
        set_m = time_call(set_based_merge, light, heavy, repeats=repeats)
        col_m = time_call(columnar_merge, light, heavy, repeats=repeats)
        assert len(col_m.value) == len(set_m.value), "merge outputs disagree"
        rows.append({
            "pairs": n_pairs,
            "distinct": len(col_m.value),
            "set_seconds": round(set_m.seconds, 5),
            "columnar_seconds": round(col_m.seconds, 5),
            "speedup": round(speedup(set_m.seconds, col_m.seconds), 2),
        })
    return rows


def headline_metrics(rows) -> Dict[str, object]:
    """The BENCH_micro.json entry: speedup at the largest workload."""
    largest = max(rows, key=lambda row: row["pairs"])
    return {"columnar_dedup_speedup": largest["speedup"],
            "pairs": largest["pairs"]}


def main() -> None:
    from repro.bench.report import format_table, record_bench_json

    rows = run_rows()
    text = format_table(rows, title="Microbenchmark: set-based vs columnar dedup-merge")
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(text + "\n", encoding="utf-8")
    print(text)
    record_bench_json("micro_pairblock", headline_metrics(rows), RESULTS_PATH.parent)


if __name__ == "__main__":
    main()
