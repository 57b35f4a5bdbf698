"""Microbenchmark: mixed read/write serving on the streaming write path.

A serving session under a realistic update stream sees mostly reads with a
trickle of writes.  This benchmark replays one deterministic 95/5
read/write schedule over a Zipf-skewed sharded workload through two write
strategies and times the whole loop:

* ``delta`` — the streaming path: every write is ``session.append`` with a
  small batch of Zipf-keyed rows.  The delta hash-routes to its owning
  shards, untouched shards' artifacts stay warm, and the next read re-runs
  only the touched shards' subplans before the cross-shard merge;
* ``baseline`` — re-registration per write: the full (grown) tuple set is
  re-registered under the same name, which is the only write primitive the
  serving layer had before the delta path.  Every write re-partitions the
  relation and invalidates all shard tokens, so the next read pays a cold
  evaluation.

Reads go through the plan memo, as a server's do: the 19 reads between two
writes cost one execution and 18 memo hits under either strategy, so the
loop times what a write makes the *next* read pay.  Both strategies must
serve identical final pair sets.  The headline metric is

    ``write_mix_speedup = baseline_seconds / delta_seconds``

recorded into ``BENCH_micro.json``; ``test_micro_write_mix.py`` asserts the
acceptance bar on ``delta_seconds`` itself (<= 46 ms and below the baseline).
Set ``REPRO_BENCH_QUICK=1`` for the CI smoke mode (smaller workload,
``quick_mode: true``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script usage: python benchmarks/micro_write_mix.py
    sys.path.insert(0, str(_SRC))

from repro.bench.runner import speedup
from repro.core.config import MMJoinConfig
from repro.data import generators
from repro.data.relation import Relation
from repro.serve import QuerySession

RESULTS_PATH = Path(__file__).parent / "results" / "micro_write_mix.txt"

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

N_TUPLES = 10_000 if QUICK else 100_000
X_DOMAIN = 100
Y_DOMAIN = 300
SKEW = 1.1
SHARDS = 8
OPS = 100                            # one write every 20 ops: 95/5 read/write
WRITE_EVERY = 20
WRITE_ROWS = 32                      # rows per append batch
LAZY_MERGE_ROWS = 4096

# All-heavy thresholds: cold evaluation is dominated by the cacheable
# preprocessing (degree statistics, partitioning, dense operand builds) that
# the delta path keeps warm for untouched shards.
CONFIG = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense")
HEAVY_KEY_FACTOR = 0.5


def base_relations() -> Tuple[Relation, Relation]:
    left = generators.zipf_bipartite(N_TUPLES, X_DOMAIN, Y_DOMAIN,
                                     skew=SKEW, seed=11, name="R")
    right = generators.zipf_bipartite(N_TUPLES, X_DOMAIN, Y_DOMAIN,
                                      skew=SKEW, seed=12, name="S")
    return left, right


def write_batches(count: int) -> List[np.ndarray]:
    """Deterministic Zipf-keyed append batches (fresh head values per batch).

    Each batch is an update burst for **one** Zipf-drawn join key — the
    hot-entity pattern a streaming write path is built for (one entity
    gains a batch of fresh edges).  Keeping a batch on one key keeps its
    delta on one shard, so the benchmark measures the intended contrast:
    one-shard delta absorption vs whole-relation re-registration.  (The
    differential harness covers scattered multi-shard batches; their
    routing is the same, just with more touched shards per write.)
    """
    rng = np.random.default_rng(99)
    batches: List[np.ndarray] = []
    next_x = 10 * N_TUPLES  # head values unseen in the base data
    for _ in range(count):
        key = int(np.minimum(rng.zipf(SKEW + 0.4), Y_DOMAIN) - 1)
        xs = np.arange(next_x, next_x + WRITE_ROWS, dtype=np.int64)
        next_x += WRITE_ROWS
        batches.append(np.column_stack([xs, np.full(WRITE_ROWS, key, dtype=np.int64)]))
    return batches


def schedule() -> Iterator[Tuple[str, int]]:
    """The shared op stream: ``("read", _)`` or ``("write", batch_index)``."""
    batch = 0
    for op in range(OPS):
        if op and op % WRITE_EVERY == 0:
            yield "write", batch
            batch += 1
        else:
            yield "read", -1


def _fresh_session(left: Relation, right: Relation) -> QuerySession:
    session = QuerySession(config=CONFIG, shards=SHARDS,
                           heavy_key_factor=HEAVY_KEY_FACTOR,
                           lazy_merge_rows=LAZY_MERGE_ROWS)
    session.register(left, name="R", sharded=True)
    session.register(right, name="S", sharded=True)
    session.two_path("R", "S")  # warm the serving caches
    return session


def run_rows() -> List[Dict[str, object]]:
    """Time the 95/5 loop under delta appends vs re-registration per write."""
    left, right = base_relations()
    batches = write_batches(OPS // WRITE_EVERY + 1)
    rows: List[Dict[str, object]] = []
    final_pairs: Dict[str, frozenset] = {}

    for path in ("delta", "baseline"):
        with _fresh_session(left, right) as session:
            grown = np.array(left.data)
            reads = writes = 0
            result = None
            start = time.perf_counter()
            for op, batch in schedule():
                if op == "read":
                    result = session.two_path("R", "S")
                    reads += 1
                    continue
                writes += 1
                if path == "delta":
                    session.append("R", batches[batch])
                else:
                    grown = np.concatenate([grown, batches[batch]])
                    session.register(Relation(np.array(grown), name="R"),
                                     name="R", sharded=True)
            result = session.two_path("R", "S")
            seconds = time.perf_counter() - start
            final_pairs[path] = frozenset(result.pairs)
        rows.append({
            "path": path,
            "tuples": 2 * N_TUPLES,
            "reads": reads + 1,
            "writes": writes,
            "write_rows": WRITE_ROWS,
            "seconds": round(seconds, 5),
            "ms_per_read": round(1_000.0 * seconds / (reads + 1), 3),
            "output_pairs": len(final_pairs[path]),
        })

    # Both strategies must serve the same grown relation.
    assert final_pairs["delta"] == final_pairs["baseline"], \
        "delta and baseline write paths diverged"
    return rows


def headline_metrics(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """The BENCH_micro.json entry: whole-loop speedup of the delta path."""
    by_path = {row["path"]: row for row in rows}
    return {
        "write_mix_speedup": round(
            speedup(by_path["baseline"]["seconds"], by_path["delta"]["seconds"]), 2
        ),
        "delta_seconds": by_path["delta"]["seconds"],
        "baseline_seconds": by_path["baseline"]["seconds"],
        "reads": by_path["delta"]["reads"],
        "writes": by_path["delta"]["writes"],
        "quick_mode": QUICK,
    }


def main() -> None:
    from repro.bench.report import format_table, record_bench_json

    rows = run_rows()
    text = format_table(
        rows, title="Microbenchmark: 95/5 read/write mix, delta appends vs re-register"
    )
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(text + "\n", encoding="utf-8")
    print(text)
    metrics = headline_metrics(rows)
    print(f"write_mix_speedup: {metrics['write_mix_speedup']}x")
    record_bench_json("micro_write_mix", metrics, RESULTS_PATH.parent)


if __name__ == "__main__":
    main()
