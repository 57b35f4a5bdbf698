"""Bench-runner wiring for the session-cache microbenchmark.

Runs :mod:`micro_session_cache` under the pytest-benchmark harness, formats
the paper-style table (written to ``benchmarks/results/`` only when
recording) and asserts the acceptance bar: warm (artifact-cached, memo
bypassed) serving of the repeated two-path query on the 10^5-tuple
dense-core workload takes at most 25 ms and less than a cold session, and
the memo path is faster still.

The bar used to be the ratio ``warm_speedup >= 3.0``.  Its base is *cold*
work, which every cold-path optimisation shrinks while the warm side stays
put, so the bar is stated on the warm side in absolute time instead.
Measured in-suite on the acceptance row (cold / warm, ms):

* parent commit: 15.7 / 2.0 when the unpinned 2-thread OpenBLAS behaves,
  38.9 / 15.9 when it oversubscribes the 2-core box (the 400x300x400 SGEMM
  alone is then 15.7 ms) -- 7.98x and 2.45x, i.e. the ratio bar was red in
  the second mode;
* this change: 13.9-18.4 / 3.5-3.7 and 39.0-40.1 / 16.0-17.5 (the
  acceptance row's result is heavy-only; it now pays one key OR, one
  sortedness pass and one decode, ~1.5 ms per 160 k rows, so that every
  result leaves the pipeline in canonical order).

3x of the parent's slow-mode cold allowed 13 ms, which that mode never met;
25 ms is the bound the issue authorising this restatement computed
(75.3 ms / 3), 1.5x above the slow mode and 7x above the fast one.
"""

import micro_session_cache


def test_micro_session_cache_table(benchmark, record_rows, record_json):
    rows = benchmark.pedantic(micro_session_cache.run_rows, rounds=1, iterations=1)
    text = record_rows(
        "micro_session_cache", rows,
        title="Microbenchmark: cold vs warm session serving",
    )
    print("\n" + text)
    record_json("micro_session_cache", micro_session_cache.headline_metrics(rows))
    acceptance = [r for r in rows
                  if r["workload"] == micro_session_cache.ACCEPTANCE_WORKLOAD]
    assert acceptance, "acceptance workload missing from the sweep"
    row = acceptance[0]
    assert row["tuples"] >= 100_000, row
    assert row["warm_seconds"] <= 0.025, row
    assert row["warm_seconds"] < row["cold_seconds"], row
    assert row["memo_speedup"] >= row["warm_speedup"], row


def test_micro_session_cache_outputs_agree():
    """Cold, warm and memo paths return identical pairs (asserted inside)."""
    rows = micro_session_cache.run_rows(repeats=1)
    assert {r["workload"] for r in rows} == set(micro_session_cache.WORKLOADS)
