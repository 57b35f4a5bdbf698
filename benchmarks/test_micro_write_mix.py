"""Bench-runner wiring for the read/write-mix microbenchmark.

Runs :mod:`micro_write_mix` under the pytest-benchmark harness, formats the
table (written to ``benchmarks/results/``, with the ``BENCH_micro.json``
entry, only when recording) and asserts the acceptance bar: on the 95/5 Zipf
read/write schedule, serving through delta appends takes at most **46 ms**
and less than re-registering the grown relation on every write (the module
itself asserts both strategies serve identical pair sets).

The bar used to be the ratio ``write_mix_speedup >= 2.0`` (3x before
array-native relation indexes cut its base, the re-register loop, from
~230 ms to ~92 ms).  A ratio over cold work falls every time cold work gets
faster, so the bar is stated on the delta loop in absolute time instead.
Measured in-suite (re-register / delta, ms) when the bar was set: 92.9-97.3 /
27.5-28.3, i.e. the ratio allowed 46 ms, 1.6x above the measured loop.
Reads go through the memo, as a server's do (each write is followed by one
execution and 18 memo hits): 103 / 31 in-suite, 80-109 / 22-34 standalone.
"""

import micro_write_mix


def test_micro_write_mix_table(benchmark, record_rows, record_json):
    rows = benchmark.pedantic(micro_write_mix.run_rows, rounds=1, iterations=1)
    text = record_rows(
        "micro_write_mix", rows,
        title="Microbenchmark: 95/5 read/write mix, delta appends vs re-register",
    )
    print("\n" + text)
    metrics = micro_write_mix.headline_metrics(rows)
    record_json("micro_write_mix", metrics)

    by_path = {row["path"]: row for row in rows}
    assert set(by_path) == {"delta", "baseline"}
    # Identical service: run_rows() already asserts pair-set equality; the
    # recorded rows must agree on the output size too.
    assert by_path["delta"]["output_pairs"] == by_path["baseline"]["output_pairs"]
    assert by_path["delta"]["writes"] >= 4
    # 95/5 read/write mix: reads dominate the schedule.
    assert by_path["delta"]["reads"] >= 10 * by_path["delta"]["writes"]
    # Acceptance: the streaming write path serves the whole loop in 46 ms
    # and beats re-registering.
    assert metrics["delta_seconds"] <= 0.046, metrics
    assert metrics["delta_seconds"] < metrics["baseline_seconds"], metrics


def test_write_mix_batches_are_deterministic():
    first = micro_write_mix.write_batches(3)
    second = micro_write_mix.write_batches(3)
    assert len(first) == len(second) == 3
    for a, b in zip(first, second):
        assert (a == b).all()
