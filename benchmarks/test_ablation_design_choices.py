"""Ablation benchmarks for the design choices called out in DESIGN.md.

Two knobs of the MMJoin pipeline are isolated:

* dense vs sparse matrix backend for the heavy residual,
* the cost-based optimizer vs fixed degree thresholds.

Each ablation verifies that the output is identical across variants (the
knobs are pure performance choices) and records the measured times.
"""

import pytest

from repro.bench.datasets import bench_dataset
from repro.bench.runner import time_call
from repro.core.config import MMJoinConfig
from repro.core.two_path import two_path_join

DATASET = "jokes"


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_ablation_matmul_backend(benchmark, backend):
    relation = bench_dataset(DATASET)
    config = MMJoinConfig(delta1=4, delta2=4, matrix_backend=backend)
    result = benchmark(two_path_join, relation, relation, config)
    assert result.backend == backend


def test_ablation_matmul_backend_table(benchmark, record_rows):
    def build_rows():
        relation = bench_dataset(DATASET)
        rows = []
        reference = None
        for backend in ("dense", "sparse"):
            config = MMJoinConfig(delta1=4, delta2=4, matrix_backend=backend)
            measurement = time_call(two_path_join, relation, relation, config, repeats=1)
            if reference is None:
                reference = measurement.value.result_block
            else:
                assert measurement.value.result_block == reference
            rows.append({"backend": backend, "seconds": measurement.seconds,
                         "matrix_dims": str(measurement.value.plan.state.matrix_dims)})
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = record_rows("ablation_matmul_backend", rows,
                       title="Ablation: dense vs sparse heavy-part backend (jokes)")
    print("\n" + text)


@pytest.mark.parametrize("mode", ["optimizer", "fixed_small", "fixed_large", "wcoj"])
def test_ablation_optimizer(benchmark, mode):
    relation = bench_dataset(DATASET)
    configs = {
        "optimizer": MMJoinConfig(),
        "fixed_small": MMJoinConfig(delta1=2, delta2=2),
        "fixed_large": MMJoinConfig(delta1=64, delta2=64),
        "wcoj": MMJoinConfig(use_optimizer=False),
    }
    result = benchmark(two_path_join, relation, relation, configs[mode])
    assert result.output_size > 0


def test_ablation_optimizer_table(benchmark, record_rows):
    def build_rows():
        relation = bench_dataset(DATASET)
        variants = {
            "optimizer": MMJoinConfig(),
            "fixed_small": MMJoinConfig(delta1=2, delta2=2),
            "fixed_large": MMJoinConfig(delta1=64, delta2=64),
            "wcoj": MMJoinConfig(use_optimizer=False),
        }
        rows = []
        reference = None
        for label, config in variants.items():
            measurement = time_call(two_path_join, relation, relation, config, repeats=1)
            if reference is None:
                reference = measurement.value.result_block
            else:
                assert measurement.value.result_block == reference
            rows.append({
                "variant": label,
                "seconds": measurement.seconds,
                "strategy": measurement.value.strategy,
                "delta1": measurement.value.explanation.delta1,
                "delta2": measurement.value.explanation.delta2,
            })
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = record_rows("ablation_optimizer", rows,
                       title="Ablation: optimizer-chosen vs fixed thresholds (jokes)")
    print("\n" + text)
    by_label = {row["variant"]: row for row in rows}
    # The optimizer's pick should not be grossly worse than the best fixed choice.
    best_fixed = min(by_label["fixed_small"]["seconds"], by_label["fixed_large"]["seconds"])
    assert by_label["optimizer"]["seconds"] <= 5 * best_fixed

