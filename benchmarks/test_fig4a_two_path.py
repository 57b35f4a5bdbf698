"""Figure 4a — two-path join-project, single core, all engines.

Compares MMJoin against the combinatorial output-sensitive join (Non-MMJoin),
the SQL-like engines (Postgres / MySQL / System X stand-ins) and the
EmptyHeaded-style set-intersection engine on all six datasets.

Expected shape (paper): the full-join engines are one to two orders of
magnitude slower on the dense skewed datasets, roughly comparable on the
sparse ones (RoadNet / DBLP) where the optimizer falls back to the plain
worst-case optimal join.
"""

import pytest

from repro.bench.datasets import bench_dataset, dataset_names
from repro.bench.runner import speedup, time_call
from repro.engines.registry import make_engine

ENGINES = ["mmjoin", "non-mmjoin", "postgres", "mysql", "system_x", "emptyheaded"]
DATASETS = dataset_names()


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("engine_name", ["mmjoin", "non-mmjoin", "emptyheaded"])
def test_fig4a_two_path_engines(benchmark, dataset, engine_name):
    relation = bench_dataset(dataset)
    engine = make_engine(engine_name)
    result = benchmark(engine.two_path_block, relation, relation)
    assert len(result) > 0


def test_fig4a_full_comparison_table(benchmark, record_rows):
    def build_rows():
        rows = []
        reference_sizes = {}
        for dataset in DATASETS:
            relation = bench_dataset(dataset)
            row = {"dataset": dataset}
            for engine_name in ENGINES:
                engine = make_engine(engine_name)
                # repeats=3 -> trimmed mean keeps the median run: the sparse
                # datasets finish in ~5ms where a single-shot timing has
                # recorded noise-level speedup flips (roadnet vs postgres).
                measurement = time_call(engine.two_path_block, relation, relation, repeats=3)
                row[engine_name] = measurement.seconds
                reference_sizes.setdefault(dataset, len(measurement.value))
                assert len(measurement.value) == reference_sizes[dataset]
            row["speedup_vs_postgres"] = speedup(row["postgres"], row["mmjoin"])
            rows.append(row)
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = record_rows("fig4a_two_path", rows,
                       title="Figure 4a: two-path join-project, single core (seconds)")
    print("\n" + text)

    by_dataset = {row["dataset"]: row for row in rows}
    # On the dense, duplicate-heavy datasets the output-sensitive algorithms
    # must beat the full-join engines decisively.
    for dense in ("jokes", "protein", "image"):
        assert by_dataset[dense]["mmjoin"] < by_dataset[dense]["postgres"]
        assert by_dataset[dense]["mmjoin"] < by_dataset[dense]["mysql"]
