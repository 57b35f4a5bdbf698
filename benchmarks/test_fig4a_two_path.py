"""Figure 4a — two-path join-project, single core, the two output-sensitive plans.

Compares MMJoin against the combinatorial output-sensitive join (Non-MMJoin)
on all six datasets.  Both are timed to their result block, so no Python
container is built inside the timed call.

Expected shape (paper): MMJoin wins on the dense skewed datasets, and the
two are roughly comparable on the sparse ones (RoadNet / DBLP) where the
optimizer falls back to the plain worst-case optimal join.
"""

import pytest

from repro.bench.datasets import bench_dataset, dataset_names
from repro.bench.runner import speedup, time_call
from repro.core.two_path import two_path_join
from repro.joins.baseline import combinatorial_two_path_block

ENGINES = {
    "mmjoin": lambda left, right: two_path_join(left, right).result_block,
    "non-mmjoin": combinatorial_two_path_block,
}
DATASETS = dataset_names()


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("engine_name", list(ENGINES))
def test_fig4a_two_path_engines(benchmark, dataset, engine_name):
    relation = bench_dataset(dataset)
    result = benchmark(ENGINES[engine_name], relation, relation)
    assert len(result) > 0


def test_fig4a_full_comparison_table(benchmark, record_rows):
    def build_rows():
        rows = []
        for dataset in DATASETS:
            relation = bench_dataset(dataset)
            row = {"dataset": dataset}
            sizes = set()
            for engine_name, engine in ENGINES.items():
                # repeats=3 -> trimmed mean keeps the median run: the sparse
                # datasets finish in a few ms, where one timing is noise.
                measurement = time_call(engine, relation, relation, repeats=3)
                row[engine_name] = measurement.seconds
                sizes.add(len(measurement.value))
            assert len(sizes) == 1, (dataset, sizes)
            row["speedup_vs_non_mmjoin"] = speedup(row["non-mmjoin"], row["mmjoin"])
            rows.append(row)
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = record_rows("fig4a_two_path", rows,
                       title="Figure 4a: two-path join-project, single core (seconds)")
    print("\n" + text)
