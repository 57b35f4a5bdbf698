"""Figure 4b — three-relation star join-project, single core.

Compares MMJoin against the combinatorial Non-MMJoin on the star query
``Q*_3(x, z, p) = R(x,y), S(z,y), T(p,y)`` (a self-join on each dataset, as
in the paper).  Like the paper, each relation is sampled so the full
star-join expansion stays within memory/time budget.

Both sides are timed up to their result block; neither builds a Python set
inside the timed call.

Expected shape: MMJoin at least matches the combinatorial algorithm
everywhere and wins on the dense datasets.
"""

import pytest

from repro.bench.datasets import bench_dataset, dataset_names
from repro.bench.runner import time_call
from repro.core.config import MMJoinConfig
from repro.core.star import star_join
from repro.joins.baseline import combinatorial_star_block

DATASETS = dataset_names()
SAMPLE_TUPLES = 2000


def _star_relations(dataset: str):
    base = bench_dataset(dataset)
    sample = base.sample_tuples(SAMPLE_TUPLES, seed=13)
    return [sample, sample, sample]


@pytest.mark.parametrize("dataset", DATASETS)
def test_fig4b_star_mmjoin(benchmark, dataset):
    relations = _star_relations(dataset)
    result = benchmark(star_join, relations)
    assert result.output_size >= 0


@pytest.mark.parametrize("dataset", ["dblp", "roadnet", "words"])
def test_fig4b_star_non_mmjoin(benchmark, dataset):
    relations = _star_relations(dataset)
    benchmark(combinatorial_star_block, relations)


def test_fig4b_comparison_table(benchmark, record_rows):
    def build_rows():
        rows = []
        for dataset in DATASETS:
            relations = _star_relations(dataset)
            mmjoin = time_call(star_join, relations, repeats=1)
            baseline = time_call(combinatorial_star_block, relations, repeats=1)
            assert mmjoin.value.result_block == baseline.value
            rows.append({
                "dataset": dataset,
                "mmjoin": mmjoin.seconds,
                "non_mmjoin": baseline.seconds,
                "output_tuples": len(baseline.value),
            })
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = record_rows("fig4b_star", rows,
                       title="Figure 4b: 3-relation star join-project, single core (seconds)")
    print("\n" + text)
    assert len(rows) == len(DATASETS)
