"""Integration tests: end-to-end scenarios spanning multiple subsystems."""

import doctest

import pytest

from oracle import star_pairs, two_path_pairs
from repro import (
    Catalog,
    MMJoinConfig,
    Relation,
    SetFamily,
    set_containment_join,
    set_similarity_join,
    star_join,
    two_path_join,
)
from repro.bench.datasets import bench_dataset, bench_family
from repro.core.bsi import BSIBatchScheduler
from repro.data import generators
from repro.joins.baseline import combinatorial_two_path_block
from repro.setops.ssj import ssj_bruteforce


class TestPaperExample1:
    """The motivating co-author / friend-of-friend scenario of the paper."""

    def test_friends_in_common(self):
        graph = generators.example1_instance(4000, num_communities=2, seed=9)
        result = two_path_join(graph, graph)
        expected = two_path_pairs(graph, graph)
        assert result.pairs == expected
        # The projection is far smaller than the full join on this instance.
        assert len(result.pairs) < graph.full_join_size(graph)

    def test_mmjoin_strategy_selected_on_dense_instance(self):
        graph = generators.example1_instance(4000, num_communities=2, seed=9)
        result = two_path_join(graph, graph)
        assert result.strategy == "mmjoin"
        assert result.plan.state.matrix_dims[1] > 0  # some heavy witnesses existed


class TestDatasetPipelines:
    @pytest.mark.parametrize("name", ["dblp", "roadnet", "jokes"])
    def test_two_path_on_paper_datasets(self, name):
        relation = bench_dataset(name, scale=0.02)
        result = two_path_join(relation, relation)
        expected = two_path_pairs(relation, relation)
        assert result.pairs == expected

    def test_star_on_paper_dataset_samples(self):
        base = bench_dataset("words", scale=0.02)
        sample = base.sample_tuples(1500, seed=1)
        relations = [sample, sample.swap().swap(), sample]
        assert star_join(relations).pairs == star_pairs(relations)

    def test_catalog_workflow(self):
        catalog = Catalog()
        for name in ("dblp", "jokes"):
            catalog.add(bench_dataset(name, scale=0.02), name=name)
        stats = catalog.stats_table()
        assert stats["jokes"].avg_set_size > stats["dblp"].avg_set_size


class TestApplicationsEndToEnd:
    def test_ssj_pipeline_on_generated_dataset(self):
        family = bench_family("jokes", scale=0.015)
        sample_ids = [int(v) for v in family.set_ids()[:40]]
        family = family.restrict(sample_ids)
        expected = ssj_bruteforce(family, c=2).pairs
        for method in ("mmjoin", "sizeaware", "sizeaware++"):
            assert set_similarity_join(family, c=2, method=method).pairs == expected

    def test_scj_pipeline(self):
        family = SetFamily.from_dict(
            {i: list(range(i, i + 5)) for i in range(20)} | {100: list(range(0, 30))}
        )
        result = set_containment_join(family, method="mmjoin")
        # every 5-element window is contained in the big set that covers it
        for i in range(20):
            if set(range(i, i + 5)) <= set(range(0, 30)):
                assert (i, 100) in result.pairs

    def test_bsi_end_to_end(self):
        left = bench_dataset("words", scale=0.015)
        right = bench_dataset("words", scale=0.015)
        scheduler = BSIBatchScheduler(left, right, arrival_rate=1000)
        workload = scheduler.generate_workload(150, seed=11)
        mm = scheduler.run(workload, batch_size=50, use_mmjoin=True)
        comb = scheduler.run(workload, batch_size=50, use_mmjoin=False)
        assert mm.num_queries == comb.num_queries == 150
        assert mm.average_delay > 0 and comb.average_delay > 0

    def test_engine_comparison_consistency(self):
        relation = bench_dataset("dblp", scale=0.02).sample_tuples(2500, seed=3)
        mmjoin = two_path_join(relation, relation)
        assert mmjoin.result_block == combinatorial_two_path_block(relation, relation)
        assert mmjoin.pairs == two_path_pairs(relation, relation)


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        for symbol in (
            "Relation", "SetFamily", "Catalog", "two_path_join", "star_join",
            "set_similarity_join", "set_containment_join", "MMJoinConfig",
            "BooleanSetIntersection", "BSIBatchScheduler",
        ):
            assert hasattr(repro, symbol), symbol

    def test_docstring_quickstart(self):
        R = Relation.from_pairs([(1, 10), (2, 10), (3, 11)], name="R")
        result = sorted(two_path_join(R, R).pairs)
        assert result == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]

    def test_package_doctest(self):
        import repro

        outcome = doctest.testmod(repro)
        assert outcome.attempted > 0 and outcome.failed == 0, outcome

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2
