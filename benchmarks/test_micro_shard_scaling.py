"""Bench-runner wiring for the shard-scaling microbenchmark.

Runs :mod:`micro_shard_scaling` under the pytest-benchmark harness, formats
the paper-style table (written to ``benchmarks/results/`` only when
recording) and asserts the acceptance bar: after ``update_shard`` on one
shard, re-serving the previously-warm query on the 10^5-tuple skewed
workload takes less than a cold unsharded session, and the per-shard cache
counters prove every sibling shard stayed warm.

The bars are relational on purpose: the re-query (one shard's pipeline plus
the cross-shard dedup-merge of eight sorted 10^4-row blocks) reads
3.9-6.0 ms in-suite on this box, too wide a spread for an absolute bound.
"""

import micro_shard_scaling


def test_micro_shard_scaling_table(benchmark, record_rows, record_json):
    rows = benchmark.pedantic(micro_shard_scaling.run_rows, rounds=1, iterations=1)
    text = record_rows(
        "micro_shard_scaling", rows,
        title="Microbenchmark: shard-count sweep, update-path re-serving",
    )
    print("\n" + text)
    record_json("micro_shard_scaling", micro_shard_scaling.headline_metrics(rows))
    by_shards = {row["shards"]: row for row in rows}
    assert set(by_shards) == set(micro_shard_scaling.SHARD_COUNTS)
    acceptance = by_shards[micro_shard_scaling.ACCEPTANCE_SHARDS]
    assert acceptance["tuples"] >= 200_000, acceptance
    # The update path: one shard recomputes, siblings re-serve from cache.
    assert acceptance["requery_seconds"] < by_shards[1]["cold_seconds"], acceptance
    assert acceptance["siblings_warm"], acceptance
    # Sharding must not change the answer anywhere in the sweep.
    assert len({row["output_pairs"] for row in rows}) == 1


def test_micro_shard_scaling_update_correctness():
    """After update_shard the served pairs match a fresh recomputation."""
    import numpy as np

    from repro.core.config import MMJoinConfig
    from repro.data.relation import Relation
    from repro.joins.baseline import combinatorial_two_path_block
    from repro.serve import QuerySession

    left_raw, right_raw = micro_shard_scaling.raw_arrays()
    left_raw, right_raw = left_raw[:4000], right_raw[:4000]
    config = MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense")
    with QuerySession(config=config, shards=4,
                      heavy_key_factor=micro_shard_scaling.HEAVY_KEY_FACTOR) as session:
        session.register(Relation(np.array(left_raw), name="R"), name="R", sharded=True)
        session.register(Relation(np.array(right_raw), name="S"), name="S", sharded=True)
        session.two_path("R", "S", use_memo=False)
        target = int(np.argmax(session.sharded("R").sizes()[:4]))
        kept = np.array(session.sharded("R").shard(target).data[::2])
        session.update_shard("R", target, kept)
        served = session.two_path("R", "S", use_memo=False)
        assert served.result_block == combinatorial_two_path_block(
            session.relation("R"), session.relation("S")
        )
