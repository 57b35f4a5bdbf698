"""Per-shard result cache, heavy-shard rank-1 skipping, lazy combined view.

The output-sensitive sharded execution layer must be *invisible* except for
speed: skipped heavy sub-blocks never drop pairs, cached shard results
invalidate exactly on ``update_shard`` / re-registration, and the lazy
combined relation defers its packed-key merge without changing any answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import two_path_counts, two_path_pairs
from strategies import random_relation, skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.data.relation import Relation
from repro.plan.planner import Planner
from repro.plan.query import TwoPathQuery
from repro.serve import QuerySession
from repro.shard import ShardRouter, execute_sharded
from repro.shard.sharded import LazyCombinedRelation, ShardedRelation
from repro.shard.spec import ShardingSpec

CONFIG = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")


def _session(left, right, shards=4, heavy_key_factor=0.5, **kwargs):
    session = QuerySession(config=CONFIG, shards=shards,
                           heavy_key_factor=heavy_key_factor, **kwargs)
    session.register(left, name="R", sharded=True)
    session.register(right, name="S", sharded=True)
    return session


def _saturated_core(x_domain=120, hot_keys=(0, 1, 2)):
    """Every hot key connects to the full head domain on both sides."""
    xs = np.arange(x_domain, dtype=np.int64)
    blocks = [np.column_stack([xs, np.full_like(xs, key)]) for key in hot_keys]
    tail = np.column_stack([np.arange(30), np.arange(500, 530)])
    return Relation(np.vstack(blocks + [tail]), name="R")


class TestResultCacheServing:
    def test_warm_query_serves_all_shards_from_cache(self):
        left = skewed_random_relation(41, n_pairs=400, x_domain=50, y_domain=30, name="R")
        right = skewed_random_relation(42, n_pairs=400, x_domain=50, y_domain=30, name="S")
        expected = two_path_pairs(left, right)
        with _session(left, right) as session:
            cold = session.two_path("R", "S", use_memo=False)
            assert cold.pairs == expected
            assert not any(row["result_cached"]
                           for row in cold.explanation.shard_reports)
            # use_memo=False means what it says: the finished result is not
            # looked up, so every shard's block comes from the artifact
            # cache and the cross-shard merge runs again.
            warm = session.two_path("R", "S", use_memo=False)
            assert warm.pairs == expected
            assert not warm.from_memo
            # (A heavy shard whose rectangle a sibling partly covers emits a
            # reduced block that is not a function of its own slices alone,
            # so it is re-emitted rank-1 instead of cached.)
            assert all(row["result_cached"] or row["kind"] == "heavy"
                       for row in warm.explanation.shard_reports)
            ran = {op.operator for op in warm.explanation.operators
                   if op.status == "ran"}
            assert {"shard_result_cache", "shard_merge"} <= ran
            assert ran <= {"shard_result_cache", "heavy_shard_rectangle",
                           "shard_merge"}
            # The memo is the one cache of finished results.
            assert not session.two_path("R", "S").from_memo
            memoised = session.two_path("R", "S")
            assert memoised.from_memo and memoised.pairs == expected

    def test_stateless_execution_reverts_to_pipeline(self):
        """``context=None``: nothing is keyable, every subquery re-evaluates."""
        left = random_relation(43, n_pairs=300, x_domain=40, y_domain=25, name="R")
        right = random_relation(44, n_pairs=300, x_domain=40, y_domain=25, name="S")
        expected = two_path_pairs(left, right)
        spec = ShardingSpec(4)
        containers = {
            id(rel): (rel.name, ShardedRelation.partition(rel, spec, name=rel.name))
            for rel in (left, right)
        }
        routed = ShardRouter(lambda rel: containers.get(id(rel))).route(
            TwoPathQuery(left=left, right=right)
        )
        assert routed is not None
        for _ in range(2):  # a second run finds nothing cached either
            result = execute_sharded(
                routed, planner_for=lambda config: Planner(config=config),
                config=CONFIG,
            )
            assert result.result_block.to_set() == expected
            assert not any(row["result_cached"]
                           for row in result.explanation.shard_reports)

    def test_counting_mode_counts_survive_caching(self):
        left = skewed_random_relation(45, n_pairs=350, x_domain=40, y_domain=24, name="R")
        right = skewed_random_relation(46, n_pairs=350, x_domain=40, y_domain=24, name="S")
        expected = two_path_counts(left, right)
        with _session(left, right) as session:
            assert session.two_path("R", "S", counting=True,
                                    use_memo=False).counts == expected
            assert session.two_path("R", "S", counting=True,
                                    use_memo=False).counts == expected


class TestResultCacheInvalidation:
    def test_update_shard_recomputes_exactly_the_touched_shard(self):
        left = random_relation(47, n_pairs=500, x_domain=60, y_domain=40, name="R")
        right = random_relation(48, n_pairs=500, x_domain=60, y_domain=40, name="S")
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            session.two_path("R", "S", use_memo=False)
            hash_shards = session.sharding_spec.hash_shards
            target = int(np.argmax(session.sharded("R").sizes()[:hash_shards]))
            kept = np.array(session.sharded("R").shard(target).data[::2])
            session.update_shard("R", target, kept)
            result = session.two_path("R", "S", use_memo=False)
            rows = {row["shard"]: row for row in result.explanation.shard_reports}
            assert not rows[target]["result_cached"]
            for shard, row in rows.items():
                if shard != target:
                    assert row["result_cached"] or row["strategy"] in (
                        "heavy_direct", "heavy_skipped"), (shard, row)
            assert result.pairs == two_path_pairs(
                session.relation("R"), right
            )

    def test_reregistration_invalidates_every_shard_result(self):
        left = random_relation(49, n_pairs=300, x_domain=40, y_domain=30, name="R")
        right = random_relation(50, n_pairs=300, x_domain=40, y_domain=30, name="S")
        replacement = random_relation(51, n_pairs=300, x_domain=40, y_domain=30, name="R")
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            session.two_path("R", "S", use_memo=False)
            session.register(replacement, name="R", sharded=True)
            fresh = session.two_path("R", "S", use_memo=False)
            assert not any(row["result_cached"]
                           for row in fresh.explanation.shard_reports)
            assert fresh.pairs == two_path_pairs(replacement, right)


class TestHeavyShardSkipping:
    def test_saturated_core_collapses_to_one_rectangle(self):
        rel = _saturated_core()
        expected = two_path_pairs(rel, rel)
        with _session(rel, rel, heavy_key_factor=0.1) as session:
            spec = session.sharding_spec
            assert spec.num_heavy >= 2, "workload must isolate heavy keys"
            cold = session.two_path("R", "S", use_memo=False)
            assert cold.pairs == expected
            strategies = [row["strategy"] for row in
                          cold.explanation.shard_reports if row["kind"] == "heavy"]
            assert strategies.count("heavy_direct") == 1
            assert strategies.count("heavy_skipped") == len(strategies) - 1
            # Skipping must never drop pairs on the warm path either.
            assert session.two_path("R", "S", use_memo=False).pairs == expected

    def test_partial_overlap_never_drops_pairs(self):
        """Heavy rectangles that only partially overlap stay exact."""
        xs_a = np.arange(80, dtype=np.int64)
        xs_b = np.arange(40, 130, dtype=np.int64)  # overlaps [40, 80)
        rel = Relation(np.vstack([
            np.column_stack([xs_a, np.zeros_like(xs_a)]),
            np.column_stack([xs_b, np.ones_like(xs_b)]),
            np.column_stack([np.arange(25), np.arange(300, 325)]),
        ]), name="R")
        expected = two_path_pairs(rel, rel)
        with _session(rel, rel, heavy_key_factor=0.1) as session:
            assert session.sharding_spec.num_heavy >= 2
            for _ in range(3):  # cold, warm, re-warm
                assert session.two_path("R", "S", use_memo=False).pairs == expected
            counted = session.two_path("R", "S", counting=True, use_memo=False)
            assert counted.counts == two_path_counts(rel, rel)

    def test_counting_mode_never_skips(self):
        """Witness counts add across shards, so nothing may be skipped."""
        rel = _saturated_core()
        with _session(rel, rel, heavy_key_factor=0.1) as session:
            counted = session.two_path("R", "S", counting=True, use_memo=False)
            strategies = [row["strategy"] for row in
                          counted.explanation.shard_reports if row["kind"] == "heavy"]
            assert "heavy_skipped" not in strategies
            assert counted.counts == two_path_counts(rel, rel)


class TestLazyCombined:
    def test_update_shard_defers_the_merge(self):
        left = random_relation(52, n_pairs=400, x_domain=50, y_domain=30, name="R")
        right = random_relation(53, n_pairs=400, x_domain=50, y_domain=30, name="S")
        with _session(left, right) as session:
            target = int(np.argmax(
                session.sharded("R").sizes()[: session.sharding_spec.hash_shards]
            ))
            kept = np.array(session.sharded("R").shard(target).data[::2])
            session.update_shard("R", target, kept)
            base = session.relation("R")
            assert isinstance(base, LazyCombinedRelation)
            assert not base.materialized
            # First data access materialises once; the answer is the union.
            total = sum(session.sharded("R").sizes())
            assert len(base) == total
            assert base.materialized

    def test_lazy_view_equals_eager_merge(self):
        rel = random_relation(54, n_pairs=300, x_domain=30, y_domain=20, name="R")
        spec = ShardingSpec(3)
        container = ShardedRelation.partition(rel, spec)
        target = int(np.argmax(container.sizes()))
        container.replace_shard(target, Relation(
            container.shard(target).data[::2], name="part", sorted_dedup=True
        ))
        lazy = container.combined()
        assert isinstance(lazy, LazyCombinedRelation)
        eager = Relation(np.vstack([s.data for s in container.shards if len(s)]),
                         name="R")
        assert np.array_equal(lazy.data, eager.data)
        # Layout accessors work through the lazy view.
        assert set(lazy.y_values().tolist()) == set(eager.y_values().tolist())

    def test_unknown_attribute_still_raises(self):
        lazy = LazyCombinedRelation([], name="empty")
        with pytest.raises(AttributeError):
            lazy.definitely_not_an_attribute
        assert len(lazy) == 0  # empty view materialises to an empty relation
