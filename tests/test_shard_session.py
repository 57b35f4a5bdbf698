"""Serving-layer tests for the sharded execution path.

Covers the shard-scoped invalidation contract — ``update_shard`` leaves
sibling-shard artifacts warm (asserted via cache hit/miss counters),
re-registering a sharded name invalidates *all* shard tokens — plus the
router's fallback behaviour, the per-shard explain rollup, shard statistics
and the parallel shard fan-out.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import star_pairs, two_path_pairs
from strategies import random_relation, skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.data.relation import Relation
from repro.plan.query import StarQuery, TwoPathQuery
from repro.serve import QuerySession

CONFIG = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")


@pytest.fixture
def sharded_inputs():
    left = skewed_random_relation(31, n_pairs=500, x_domain=60, y_domain=40, name="R")
    right = skewed_random_relation(32, n_pairs=500, x_domain=60, y_domain=40, name="S")
    return left, right


def _session(left, right, shards=4, config=CONFIG):
    session = QuerySession(config=config, shards=shards)
    session.register(left, name="R", sharded=True)
    session.register(right, name="S", sharded=True)
    return session


def _shard_cache_rows(result):
    return {row["shard"]: row for row in result.explanation.shard_reports}


def _busiest_hash_shard(session, name):
    container = session.sharded(name)
    hash_shards = session.sharding_spec.hash_shards
    return int(np.argmax(container.sizes()[:hash_shards]))


class TestShardedServing:
    def test_sharded_matches_unsharded(self, sharded_inputs):
        left, right = sharded_inputs
        expected = two_path_pairs(left, right)
        with _session(left, right) as session:
            result = session.two_path("R", "S", use_memo=False)
            assert result.strategy == "sharded"
            assert result.pairs == expected
            stats = result.explanation.session_stats
            assert stats["shards_planned"] == session.sharding_spec.num_shards
            assert stats["shards_executed"] + stats["shards_skipped_empty"] == \
                stats["shards_planned"]

    def test_warm_run_hits_every_shard(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            warm = session.two_path("R", "S", use_memo=False)
        assert warm.explanation.session_stats["operator_cache_misses"] == 0
        # Every shard either re-serves its cached result block or is a
        # rank-1 heavy shard: those re-emit output-sensitively (a partially
        # containment-reduced emission depends on sibling rectangles, so it
        # is deliberately never cached) or prove emptiness outright.
        assert all(
            row["result_cached"] or row["strategy"] in ("heavy_direct",
                                                        "heavy_skipped")
            for row in warm.explanation.shard_reports
        )
        assert all(row["cache_misses"] == 0
                   for row in warm.explanation.shard_reports)

    def test_heavy_keys_isolated_into_dedicated_shards(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            spec = session.sharding_spec
            assert spec.num_heavy >= 1  # the skewed generators plant hot witnesses
            container = session.sharded("R")
            for shard in range(spec.hash_shards, spec.num_shards):
                key = spec.heavy_key_of(shard)
                sub = container.shard(shard)
                assert set(sub.ys.tolist()) <= {key}

    def test_explain_contains_shard_breakdown(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            text = session.two_path("R", "S", use_memo=False).explain()
        assert "cache h/m" in text and "shard_merge" in text
        assert "shards_executed" in text


class TestShardScopedInvalidation:
    def test_update_shard_leaves_siblings_warm(self, sharded_inputs):
        """The acceptance property: one shard misses, every sibling hits."""
        left, right = sharded_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            warm = session.two_path("R", "S", use_memo=False)
            assert warm.explanation.session_stats["operator_cache_misses"] == 0
            target = _busiest_hash_shard(session, "R")
            new_rows = session.sharded("R").shard(target).data[::2]
            session.update_shard("R", target, new_rows)
            result = session.two_path("R", "S", use_memo=False)
            rows = _shard_cache_rows(result)
            assert rows[target]["cache_misses"] > 0
            for shard, row in rows.items():
                if shard != target:
                    assert row["cache_misses"] == 0, (shard, row)
                    # Siblings re-serve their cached result block, or are
                    # rank-1 heavy shards re-emitting output-sensitively.
                    assert row["result_cached"] or row["strategy"] in (
                        "heavy_direct", "heavy_skipped"), (shard, row)
            # the served result reflects the mutation exactly
            assert result.pairs == two_path_pairs(
                session.relation("R"), right
            )
            # cumulative counters prove the same through session_stats
            per_shard = session.shard_stats()["per_shard"]
            for shard, counters in per_shard.items():
                if shard != target and counters["queries"] == 3:
                    assert counters["cache_misses"] <= rows[target]["cache_misses"]

    def test_update_shard_invalidates_memo(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            session.two_path("R", "S")
            assert session.two_path("R", "S").from_memo
            target = _busiest_hash_shard(session, "R")
            session.update_shard("R", target,
                                 session.sharded("R").shard(target).data[::2])
            fresh = session.two_path("R", "S")
            assert not fresh.from_memo
            assert fresh.pairs == two_path_pairs(session.relation("R"), right)

    def test_update_shard_bumps_version_and_family(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            version = session.version("R")
            target = _busiest_hash_shard(session, "R")
            session.update_shard("R", target,
                                 session.sharded("R").shard(target).data[::2])
            assert session.version("R") == version + 1
            # the base relation view reflects the mutation
            assert len(session.relation("R")) == len(session.sharded("R"))

    def test_update_shard_rejects_foreign_keys(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            spec = session.sharding_spec
            target = _busiest_hash_shard(session, "R")
            other = (target + 1) % spec.hash_shards
            foreign = session.sharded("R").shard(other)
            if len(foreign) == 0:
                pytest.skip("sibling shard empty for this seed")
            with pytest.raises(ValueError):
                session.update_shard("R", target, foreign)

    def test_update_shard_requires_sharded_name(self, sharded_inputs):
        left, right = sharded_inputs
        with QuerySession(config=CONFIG, shards=4) as session:
            session.register(left, name="R")  # not sharded
            with pytest.raises(KeyError):
                session.update_shard("R", 0, left)
            with pytest.raises(KeyError):
                session.update_shard("missing", 0, left)

    def test_update_shard_rejects_out_of_range(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            with pytest.raises(ValueError):
                session.update_shard("R", session.sharding_spec.num_shards, left)

    def test_reregister_invalidates_every_shard_token(self, sharded_inputs):
        """Re-registering a sharded name must cold-start all shards."""
        left, right = sharded_inputs
        replacement = skewed_random_relation(33, n_pairs=500, x_domain=60,
                                             y_domain=40, name="R")
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            session.two_path("R", "S", use_memo=False)
            session.register(replacement, name="R", sharded=True)
            result = session.two_path("R", "S", use_memo=False)
            for row in result.explanation.shard_reports:
                assert row["cache_hits"] == 0, row
            assert result.pairs == two_path_pairs(
                session.relation("R"), right
            )

    def test_plain_update_preserves_shardedness(self, sharded_inputs):
        left, right = sharded_inputs
        replacement = random_relation(34, n_pairs=400, x_domain=50, y_domain=40)
        with _session(left, right) as session:
            session.update("R", replacement)
            assert "R" in session.shard_stats()["relations"]
            result = session.two_path("R", "S", use_memo=False)
            assert result.strategy == "sharded"
            assert result.pairs == two_path_pairs(replacement, right)

    def test_remove_drops_sharding(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            session.remove("R")
            with pytest.raises(KeyError):
                session.sharded("R")

    def test_respec_unbinds_stale_shard_tokens(self):
        """Spec-changing registrations must not pin old shard generations.

        Every registration below plants a new heavy-hitter key, changing the
        frozen spec and re-partitioning all siblings; the context must only
        keep the *current* generation of shard bindings per relation.
        """
        with QuerySession(config=CONFIG, shards=4) as session:
            for seed in range(6):
                hot = [(x, 1000 + seed) for x in range(80)]
                rel = Relation(
                    np.array(random_relation(seed, n_pairs=120, x_domain=20,
                                             y_domain=12).data.tolist() + hot),
                    name=f"R{seed}",
                )
                session.register(rel, name=f"R{seed}", sharded=True)
            for name, container in session._sharded.items():
                bound = sum(
                    1 for token, _ in session.context._tokens.values()
                    if token[0] == "shard" and token[1] == name
                )
                assert bound == container.num_shards, (name, bound)


class TestRouterFallbacks:
    def test_unsharded_relation_falls_back(self, sharded_inputs):
        left, right = sharded_inputs
        with QuerySession(config=CONFIG, shards=4) as session:
            session.register(left, name="R", sharded=True)
            session.register(right, name="S")  # unsharded
            result = session.two_path("R", "S", use_memo=False)
            assert result.strategy != "sharded"
            assert result.pairs == two_path_pairs(left, right)
            assert session.shard_stats()["router"]["fallbacks"] >= 1

    def test_single_shard_session_falls_back(self, sharded_inputs):
        left, right = sharded_inputs
        with QuerySession(config=CONFIG, shards=1) as session:
            session.register(left, name="R", sharded=True)
            session.register(right, name="S", sharded=True)
            result = session.two_path("R", "S", use_memo=False)
            assert result.strategy != "sharded"
            assert result.pairs == two_path_pairs(left, right)

    def test_adhoc_relation_falls_back(self, sharded_inputs):
        left, right = sharded_inputs
        adhoc = random_relation(35, n_pairs=100, x_domain=20, y_domain=15)
        with _session(left, right) as session:
            result = session.evaluate(TwoPathQuery(left=adhoc, right=adhoc))
            assert result.strategy != "sharded"
            assert result.pairs == two_path_pairs(adhoc, adhoc)

    def test_star_routes_sharded(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            result = session.star(["R", "S", "R"], use_memo=False)
            assert result.strategy == "sharded"
            assert result.pairs == star_pairs([left, right, left])


class TestShardStatsAndParallel:
    def test_shard_stats_shape(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            session.two_path("R", "S", use_memo=False)
            stats = session.shard_stats()
            assert stats["shards"] == session.sharding_spec.num_shards
            assert stats["hash_shards"] == 4
            assert set(stats["relations"]) == {"R", "S"}
            assert stats["relations"]["R"]["tuples"] == len(left)
            assert stats["per_shard"]
            for counters in stats["per_shard"].values():
                assert 0.0 <= counters["hit_rate"] <= 1.0
            assert "shards" in session.cache_stats()

    def test_parallel_fanout_matches_serial(self, sharded_inputs):
        left, right = sharded_inputs
        expected = two_path_pairs(left, right)
        parallel_config = MMJoinConfig(delta1=2, delta2=2,
                                       matrix_backend="dense", cores=3)
        with _session(left, right, shards=6, config=parallel_config) as session:
            for _ in range(2):
                result = session.two_path("R", "S", use_memo=False)
                assert result.pairs == expected

    def test_batched_sharded_queries(self, sharded_inputs):
        left, right = sharded_inputs
        with _session(left, right) as session:
            queries = [
                TwoPathQuery(left=session.relation("R"), right=session.relation("S")),
                TwoPathQuery(left=session.relation("R"), right=session.relation("S"),
                             counting=True),
                StarQuery([session.relation("R"), session.relation("S")]),
            ]
            results = session.submit_batch(queries, use_memo=False)
        assert results[0].pairs == two_path_pairs(left, right)
        assert set(results[1].counts) == two_path_pairs(left, right)
        assert results[2].pairs == star_pairs([left, right])
