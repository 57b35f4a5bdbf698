"""Unit tests for the shard package: spec, containers, router, rollup.

The differential harness proves sharded *results* correct; these tests pin
the mechanics down: deterministic key placement, heavy-key isolation,
partition round-trips, shard-local update validation, and the router's
fallback conditions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import pair_lists, skewed_random_relation

from repro.core.estimation import detect_heavy_join_keys
from repro.data.relation import Relation
from repro.serve.artifacts import (
    ArtifactCache,
    token_mentions,
    token_mentions_any_shard,
    token_mentions_write,
)
from repro.shard.sharded import ShardedRelation
from repro.shard.spec import ShardingSpec


# --------------------------------------------------------------------------- #
# ShardingSpec
# --------------------------------------------------------------------------- #
class TestShardingSpec:
    def test_assignment_is_deterministic_and_in_range(self):
        spec = ShardingSpec(4, heavy_keys=[7, 100])
        keys = np.arange(-50, 200, dtype=np.int64)
        owners = spec.shard_of_keys(keys)
        assert np.array_equal(owners, spec.shard_of_keys(keys))
        assert owners.min() >= 0 and owners.max() < spec.num_shards

    def test_heavy_keys_get_dedicated_shards(self):
        spec = ShardingSpec(3, heavy_keys=[9, 2])
        assert spec.num_shards == 5
        # heavy_keys are stored sorted; shard ids follow that order
        assert spec.shard_of(2) == 3 and spec.shard_of(9) == 4
        assert spec.kind(3) == "heavy" and spec.heavy_key_of(4) == 9
        assert spec.kind(0) == "hash"
        with pytest.raises(ValueError):
            spec.heavy_key_of(0)

    def test_hash_spread_covers_multiple_shards(self):
        spec = ShardingSpec(8)
        owners = spec.shard_of_keys(np.arange(1000, dtype=np.int64))
        assert len(np.unique(owners)) == 8

    def test_single_shard_spec(self):
        spec = ShardingSpec(1)
        owners = spec.shard_of_keys(np.arange(100, dtype=np.int64))
        assert (owners == 0).all() and spec.num_shards == 1

    def test_equality(self):
        assert ShardingSpec(3, [5]) == ShardingSpec(3, [5])
        assert ShardingSpec(3, [5]) != ShardingSpec(3, [6])
        assert ShardingSpec(3, [5]) != ShardingSpec(4, [5])

    def test_describe_rows(self):
        rows = ShardingSpec(2, heavy_keys=[11]).describe()
        assert [row["kind"] for row in rows] == ["hash", "hash", "heavy"]
        assert rows[2]["heavy_key"] == 11

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(ValueError):
            ShardingSpec(2).kind(2)


# --------------------------------------------------------------------------- #
# Heavy-key detection (degree statistics)
# --------------------------------------------------------------------------- #
class TestDetectHeavyJoinKeys:
    def test_hot_witness_detected(self):
        rel = Relation.from_pairs(
            [(x, 0) for x in range(60)] + [(x, 1 + x % 10) for x in range(40)]
        )
        heavy = detect_heavy_join_keys(rel, shards=4)
        assert 0 in heavy and heavy[0] == 60
        assert all(key == 0 for key in heavy)

    def test_uniform_relation_has_no_heavy_keys(self):
        rel = Relation.from_pairs([(x, x % 20) for x in range(100)])
        assert detect_heavy_join_keys(rel, shards=4) == {}

    def test_cap_keeps_highest_degree_keys(self):
        pairs = []
        for y, fanout in enumerate((50, 40, 30, 20)):
            pairs += [(x, y) for x in range(fanout)]
        rel = Relation.from_pairs(pairs)
        heavy = detect_heavy_join_keys(rel, shards=2, balance_factor=0.1, max_heavy=2)
        assert set(heavy) == {0, 1}

    def test_disabled_cases(self):
        rel = Relation.from_pairs([(1, 1)])
        assert detect_heavy_join_keys(rel, shards=1) == {}
        assert detect_heavy_join_keys(Relation.empty(), shards=4) == {}


# --------------------------------------------------------------------------- #
# ShardedRelation
# --------------------------------------------------------------------------- #
class TestShardedRelation:
    def _sharded(self, seed=3, shards=4, heavy=()):
        rel = skewed_random_relation(seed, n_pairs=300, x_domain=30, y_domain=25)
        spec = ShardingSpec(shards, heavy_keys=heavy)
        return rel, ShardedRelation.partition(rel, spec)

    def test_partition_round_trips(self):
        rel, sharded = self._sharded(heavy=(3, 7))
        assert len(sharded) == len(rel)
        assert sharded.combined() == rel
        # shards partition the key space: no witness in two shards
        seen = {}
        for shard, sub in enumerate(sharded.shards):
            for y in np.unique(sub.ys):
                assert seen.setdefault(int(y), shard) == shard

    def test_shards_stay_sorted_and_deduped(self):
        _, sharded = self._sharded()
        for sub in sharded.shards:
            if len(sub):
                assert np.array_equal(sub.data, np.unique(sub.data, axis=0))

    def test_heavy_shard_holds_only_its_key(self):
        rel = Relation.from_pairs([(x, 0) for x in range(50)] +
                                  [(x, x % 7 + 1) for x in range(60)])
        spec = ShardingSpec(3, heavy_keys=[0])
        sharded = ShardedRelation.partition(rel, spec)
        heavy = sharded.shard(3)
        assert len(heavy) == 50 and set(heavy.ys.tolist()) == {0}
        for sub in sharded.shards[:3]:
            assert 0 not in set(sub.ys.tolist())

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rows=pair_lists(max_size=60))
    def test_partition_union_property(self, rows):
        rel = Relation.from_pairs(rows)
        spec = ShardingSpec(5, heavy_keys=[2])
        sharded = ShardedRelation.partition(rel, spec)
        assert sharded.combined() == rel

    def test_replace_shard_validates_ownership(self):
        rel, sharded = self._sharded()
        target = int(np.argmax(sharded.sizes()))
        other = (target + 1) % sharded.num_shards
        foreign = sharded.shard(other)
        if len(foreign):
            with pytest.raises(ValueError):
                sharded.replace_shard(target, foreign)

    def test_replace_shard_refreshes_combined(self):
        rel, sharded = self._sharded()
        before = sharded.combined()
        target = int(np.argmax(sharded.sizes()))
        kept = sharded.shard(target).data[::2]
        sharded.replace_shard(target, Relation(np.array(kept), sorted_dedup=True))
        combined = sharded.combined()
        assert combined is not before
        assert len(sharded.shard(target)) == len(kept)
        assert len(combined) == sum(sharded.sizes())
        # combined data stays sorted lexicographically (the Relation contract)
        data = combined.data
        if len(data) > 1:
            order = np.lexsort((data[:, 1], data[:, 0]))
            assert np.array_equal(data, data[order])

    def test_mismatched_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedRelation(ShardingSpec(3), [Relation.empty()], name="R")


# --------------------------------------------------------------------------- #
# Shard-aware cache tokens
# --------------------------------------------------------------------------- #
class TestShardTokens:
    BASE = ("rel", "R", 4)
    SHARD = ("shard", "R", 2, 1)
    SIBLING = ("shard", "R", 3, 0)
    OTHER = ("shard", "S", 2, 0)

    def test_token_mentions_covers_shard_leaves(self):
        derived = ("drv", "semijoin", (self.SHARD, self.OTHER), False, 0)
        assert token_mentions(derived, "R") and token_mentions(derived, "S")
        assert not token_mentions(derived, "Q")

    def test_shard_update_predicate_spares_siblings(self):
        # update_shard is a write touching one shard: same predicate.
        assert token_mentions_write(self.BASE, "R", {2})
        assert token_mentions_write(self.SHARD, "R", {2})
        assert not token_mentions_write(self.SIBLING, "R", {2})
        assert not token_mentions_write(self.OTHER, "R", {2})
        nested = ("partition", (("drv", "x", (self.SIBLING,), None, 0),))
        assert not token_mentions_write(nested, "R", {2})
        assert token_mentions_write(nested, "R", {2, 3})

    def test_any_shard_predicate_ignores_base(self):
        assert token_mentions_any_shard(self.SHARD, "R")
        assert not token_mentions_any_shard(self.BASE, "R")
        assert not token_mentions_any_shard(self.OTHER, "R")

    def test_cache_invalidate_shard(self):
        cache = ArtifactCache()
        cache.put(("semijoin", (self.SHARD, self.OTHER)), 1, 8)
        cache.put(("semijoin", (self.SIBLING, self.OTHER)), 2, 8)
        cache.put(("memo", (self.BASE,)), 3, 8)
        dropped = cache.invalidate_write("R", {2})
        assert dropped == 2
        assert ("semijoin", (self.SIBLING, self.OTHER)) in cache

    def test_cache_invalidate_shards(self):
        cache = ArtifactCache()
        cache.put(("semijoin", (self.SHARD,)), 1, 8)
        cache.put(("memo", (self.BASE,)), 2, 8)
        assert cache.invalidate_shards("R") == 1
        assert ("memo", (self.BASE,)) in cache
