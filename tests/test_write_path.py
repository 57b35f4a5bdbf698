"""Streaming write path: append/delete deltas routed to owning shards.

Covers the tentpole behaviours — hash-routed delta application under the
frozen spec, lazy write absorption (pending delta blocks that fold on read
or when the threshold trips), and the post-write read that re-runs exactly
the touched shards' subplans while siblings re-serve their cached blocks
(one invalidation for append, delete and ``update_shard``, which strands no
retired generation in either cache) — plus the hardened write edges (empty
deltas, strict vs idempotent deletes, unsharded fallbacks) and
pickle/deepcopy/process-pool round-trips of the lazy combined view.
"""

from __future__ import annotations

import copy
import gc
import multiprocessing
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from oracle import two_path_counts, two_path_pairs
from strategies import skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.data.relation import Relation
from repro.serve import QuerySession
from repro.shard.sharded import LazyCombinedRelation, ShardedRelation
from repro.shard.spec import ShardingSpec

CONFIG = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")


@pytest.fixture
def write_inputs():
    left = skewed_random_relation(41, n_pairs=500, x_domain=60, y_domain=40, name="R")
    right = skewed_random_relation(42, n_pairs=500, x_domain=60, y_domain=40, name="S")
    return left, right


def _session(left, right, shards=4, lazy_merge_rows=0, config=CONFIG):
    session = QuerySession(config=config, shards=shards,
                           lazy_merge_rows=lazy_merge_rows)
    session.register(left, name="R", sharded=True)
    session.register(right, name="S", sharded=True)
    return session


def _pairs(relation):
    return set(map(tuple, np.asarray(relation.data).tolist()))


def _rows_for_shard(session, name, shard, count, start_x=10_000):
    """``count`` fresh rows whose join keys all hash to ``shard``."""
    spec = session.sharding_spec
    candidates = np.arange(2_000, 12_000, dtype=np.int64)
    keys = candidates[spec.shard_of_keys(candidates) == shard]
    assert keys.size, f"no probe key found for shard {shard}"
    return [(start_x + i, int(keys[i % keys.size])) for i in range(count)]


# --------------------------------------------------------------------------- #
# Delta routing
# --------------------------------------------------------------------------- #
class TestDeltaRouting:
    def test_append_routes_rows_to_owning_shards(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            delta = [(1_000 + i, 2_000 + i) for i in range(25)]
            session.append("R", delta)
            container = session.sharded("R")
            spec = container.spec
            for shard in range(container.num_shards):
                stored = container.shard(shard)
                if len(stored) == 0:
                    continue
                owners = spec.shard_of_keys(np.asarray(stored.data)[:, 1])
                assert bool((owners == shard).all())
            assert _pairs(session.relation("R")) == _pairs(left) | set(delta)

    def test_append_leaves_untouched_shard_objects_alone(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            container = session.sharded("R")
            before = list(container.shards)
            delta = _rows_for_shard(session, "R", 0, 3)
            session.append("R", delta)
            after = session.sharded("R").shards
            # Only shard 0 got a fresh object; siblings are identical.
            assert after[0] is not before[0]
            for shard in range(1, container.num_shards):
                assert after[shard] is before[shard]

    def test_append_matches_recompute(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            delta = [(900 + i, i % 40) for i in range(30)]
            session.append("R", delta)
            merged = Relation.from_pairs(sorted(_pairs(left) | set(delta)), name="R")
            assert (session.two_path("R", "S", use_memo=False).pairs
                    == two_path_pairs(merged, right))
            counts = session.two_path("R", "S", counting=True, use_memo=False)
            assert counts.counts == two_path_counts(merged, right)

    def test_delete_matches_recompute(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            doomed = sorted(_pairs(left))[::5]
            session.delete("R", doomed)
            remaining = Relation.from_pairs(
                sorted(_pairs(left) - set(doomed)), name="R")
            assert (session.two_path("R", "S", use_memo=False).pairs
                    == two_path_pairs(remaining, right))

    def test_apply_delta_rejects_foreign_keys_and_bad_op(self, write_inputs):
        left, _ = write_inputs
        with _session(left, left) as session:
            container = session.sharded("R")
            rows = np.array(_rows_for_shard(session, "R", 0, 2), dtype=np.int64)
            wrong = (int(container.spec.shard_of_keys(rows[:1, 1])[0]) + 1) \
                % container.num_shards
            with pytest.raises(ValueError, match="owned by other shards"):
                container.apply_delta(wrong, rows, "+")
            with pytest.raises(ValueError, match="unknown delta op"):
                container.apply_delta(0, rows, "*")

    def test_append_accepts_relation_and_array(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            as_rel = Relation.from_pairs([(5_000, 1), (5_001, 2)], name="d")
            as_arr = np.array([[5_002, 3], [5_003, 4]], dtype=np.int64)
            session.append("R", as_rel)
            session.append("R", as_arr)
            got = _pairs(session.relation("R"))
            assert {(5_000, 1), (5_001, 2), (5_002, 3), (5_003, 4)} <= got


# --------------------------------------------------------------------------- #
# Lazy write absorption
# --------------------------------------------------------------------------- #
class TestLazyAbsorption:
    def test_small_writes_buffer_until_read(self, write_inputs):
        left, right = write_inputs
        with _session(left, right, lazy_merge_rows=100) as session:
            delta = _rows_for_shard(session, "R", 0, 4)
            session.append("R", delta[:2])
            session.append("R", delta[2:])
            stored = session.sharded("R").shard(0)
            assert isinstance(stored, LazyCombinedRelation)
            assert not stored.materialized
            assert stored.pending_rows == 4
            # The read folds the pending deltas and serves the merged rows.
            result = session.two_path("R", "S", use_memo=False)
            assert stored.materialized
            merged = Relation.from_pairs(
                sorted(_pairs(left) | set(delta)), name="R")
            assert result.pairs == two_path_pairs(merged, right)

    @pytest.mark.parametrize("lazy_merge_rows", [0, 100])
    def test_folded_view_releases_previous_version(self, write_inputs, lazy_merge_rows):
        # A folded view must drop its merged inputs: holding them chained
        # every shard version (with its data and indexes) to the next.
        left, right = write_inputs
        with _session(left, right, lazy_merge_rows=lazy_merge_rows) as session:
            session.two_path("R", "S")
            previous = weakref.ref(session.sharded("R").shard(0))
            session.append("R", _rows_for_shard(session, "R", 0, 3))
            result = session.two_path("R", "S")
            assert session.sharded("R").shard(0).materialized
            gc.collect()
            assert previous() is None
            assert result.pairs == two_path_pairs(session.relation("R"), right)

    def test_concurrent_readers_all_see_the_merged_rows(self):
        # A reader that loses the race to fold a view must not fold it again
        # from the inputs the winner released.
        base = Relation(np.column_stack([np.arange(3000), np.arange(3000) % 37]), name="R")
        readers = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(30):
                view = LazyCombinedRelation(
                    [base], name="R", deltas=[("+", np.array([[10_000 + trial, 1]]))])
                barrier = threading.Barrier(readers)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    seen.append(len(view))

                threads = [threading.Thread(target=read) for _ in range(readers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [len(base) + 1] * readers
        finally:
            sys.setswitchinterval(previous)

    def test_write_racing_a_reader_keeps_the_shard_rows(self, monkeypatch):
        # A reader that folds the shard view between the writer's "still
        # unfolded?" check and its copy of the pending lists would hand the
        # writer two emptied lists.  Open that window on purpose: the
        # writer's check starts a reader and gives it time to fold.
        base = Relation(np.column_stack([np.arange(300), np.arange(300) % 37]), name="R")
        sharded = ShardedRelation.partition(base, ShardingSpec(1))
        view = sharded.apply_delta(0, np.array([[10_000, 1]]), "+", lazy_rows=10)
        writer = threading.current_thread()
        readers = []
        unpatched = LazyCombinedRelation.materialized

        def racing_materialized(self):
            folded = unpatched.fget(self)
            if self is view and threading.current_thread() is writer and not readers:
                readers.append(threading.Thread(target=len, args=(view,)))
                readers[0].start()
                readers[0].join(timeout=0.5)  # waits out the merge lock if held
            return folded

        monkeypatch.setattr(LazyCombinedRelation, "materialized",
                            property(racing_materialized))
        stored = sharded.apply_delta(0, np.array([[20_000, 2]]), "+", lazy_rows=10)
        readers[0].join(timeout=10)
        assert not readers[0].is_alive()
        assert view.materialized
        assert _pairs(stored) == _pairs(base) | {(10_000, 1), (20_000, 2)}

    def test_threshold_trip_folds_eagerly(self, write_inputs):
        left, right = write_inputs
        with _session(left, right, lazy_merge_rows=2) as session:
            delta = _rows_for_shard(session, "R", 0, 3)
            session.append("R", delta)  # 3 pending rows > threshold of 2
            stored = session.sharded("R").shard(0)
            assert stored.materialized
            assert set(delta) <= _pairs(stored)

    def test_combined_view_does_not_force_pending_shards(self, write_inputs):
        left, right = write_inputs
        with _session(left, right, lazy_merge_rows=100) as session:
            session.append("R", _rows_for_shard(session, "R", 0, 3))
            base = session.relation("R")
            stored = session.sharded("R").shard(0)
            assert isinstance(base, LazyCombinedRelation)
            # Building the catalog view must not fold the pending shard;
            # reading the combined data folds both.
            assert not stored.materialized
            assert len(base) == len(left) + 3
            assert stored.materialized


# --------------------------------------------------------------------------- #
# Hardened write edges
# --------------------------------------------------------------------------- #
class TestWriteEdges:
    def test_empty_delta_short_circuits(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            session.two_path("R", "S")
            version = session.version("R")
            invalidations = session.artifacts.stats()["invalidations"]
            session.append("R", [])
            session.delete("R", np.empty((0, 2), dtype=np.int64))
            assert session.version("R") == version
            assert session.artifacts.stats()["invalidations"] == invalidations
            assert session.two_path("R", "S").from_memo

    def test_update_shard_empty_replace_of_empty_shard_short_circuits(self):
        tiny = Relation.from_pairs([(1, 7), (2, 7)], name="R")
        with QuerySession(config=CONFIG, shards=4) as session:
            session.register(tiny, name="R", sharded=True)
            container = session.sharded("R")
            empty = next(s for s in range(container.num_shards)
                         if container.sizes()[s] == 0)
            version = session.version("R")
            session.update_shard("R", empty, [])
            assert session.version("R") == version

    def test_delete_missing_rows_is_idempotent(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            absent = [(10**6, 10**6), (10**6 + 1, 10**6 + 1)]
            session.delete("R", absent)
            assert _pairs(session.relation("R")) == _pairs(left)
            assert (session.two_path("R", "S", use_memo=False).pairs
                    == two_path_pairs(left, right))

    def test_strict_delete_raises_and_mutates_nothing(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            version = session.version("R")
            present = sorted(_pairs(left))[0]
            with pytest.raises(ValueError, match="not present"):
                session.delete("R", [present, (10**6, 10**6)], strict=True)
            assert session.version("R") == version
            assert _pairs(session.relation("R")) == _pairs(left)

    def test_strict_delete_of_present_rows_succeeds(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            doomed = sorted(_pairs(left))[:3]
            session.delete("R", doomed, strict=True)
            assert _pairs(session.relation("R")) == _pairs(left) - set(doomed)

    def test_write_to_unregistered_name_raises(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            with pytest.raises(KeyError):
                session.append("missing", [(1, 2)])
            with pytest.raises(KeyError):
                session.delete("missing", [(1, 2)])


# --------------------------------------------------------------------------- #
# Reads after a write
# --------------------------------------------------------------------------- #
def _assert_only_touched_reran(result, touched):
    """Touched shards went through their subplan; every sibling was cached."""
    rows = {row["shard"]: row for row in result.explanation.shard_reports}
    assert set(touched) <= set(rows)
    for shard, row in rows.items():
        assert row["result_cached"] == (shard not in touched), (shard, row)
    stats = result.explanation.session_stats
    assert stats["shard_results_cached"] == len(rows) - len(touched)


class TestPostWriteRead:
    def test_append_reruns_only_the_touched_shard(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)  # warm the shard blocks
            delta = _rows_for_shard(session, "R", 0, 3)
            session.append("R", delta)
            result = session.two_path("R", "S", use_memo=False)
            merged = Relation.from_pairs(
                sorted(_pairs(left) | set(delta)), name="R")
            assert result.pairs == two_path_pairs(merged, right)
            _assert_only_touched_reran(result, {0})

    def test_two_appends_without_a_read_between(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            first = _rows_for_shard(session, "R", 0, 2)
            second = _rows_for_shard(session, "R", 1, 2, start_x=20_000)
            session.append("R", first)
            session.append("R", second)
            result = session.two_path("R", "S", use_memo=False)
            merged = Relation.from_pairs(
                sorted(_pairs(left) | set(first) | set(second)), name="R")
            assert result.pairs == two_path_pairs(merged, right)
            _assert_only_touched_reran(result, {0, 1})

    def test_delete_reruns_only_the_touched_shards(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", use_memo=False)
            doomed = sorted(_pairs(left))[:5]
            owners = session.sharding_spec.shard_of_keys(
                np.array([y for _, y in doomed], dtype=np.int64))
            session.delete("R", doomed)
            result = session.two_path("R", "S", use_memo=False)
            remaining = Relation.from_pairs(
                sorted(_pairs(left))[5:], name="R")
            assert result.pairs == two_path_pairs(remaining, right)
            _assert_only_touched_reran(result, set(owners.tolist()))

    def test_counting_read_after_append(self, write_inputs):
        left, right = write_inputs
        with _session(left, right) as session:
            session.two_path("R", "S", counting=True, use_memo=False)
            delta = _rows_for_shard(session, "R", 0, 3)
            session.append("R", delta)
            result = session.two_path("R", "S", counting=True, use_memo=False)
            merged = Relation.from_pairs(
                sorted(_pairs(left) | set(delta)), name="R")
            assert result.counts == two_path_counts(merged, right)
            _assert_only_touched_reran(result, {0})

    def test_write_read_cycles_strand_no_generation(self, write_inputs):
        """20 append -> read cycles: both caches stay at their 2nd-cycle size.

        Every cycle retires one generation of the touched shards' artifacts
        and of the memoised result; the write sweeps them, so the caches
        hold one generation however many writes have landed.
        """
        left, right = write_inputs
        with _session(left, right, lazy_merge_rows=4096) as session:
            session.two_path("R", "S")
            appended = set()
            sizes = []
            for cycle in range(20):
                # Join keys inside S's domain, so the result really grows.
                delta = [(30_000 + cycle, (7 * cycle) % 40),
                         (30_000 + cycle, (7 * cycle + 3) % 40)]
                appended.update(delta)
                session.append("R", delta)
                result = session.two_path("R", "S")
                assert not result.from_memo
                sizes.append((session.artifacts.stats(), session.memo.stats(),
                              result.result_block.nbytes))
            merged = Relation.from_pairs(
                sorted(_pairs(left) | appended), name="R")
            assert result.pairs == two_path_pairs(merged, right)
            artifacts_2nd, memo_2nd, result_2nd = sizes[1]
            artifacts, memo, result_bytes = sizes[-1]
            assert memo["entries"] == memo_2nd["entries"] == 1
            assert memo["bytes"] == result_bytes
            assert artifacts["entries"] == artifacts_2nd["entries"]
            # The appended rows' share: the result's growth is held once
            # more as the touched shards' result blocks, and at most as much
            # again by their semijoin / partition / operand artifacts.
            grown = result_bytes - result_2nd
            assert 0 < grown
            assert artifacts["bytes"] <= artifacts_2nd["bytes"] + 2 * grown
            assert artifacts["evictions"] == 0 and memo["evictions"] == 0


# --------------------------------------------------------------------------- #
# Unsharded fallback
# --------------------------------------------------------------------------- #
class TestUnshardedWrites:
    def test_append_and_delete_on_unsharded_name(self, write_inputs):
        left, right = write_inputs
        with QuerySession(config=CONFIG) as session:
            session.register(left, name="R")
            session.register(right, name="S")
            delta = [(7_000 + i, i % 40) for i in range(10)]
            session.append("R", delta)
            assert session.version("R") == 1
            session.delete("R", delta[:5])
            assert session.version("R") == 2
            expected = Relation.from_pairs(
                sorted(_pairs(left) | set(delta[5:])), name="R")
            assert (session.two_path("R", "S", use_memo=False).pairs
                    == two_path_pairs(expected, right))


# --------------------------------------------------------------------------- #
# Lazy combined view: serialization round-trips
# --------------------------------------------------------------------------- #
def _pool_rows(relation):
    """Module-level worker so a process pool can pickle the reference."""
    return sorted(map(tuple, np.asarray(relation.data).tolist()))


def _lazy_with_pending_delta():
    base = Relation.from_pairs([(1, 2), (3, 4)], name="L")
    lazy = LazyCombinedRelation([base], name="L",
                                deltas=[("+", np.array([[5, 6]], dtype=np.int64))])
    assert not lazy.materialized
    return lazy


class TestLazyCombinedSerialization:
    def test_pickle_materialises_first(self):
        lazy = _lazy_with_pending_delta()
        clone = pickle.loads(pickle.dumps(lazy))
        assert type(clone) is Relation
        assert clone.pairs() == [(1, 2), (3, 4), (5, 6)]

    def test_deepcopy_round_trip(self):
        lazy = _lazy_with_pending_delta()
        clone = copy.deepcopy(lazy)
        assert clone.pairs() == [(1, 2), (3, 4), (5, 6)]

    def test_process_pool_round_trip(self):
        lazy = _lazy_with_pending_delta()
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            rows = pool.map(_pool_rows, [lazy])[0]
        assert rows == [(1, 2), (3, 4), (5, 6)]
