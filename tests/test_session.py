"""Unit tests for the serving layer: ArtifactCache, QuerySession, feedback.

The differential harness proves result *correctness*; these tests pin the
serving behaviours down: cache-hit counters, LRU byte budgeting, versioned
invalidation on mutation, memo reuse across similarity thresholds, the
estimated-vs-actual feedback loop, and the batched/async entry points.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest
from strategies import random_relation, skewed_random_relation

from repro.core.config import MMJoinConfig
from repro.data.relation import Relation
from repro.joins.baseline import combinatorial_two_path
from repro.matmul.cost_model import MatMulCostModel
from repro.plan.query import TwoPathQuery
from repro.serve import ArtifactCache, QuerySession
from repro.serve.artifacts import token_mentions


# --------------------------------------------------------------------------- #
# ArtifactCache
# --------------------------------------------------------------------------- #
class TestArtifactCache:
    def test_lookup_counts_hits_and_misses(self):
        cache = ArtifactCache()
        found, _ = cache.lookup("a")
        assert not found and cache.misses == 1
        cache.put("a", 42, nbytes=8)
        found, value = cache.lookup("a")
        assert found and value == 42 and cache.hits == 1

    def test_lru_eviction_respects_byte_budget(self):
        cache = ArtifactCache(max_bytes=100)
        cache.put("a", "A", nbytes=40)
        cache.put("b", "B", nbytes=40)
        cache.lookup("a")  # refresh a: b becomes the LRU entry
        cache.put("c", "C", nbytes=40)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert cache.current_bytes <= 100

    def test_oversized_entry_refused(self):
        cache = ArtifactCache(max_bytes=10)
        cache.put("big", "X", nbytes=1000)
        assert "big" not in cache and len(cache) == 0

    def test_replace_updates_bytes(self):
        cache = ArtifactCache(max_bytes=100)
        cache.put("a", "A", nbytes=60)
        cache.put("a", "A2", nbytes=10)
        assert cache.current_bytes == 10

    def test_oversized_replace_drops_stale_entry(self):
        # Regression: the oversized refusal used to happen *before* the old
        # entry under the key was popped, so a replace with a too-large
        # rebuilt artifact left the stale old value serving hits.
        cache = ArtifactCache(max_bytes=100)
        cache.put("a", "old", nbytes=40)
        cache.put("a", "rebuilt-too-big", nbytes=1000)
        assert "a" not in cache
        found, value = cache.lookup("a")
        assert not found and value is None
        assert cache.current_bytes == 0

    def test_invalidate_relation_matches_nested_tokens(self):
        cache = ArtifactCache()
        base = ("rel", "R", 0)
        derived = ("drv", "semijoin", (base, ("rel", "S", 1)), False, 0)
        cache.put(("semijoin", (base,)), 1, 8)
        cache.put(("partition", (derived,)), 2, 8)
        cache.put(("semijoin", (("rel", "S", 0),)), 3, 8)
        assert token_mentions(derived, "R") and not token_mentions(derived, "Q")
        dropped = cache.invalidate_relation("R")
        assert dropped == 2
        assert ("semijoin", (("rel", "S", 0),)) in cache


# --------------------------------------------------------------------------- #
# QuerySession serving behaviours
# --------------------------------------------------------------------------- #
@pytest.fixture
def session_inputs():
    left = skewed_random_relation(21, n_pairs=400, x_domain=60, y_domain=40, name="R")
    right = skewed_random_relation(22, n_pairs=400, x_domain=60, y_domain=40, name="S")
    return left, right


class TestQuerySession:
    def test_warm_run_skips_layout_and_operand_construction(self, session_inputs):
        """The acceptance property: warm explain() shows cache hits everywhere."""
        left, right = session_inputs
        config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
        with QuerySession(config=config) as session:
            session.register(left)
            session.register(right)
            cold = session.two_path("R", "S", use_memo=False)
            warm = session.two_path("R", "S", use_memo=False)
        cold_caches = {op.operator: op.detail.get("cache")
                       for op in cold.explanation.operators}
        warm_caches = {op.operator: op.detail.get("cache")
                       for op in warm.explanation.operators}
        assert cold_caches["semijoin_reduce"] == "miss"
        assert warm_caches["semijoin_reduce"] == "hit"
        assert warm_caches["light_heavy_partition"] == "hit"
        assert warm_caches["matmul_heavy"] == "hit"
        assert warm.explanation.session_stats["operator_cache_hits"] == 3
        # Cached operands report zero build time: construction was skipped.
        heavy = next(op for op in warm.explanation.operators
                     if op.operator == "matmul_heavy")
        assert heavy.detail["build_seconds"] == 0.0

    def test_memo_short_circuits_and_reports(self, session_inputs):
        left, right = session_inputs
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left)
            session.register(right)
            first = session.two_path("R", "S")
            second = session.two_path("R", "S")
            assert not first.from_memo and second.from_memo
            assert second.pairs == first.pairs
            assert "memo" in second.explain().splitlines()[0]
            assert session.memo.stats()["hits"] == 1

    def test_update_bumps_version_and_invalidates(self, session_inputs):
        left, right = session_inputs
        replacement = random_relation(33, n_pairs=300, x_domain=50,
                                      y_domain=40, name="R")
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left)
            session.register(right)
            assert session.version("R") == 0
            session.two_path("R", "S")
            assert len(session.artifacts) > 0 and len(session.memo) == 1
            session.update("R", replacement)
            assert session.version("R") == 1
            assert session.artifacts.stats()["invalidations"] > 0
            result = session.two_path("R", "S")
            assert not result.from_memo
            assert result.pairs == combinatorial_two_path(replacement, right)

    def test_remove_unregisters(self, session_inputs):
        left, _ = session_inputs
        session = QuerySession()
        session.register(left)
        session.remove("R")
        with pytest.raises(Exception):
            session.relation("R")
        with pytest.raises(KeyError):
            session.update("R", left)

    def test_similarity_threshold_sweep_reuses_memo(self):
        family_rel = skewed_random_relation(5, n_pairs=300, x_domain=40,
                                            y_domain=30, name="F")
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            from repro.data.setfamily import SetFamily

            from repro.setops.ssj import ssj_bruteforce

            family = SetFamily.from_relation(family_rel)
            session.register_family(family, name="F")
            r2 = session.similarity("F", c=2)
            assert session.memo.stats()["hits"] == 0
            r3 = session.similarity("F", c=3)  # same counting join, memo hit
            assert session.memo.stats()["hits"] == 1
            assert r2.pairs == ssj_bruteforce(family, c=2).pairs
            assert r3.pairs == ssj_bruteforce(family, c=3).pairs

    def test_feedback_calibrates_cost_model(self, session_inputs):
        left, right = session_inputs
        model = MatMulCostModel()
        assert not model.is_calibrated
        with QuerySession(config=MMJoinConfig(delta1=1, delta2=1),
                          cost_model=model) as session:
            session.register(left)
            session.register(right)
            session.two_path("R", "S", use_memo=False)
        assert session.feedback.observations >= 1
        assert model.is_calibrated  # measured product entered the table
        summary = session.feedback.summary()
        assert any(row["operator"] == "matmul_heavy" for row in summary)

    def test_feedback_disabled_leaves_model_untouched(self, session_inputs):
        left, right = session_inputs
        model = MatMulCostModel()
        with QuerySession(config=MMJoinConfig(delta1=1, delta2=1),
                          cost_model=model, feedback=False) as session:
            session.register(left)
            session.register(right)
            session.two_path("R", "S")
        assert not model.is_calibrated
        assert session.feedback.observations == 0

    def test_memo_byte_budget_evicts(self, session_inputs):
        left, right = session_inputs
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          memo_bytes=1) as session:
            session.register(left)
            session.register(right)
            session.two_path("R", "S")
            # The only entry exceeded the budget, so nothing was admitted.
            assert len(session.memo) == 0
            repeat = session.two_path("R", "S")
            assert not repeat.from_memo

    def test_anonymous_relations_still_cache(self, session_inputs):
        """Ad-hoc queries auto-register, so repeats hit the caches too."""
        left, right = session_inputs
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            query = TwoPathQuery(left=left, right=right)
            first = session.evaluate(query)
            second = session.evaluate(query)
        assert second.from_memo
        assert first.pairs == second.pairs

    def test_closed_session_is_not_cyclic_garbage(self, session_inputs):
        """Refcounting alone frees a closed session (no full collection needed)."""
        left, right = session_inputs
        gc.collect()
        gc.disable()
        try:
            session = QuerySession()
            session.register(left)
            session.register(right)
            result = session.two_path("R", "S")
            assert len(result.pairs) > 0
            session.close()
            assert session.cache_stats()["queries_served"] == 1  # stats outlive close
            ref = weakref.ref(session)
            del session, result
            assert ref() is None
        finally:
            gc.enable()

    def test_cost_model_observe_blends(self):
        model = MatMulCostModel()
        model.observe(64, 64, 64, cores=1, seconds=1.0)
        first = model.table()[64]
        model.observe(64, 64, 64, cores=1, seconds=3.0)
        blended = model.table()[64]
        assert first == pytest.approx(1.0)
        assert blended == pytest.approx(2.0)  # EMA with default blend=0.5
        model.observe(0, 64, 64, seconds=1.0)  # degenerate dims ignored
        assert set(model.table()) == {64}


# --------------------------------------------------------------------------- #
# Semijoin pass-through: inputs with no dangling tuple are not copied
# --------------------------------------------------------------------------- #
def _sparse_pair():
    """A combinatorial-plan input: ``S`` has exactly ``R``'s y values, ``D``
    adds y values ``R`` lacks and lacks some ``R`` has (both sides dangle)."""
    left = random_relation(51, n_pairs=300, x_domain=400, y_domain=200, name="R")
    xs, ys = left.xs[::-1].copy(), left.ys.copy()
    same = Relation.from_arrays(xs, ys, name="S")
    keep = ys % 7 != 0
    dangling = Relation.from_arrays(
        list(xs[keep]) + [1, 2, 3], list(ys[keep]) + [10_001, 10_002, 10_003], name="D")
    return left, same, dangling


def _semijoin_output(session, relations):
    """The semijoin artifact cached for ``relations`` (by their current tokens)."""
    found, reduced = session.artifacts.lookup(
        session.context.key("semijoin", relations, False))
    assert found
    return reduced


class TestSemijoinPassThrough:
    def test_self_join_gets_its_input_back(self):
        left, _, _ = _sparse_pair()
        with QuerySession() as session:
            session.register(left)
            token = session.context.token_for(left)
            result = session.two_path("R")
            assert result.explanation.strategy == "wcoj"
            reduced = _semijoin_output(session, [left, left])
            assert reduced[0] is left and reduced[1] is left
            assert session.context.token_for(left) == token
            # Nothing was copied, so nothing is charged to the artifact cache.
            assert session.artifacts.current_bytes == 0
        assert result.pairs == combinatorial_two_path(left, left)

    def test_non_dangling_pair_gets_its_inputs_back(self):
        left, same, _ = _sparse_pair()
        with QuerySession() as session:
            session.register(left)
            session.register(same)
            tokens = session.context.tokens_for([left, same])
            result = session.two_path("R", "S")
            reduced = _semijoin_output(session, [left, same])
            assert reduced[0] is left and reduced[1] is same
            assert session.context.tokens_for([left, same]) == tokens
            assert session.artifacts.current_bytes == 0
        assert result.pairs == combinatorial_two_path(left, same)

    def test_dangling_pair_gets_reduced_copies(self):
        left, _, dangling = _sparse_pair()
        with QuerySession() as session:
            session.register(left)
            session.register(dangling)
            result = session.two_path("R", "D")
            reduced = _semijoin_output(session, [left, dangling])
            assert reduced[0] is not left and reduced[1] is not dangling
            assert len(reduced[0]) < len(left) and len(reduced[1]) < len(dangling)
            assert all(session.context.token_for(rel)[0] == "drv" for rel in reduced)
            assert session.context.token_for(left) == ("rel", "R", 0)
            assert session.artifacts.current_bytes == sum(r.data.nbytes for r in reduced)
        assert result.pairs == combinatorial_two_path(left, dangling)

    def test_warm_repeat_hits_the_semijoin_cache(self):
        left, same, _ = _sparse_pair()
        with QuerySession() as session:
            session.register(left)
            session.register(same)
            cold = session.two_path("R", "S", use_memo=False)
            warm = session.two_path("R", "S", use_memo=False)
        caches = [{op.operator: op.detail.get("cache") for op in run.explanation.operators}
                  for run in (cold, warm)]
        assert caches[0]["semijoin_reduce"] == "miss"
        assert caches[1]["semijoin_reduce"] == "hit"
        assert "cache = hit" in warm.explain()
        assert warm.pairs == cold.pairs

    @pytest.mark.parametrize("write", ["append", "delete"])
    def test_writes_invalidate_a_passed_through_input(self, write):
        left, _, _ = _sparse_pair()
        with QuerySession() as session:
            session.register(left)
            old_key = session.context.key("semijoin", [left, left], False)
            session.two_path("R")
            rows = [(7, 10_001), (8, 10_001)] if write == "append" else left.pairs()[:40]
            getattr(session, write)("R", rows)
            assert old_key not in session.artifacts
            current = session.relation("R")
            result = session.two_path("R")
            assert not result.from_memo
            assert _semijoin_output(session, [current, current])[0] is current
        assert result.pairs == combinatorial_two_path(current, current)


# --------------------------------------------------------------------------- #
# Batched / async serving
# --------------------------------------------------------------------------- #
class TestBatchAndAsync:
    def test_batch_groups_share_preparation(self, session_inputs):
        left, right = session_inputs
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left)
            session.register(right)
            queries = [
                TwoPathQuery(left=left, right=right),
                TwoPathQuery(left=left, right=right, counting=True),
                TwoPathQuery(left=left, right=right),  # duplicate: memo hit
            ]
            results = session.submit_batch(queries)
            assert len(results) == 3
            expected = combinatorial_two_path(left, right)
            assert results[0].pairs == expected
            assert results[2].pairs == expected
            assert set(results[1].counts) == expected
            # The counting follower shares the leader's semijoin reduction.
            follower_caches = {
                op.operator: op.detail.get("cache")
                for op in results[1].explanation.operators
            }
            assert follower_caches["semijoin_reduce"] == "hit"

    def test_batch_empty(self):
        with QuerySession() as session:
            assert session.submit_batch([]) == []

    def test_batch_with_parallel_light_join_does_not_deadlock(self, session_inputs):
        """Regression: followers must not fan out on the operator pools.

        With ``cores=2``, each follower's light join borrows the session's
        persistent operator executor; if the batch fan-out shared that pool,
        every worker would block waiting on inner tasks that can never be
        scheduled.  High thresholds keep the light partition non-empty so
        the inner ``map`` genuinely runs.
        """
        left, right = session_inputs
        config = MMJoinConfig(delta1=500, delta2=500, cores=2)
        with QuerySession(config=config) as session:
            session.register(left)
            session.register(right)
            queries = [TwoPathQuery(left=left, right=right)] * 4
            results = session.submit_batch(queries, use_memo=False)
        expected = combinatorial_two_path(left, right)
        assert all(r.pairs == expected for r in results)

    def test_anonymous_registrations_are_bounded(self):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.max_anon_relations = 4
            for seed in range(10):
                rel = random_relation(seed, n_pairs=60, x_domain=10, y_domain=8)
                session.evaluate(TwoPathQuery(left=rel, right=rel), use_memo=False)
            assert len(session.names()) <= 4

    def test_asubmit_serves_from_event_loop(self, session_inputs):
        left, right = session_inputs

        async def serve():
            with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
                session.register(left)
                session.register(right)
                first, second = await asyncio.gather(
                    session.asubmit(TwoPathQuery(left=left, right=right)),
                    session.asubmit(TwoPathQuery(left=left, right=right, counting=True)),
                )
                return first, second

        first, second = asyncio.run(serve())
        expected = combinatorial_two_path(left, right)
        assert first.pairs == expected
        assert set(second.counts) == expected
