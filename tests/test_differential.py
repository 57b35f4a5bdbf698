"""Differential harness against an independent oracle.

Both output-sensitive engines (MMJoin and the combinatorial Non-MMJoin),
every matmul backend, serial and parallel execution, the session-cached vs.
cold paths, and the sharded execution layer (across shard counts and cold /
warm / ``update_shard`` session states) must produce *identical* pair sets
(and witness counts where applicable) on random queries drawn from the
shared strategies.  The oracle is ``tests/oracle.py`` (scipy products and a
plain Python star, no ``repro`` import), so a bug in the key packing or the
dedup cannot agree with itself; the skewed / heavy-hitter generators are the
adversarial case for shard placement.

All properties run derandomized (a fixed hypothesis seed per test), so the
harness is deterministic in CI and a failure reproduces locally verbatim.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from oracle import star_pairs, two_path_counts, two_path_pairs
from strategies import (
    relation_lists,
    relation_pairs,
    relations,
    set_families,
    skewed_pair_lists,
)

from repro.data.relation import Relation

from repro.core.config import MMJoinConfig
from repro.faults import (
    SITE_BACKEND_MATMUL,
    SITE_EXTRACT_ALLOC,
    SITE_POOL_TASK,
    SITE_SHARD_SUBPLAN,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    inject,
)
from repro.core.star import star_join
from repro.core.two_path import two_path_join, two_path_join_counts
from repro.joins.baseline import combinatorial_star_block, combinatorial_two_path_block
from repro.matmul.registry import make_default_registry
from repro.plan.query import StarQuery, TwoPathQuery
from repro.serve import QuerySession, TelemetryConfig
from repro.setops.scj import scj_bruteforce
from repro.setops.ssj import ssj_bruteforce

# The paper's two output-sensitive engines, each returning its result block.
TWO_PATH_ENGINES = {
    "mmjoin": lambda left, right: two_path_join(left, right).result_block,
    "non-mmjoin": combinatorial_two_path_block,
}
STAR_ENGINES = {
    "mmjoin": lambda rels: star_join(rels).result_block,
    "non-mmjoin": combinatorial_star_block,
}
ALL_BACKENDS = make_default_registry().names()
CORE_COUNTS = (1, 2)

# Shard-count axis: 1 exercises the single-shard fallback; 3 and 8 exercise
# hash + heavy-shard layouts.  CI can inject an extra count through
# REPRO_TEST_SHARDS (the shard-enabled matrix entry sets it to 3).
_ENV_SHARDS = int(os.environ.get("REPRO_TEST_SHARDS", "0") or "0")
SHARD_COUNTS = tuple(sorted({1, 3, 8} | ({_ENV_SHARDS} if _ENV_SHARDS > 1 else set())))

# Derandomized: the whole differential harness runs under fixed seeds.
DIFF_SETTINGS = dict(max_examples=6, deadline=None, derandomize=True)

# Chaos axis: seeded fault plans injected into the serving path must be
# invisible in the output (retries and pool recovery absorb them).  The
# default run exercises the two highest-value plans; REPRO_TEST_FAULTS=1
# (the fault-enabled CI matrix entry) turns the full grid on.
_ENV_FAULTS = int(os.environ.get("REPRO_TEST_FAULTS", "0") or "0")
_FAULT_RULESETS = {
    "worker-crash": (FaultRule(SITE_POOL_TASK, "crash", count=1),),
    "shard-error": (FaultRule(SITE_SHARD_SUBPLAN, "error", count=2),),
}
if _ENV_FAULTS:
    _FAULT_RULESETS.update({
        "alloc-failure": (FaultRule(SITE_EXTRACT_ALLOC, "alloc", count=1),),
        "backend-error": (FaultRule(SITE_BACKEND_MATMUL, "error", count=1),),
        "fault-storm": (
            FaultRule(SITE_POOL_TASK, "crash", count=2),
            FaultRule(SITE_SHARD_SUBPLAN, "error", count=1),
            FaultRule(SITE_BACKEND_MATMUL, "error", count=1),
        ),
    })
# Real retries with negligible real backoff.
_CHAOS_RETRY = RetryPolicy(max_attempts=3, base_delay_ms=0.01,
                           max_delay_ms=0.05, jitter=0.0)


def _assert_canonical(block) -> None:
    """Rows strictly increasing lexicographically: sorted and duplicate-free."""
    rows = block.as_array()
    if len(rows) < 2:
        return
    changed = rows[1:] != rows[:-1]
    assert changed.any(axis=1).all(), "duplicate result rows"
    first = changed.argmax(axis=1)
    at = np.arange(len(first))
    assert (rows[1:][at, first] > rows[:-1][at, first]).all(), "result rows out of order"


@pytest.fixture(autouse=True)
def _results_leave_in_canonical_order(monkeypatch):
    """Every axis of this harness also checks the result block's order.

    All serving paths — unsharded, sharded, patched, memo, batch, async,
    the one-shot entry points, every backend and extract mode — return
    through ``QuerySession._evaluate``, so one wrapper covers them all.
    """
    evaluate = QuerySession._evaluate

    def checked(self, *args, **kwargs):
        result = evaluate(self, *args, **kwargs)
        _assert_canonical(result.result_block)
        assert result.result_block.layout is None  # decoded before it leaves
        return result

    monkeypatch.setattr(QuerySession, "_evaluate", checked)


# --------------------------------------------------------------------------- #
# Engines
# --------------------------------------------------------------------------- #
class TestEnginesAgree:
    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_two_path_identical_across_engines(self, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        for name, engine in TWO_PATH_ENGINES.items():
            assert engine(left, right).to_set() == expected, name

    @settings(**DIFF_SETTINGS)
    @given(rels=relation_lists(max_size=50))
    def test_star_identical_across_engines(self, rels):
        expected = star_pairs(rels)
        for name, engine in STAR_ENGINES.items():
            assert engine(rels).to_set() == expected, name


# --------------------------------------------------------------------------- #
# MMJoin x backend x serial-vs-parallel
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("cores", CORE_COUNTS)
@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBackendParallelGrid:
    def _config(self, backend: str, cores: int) -> MMJoinConfig:
        # delta1 = delta2 = 1 routes as much work as possible through the
        # chosen matrix backend.
        return MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend, cores=cores)

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_pairs_identical(self, backend, cores, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        config = self._config(backend, cores)
        assert two_path_join(left, right, config=config).pairs == expected

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_counts_identical(self, backend, cores, pair):
        left, right = pair
        expected = two_path_counts(left, right)
        config = self._config(backend, cores)
        assert two_path_join_counts(left, right, config=config).counts == expected


# --------------------------------------------------------------------------- #
# Tiled-extraction axis: every tile size must be invisible in the output
# --------------------------------------------------------------------------- #
# 0 forces the one-shot full scan, 1 and 7 exercise tiny/odd bands, the huge
# value collapses to a single band covering the whole product.
TILE_AXIS = (0, 1, 7, 10**6)


@pytest.mark.parametrize("tile_rows", TILE_AXIS)
class TestTiledExtractionAgrees:
    def _config(self, tile_rows: int, **kwargs) -> MMJoinConfig:
        return MMJoinConfig(delta1=1, delta2=1, matrix_backend="dense",
                            extract_tile_rows=tile_rows, **kwargs)

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_pairs_and_counts_identical(self, tile_rows, pair):
        left, right = pair
        config = self._config(tile_rows)
        assert two_path_join(left, right, config=config).pairs == \
            two_path_pairs(left, right)
        assert two_path_join_counts(left, right, config=config).counts == \
            two_path_counts(left, right)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(rels=relation_lists(max_size=50))
    def test_star_identical(self, tile_rows, rels):
        assert star_join(rels, config=self._config(tile_rows)).pairs == star_pairs(rels)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rows=skewed_pair_lists(max_size=100))
    def test_sharded_with_tiling(self, tile_rows, rows):
        skewed = Relation.from_pairs(rows, name="L")
        expected = two_path_pairs(skewed, skewed)
        with QuerySession(config=self._config(tile_rows), shards=3) as session:
            session.register(skewed, name="L", sharded=True)
            cold = session.two_path("L", "L", use_memo=False)
            warm = session.two_path("L", "L", use_memo=False)
        assert cold.pairs == expected
        assert warm.pairs == expected


# --------------------------------------------------------------------------- #
# Extract-mode axis: every extraction strategy must be invisible in the output
# --------------------------------------------------------------------------- #
# "full" pins the one-shot scan, "tiled" the screened scan with no bail-out,
# "adaptive" the bail-out scan, "core" the DIM3 degree-sorted mapping (which
# degrades to auto where no mapping applies, e.g. the star's grouped rows);
# "auto" lets the planner pick.
EXTRACT_MODE_AXIS = ("auto", "full", "tiled", "adaptive", "core")


@pytest.mark.parametrize("extract_mode", EXTRACT_MODE_AXIS)
class TestExtractModeAgrees:
    def _config(self, extract_mode: str, **kwargs) -> MMJoinConfig:
        kwargs.setdefault("matrix_backend", "dense")
        return MMJoinConfig(delta1=1, delta2=1, extract_mode=extract_mode,
                            **kwargs)

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_pairs_and_counts_identical(self, extract_mode, pair):
        left, right = pair
        config = self._config(extract_mode)
        assert two_path_join(left, right, config=config).pairs == \
            two_path_pairs(left, right)
        assert two_path_join_counts(left, right, config=config).counts == \
            two_path_counts(left, right)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(pair=relation_pairs(max_size=60))
    def test_modes_per_backend(self, extract_mode, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        for backend in ALL_BACKENDS:
            config = self._config(extract_mode, matrix_backend=backend)
            assert two_path_join(left, right, config=config).pairs == \
                expected, backend

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(rels=relation_lists(max_size=50))
    def test_star_identical(self, extract_mode, rels):
        assert star_join(rels, config=self._config(extract_mode)).pairs == \
            star_pairs(rels)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rows=skewed_pair_lists(max_size=100))
    def test_sharded_with_extract_mode(self, extract_mode, rows):
        skewed = Relation.from_pairs(rows, name="L")
        expected = two_path_pairs(skewed, skewed)
        with QuerySession(config=self._config(extract_mode), shards=3) as session:
            session.register(skewed, name="L", sharded=True)
            cold = session.two_path("L", "L", use_memo=False)
            warm = session.two_path("L", "L", use_memo=False)
        assert cold.pairs == expected
        assert warm.pairs == expected


# --------------------------------------------------------------------------- #
# Session-cached vs cold paths
# --------------------------------------------------------------------------- #
class TestSessionAgreesWithCold:
    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_memoized_and_warm_match_cold(self, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left, name="L")
            session.register(right, name="R")
            cold = session.two_path("L", "R")
            memo = session.two_path("L", "R")
            warm = session.two_path("L", "R", use_memo=False)
            warm2 = session.two_path("L", "R", use_memo=False)
        assert cold.pairs == expected
        assert memo.pairs == expected and memo.from_memo
        assert warm.pairs == expected and not warm.from_memo
        assert warm2.pairs == expected

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_counting_session_matches_cold(self, pair):
        left, right = pair
        expected = two_path_counts(left, right)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left, name="L")
            session.register(right, name="R")
            cold = session.two_path("L", "R", counting=True)
            warm = session.two_path("L", "R", counting=True, use_memo=False)
        assert cold.counts == expected
        assert warm.counts == expected

    @settings(**DIFF_SETTINGS)
    @given(rels=relation_lists(max_size=50))
    def test_star_session_matches_cold(self, rels):
        expected = star_pairs(rels)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            names = [session.register(rel, name=f"R{i}") for i, rel in enumerate(rels)]
            cold = session.star(names)
            memo = session.star(names)
            warm = session.star(names, use_memo=False)
        assert cold.pairs == expected
        assert memo.pairs == expected and memo.from_memo
        assert warm.pairs == expected

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_batch_and_async_match_cold(self, pair):
        import asyncio

        left, right = pair
        expected_pairs = two_path_pairs(left, right)
        expected_counts = two_path_counts(left, right)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            queries = [
                TwoPathQuery(left=left, right=right),
                TwoPathQuery(left=left, right=right, counting=True),
                StarQuery([left, right]),
            ]
            batch = session.submit_batch(queries)
            assert batch[0].pairs == expected_pairs
            assert batch[1].counts == expected_counts
            assert batch[2].pairs == star_pairs([left, right])
            async_result = asyncio.run(
                session.asubmit(TwoPathQuery(left=left, right=right))
            )
        assert async_result.pairs == expected_pairs

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(family=set_families(max_size=60))
    def test_ssj_scj_session_matches_bruteforce(self, family):
        expected_ssj = ssj_bruteforce(family, c=2)
        expected_scj = scj_bruteforce(family, family)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register_family(family, name="F")
            cold_ssj = session.similarity("F", c=2)
            warm_ssj = session.similarity("F", c=2)  # memo-served counting join
            cold_scj = session.containment("F")
        assert cold_ssj.pairs == expected_ssj.pairs
        assert cold_ssj.counts == expected_ssj.counts
        assert warm_ssj.pairs == expected_ssj.pairs
        assert cold_scj.pairs == expected_scj.pairs

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=60))
    def test_mutation_invalidates_and_recomputes(self, pair):
        left, right = pair
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(left, name="L")
            session.register(right, name="R")
            assert session.two_path("L", "R").pairs == two_path_pairs(left, right)
            session.update("L", right)  # replace L's data with R's
            fresh = session.two_path("L", "R")
            assert not fresh.from_memo
            assert fresh.pairs == two_path_pairs(right, right)


# --------------------------------------------------------------------------- #
# Sharded vs unsharded: backends x shard counts x session states
# --------------------------------------------------------------------------- #
def _sharded_session(left, right, shards, config=None):
    session = QuerySession(
        config=config or MMJoinConfig(delta1=2, delta2=2), shards=shards
    )
    session.register(left, name="L", sharded=True)
    session.register(right, name="R", sharded=True)
    return session


def _mutate_one_shard(session, name):
    """Halve the fullest shard's rows through update_shard; returns success."""
    container = session.sharded(name)
    sizes = container.sizes()
    target = int(np.argmax(sizes))
    if sizes[target] == 0:
        return False
    kept = container.shard(target).data[::2]
    session.update_shard(name, target, np.array(kept))
    return True


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestShardedAgreesWithUnsharded:
    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_two_path_cold_warm_memo(self, shards, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        with _sharded_session(left, right, shards) as session:
            cold = session.two_path("L", "R", use_memo=False)
            warm = session.two_path("L", "R", use_memo=False)
            session.two_path("L", "R")
            memo = session.two_path("L", "R")
        assert cold.pairs == expected
        assert warm.pairs == expected
        assert memo.pairs == expected and memo.from_memo

    @settings(**DIFF_SETTINGS)
    @given(rows=skewed_pair_lists(max_size=100))
    def test_heavy_hitter_two_path_across_engines(self, shards, rows):
        """The adversarial case for shard placement: hot witnesses."""
        skewed = Relation.from_pairs(rows, name="L")
        expected = two_path_pairs(skewed, skewed)
        with _sharded_session(skewed, skewed, shards) as session:
            sharded = session.two_path("L", "L", use_memo=False)
        assert sharded.pairs == expected
        for name, engine in TWO_PATH_ENGINES.items():
            assert engine(skewed, skewed).to_set() == expected, name

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(pair=relation_pairs(max_size=60))
    def test_counts_per_backend(self, shards, pair):
        left, right = pair
        expected = two_path_counts(left, right)
        for backend in ALL_BACKENDS:
            config = MMJoinConfig(delta1=1, delta2=1, matrix_backend=backend)
            with _sharded_session(left, right, shards, config=config) as session:
                cold = session.two_path("L", "R", counting=True, use_memo=False)
                warm = session.two_path("L", "R", counting=True, use_memo=False)
            assert cold.counts == expected, backend
            assert warm.counts == expected, backend

    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_update_shard_matches_recompute(self, shards, pair):
        left, right = pair
        with _sharded_session(left, right, shards) as session:
            warm_before = session.two_path("L", "R", use_memo=False)
            assert warm_before.pairs == two_path_pairs(left, right)
            if not _mutate_one_shard(session, "L"):
                return  # empty input: nothing to mutate
            mutated = session.relation("L")
            after = session.two_path("L", "R", use_memo=False)
            counted = session.two_path("L", "R", counting=True, use_memo=False)
        expected = two_path_pairs(mutated, right)
        assert after.pairs == expected
        assert counted.counts == two_path_counts(mutated, right)
        # a cold unsharded session over the mutated data agrees
        assert two_path_join(mutated, right,
                             config=MMJoinConfig(delta1=2, delta2=2)).pairs == expected

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(rels=relation_lists(max_size=50))
    def test_star_sharded(self, shards, rels):
        expected = star_pairs(rels)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          shards=shards) as session:
            names = [
                session.register(rel, name=f"R{i}", sharded=True)
                for i, rel in enumerate(rels)
            ]
            cold = session.star(names, use_memo=False)
            warm = session.star(names, use_memo=False)
        assert cold.pairs == expected
        assert warm.pairs == expected

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(family=set_families(max_size=60))
    def test_ssj_scj_sharded(self, shards, family):
        expected_ssj = ssj_bruteforce(family, c=2)
        expected_scj = scj_bruteforce(family, family)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          shards=shards) as session:
            session.register_family(family, name="F", sharded=True)
            ssj = session.similarity("F", c=2)
            scj = session.containment("F")
        assert ssj.pairs == expected_ssj.pairs
        assert ssj.counts == expected_ssj.counts
        assert scj.pairs == expected_scj.pairs

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rel=relations(max_size=80))
    def test_parallel_fanout_agrees(self, shards, rel):
        expected = two_path_pairs(rel, rel)
        config = MMJoinConfig(delta1=2, delta2=2, cores=2)
        with QuerySession(config=config, shards=shards) as session:
            session.register(rel, name="L", sharded=True)
            result = session.two_path("L", "L", use_memo=False)
        assert result.pairs == expected


# --------------------------------------------------------------------------- #
# Telemetry axis: tracing/metrics must be invisible in the output
# --------------------------------------------------------------------------- #
# False pins the disabled fast path, True the default-threshold instrumented
# path, and the zero-threshold config additionally renders explain text and
# records every span tree in the slow log.
TELEMETRY_AXIS = (False, True, TelemetryConfig(slow_query_seconds=0.0))


@pytest.mark.parametrize("telemetry", TELEMETRY_AXIS,
                         ids=("off", "on", "record-all"))
class TestTelemetryAgrees:
    @settings(**DIFF_SETTINGS)
    @given(pair=relation_pairs(max_size=80))
    def test_session_paths_identical(self, telemetry, pair):
        left, right = pair
        expected = two_path_pairs(left, right)
        expected_counts = two_path_counts(left, right)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=telemetry) as session:
            session.register(left, name="L")
            session.register(right, name="R")
            cold = session.two_path("L", "R", use_memo=False)
            warm = session.two_path("L", "R", use_memo=False)
            memo = session.two_path("L", "R")
            counted = session.two_path("L", "R", counting=True, use_memo=False)
        assert cold.pairs == expected
        assert warm.pairs == expected
        assert memo.pairs == expected
        assert counted.counts == expected_counts

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rows=skewed_pair_lists(max_size=100))
    def test_sharded_with_writes_identical(self, telemetry, rows):
        skewed = Relation.from_pairs(rows, name="L")
        config = MMJoinConfig(delta1=2, delta2=2)
        with QuerySession(config=config, shards=3,
                          telemetry=telemetry) as session:
            session.register(skewed, name="L", sharded=True)
            session.two_path("L", "L", use_memo=False)
            session.append("L", [(97, 3), (98, 4)])
            served = session.two_path("L", "L", use_memo=False)
        rows = set(map(tuple, np.asarray(skewed.data).tolist())) | {(97, 3), (98, 4)}
        assert served.pairs == two_path_pairs(rows, rows)


# --------------------------------------------------------------------------- #
# Mixed writes: interleaved append / delete / update_shard vs recompute
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", (1, 3))
@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
class TestMixedWritesMatchOracle:
    """Streaming writes against a maintained-row-set recompute oracle.

    Every step applies one write (append with fresh rows, idempotent delete
    including absent rows, or an ``update_shard`` replacement) to the
    session *and* to a plain Python row set; the sharded session must agree
    with the oracle over that row set after each write (warm axis:
    reads interleave with writes, so the merged-result patch and the cached
    fallbacks are both exercised) or after the full sequence (cold axis).
    A tiny lazy-merge threshold makes the sequence cross buffered *and*
    folded write states.
    """

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(pair=relation_pairs(max_size=60))
    def test_interleaved_writes_match_recompute(self, shards, warm, pair):
        left, right = pair
        with _sharded_session(left, right, shards) as session:
            session.lazy_merge_rows = 4  # cross the buffered/folded boundary
            if warm:
                session.two_path("L", "R", use_memo=False)
            rows = set(map(tuple, np.asarray(left.data).tolist()))
            rng = np.random.default_rng(1 + len(rows))
            plan = ("append", "delete", "append", "update_shard", "delete")
            for step, op in enumerate(plan):
                if op == "append":
                    fresh = [(int(rng.integers(0, 70)), int(rng.integers(0, 50)))
                             for _ in range(int(rng.integers(1, 7)))]
                    session.append("L", fresh)
                    rows |= set(fresh)
                elif op == "delete":
                    doomed = sorted(rows)[::3][:4]
                    doomed.append((10**6, 10**6))  # absent row: no-op delete
                    session.delete("L", doomed)
                    rows -= set(doomed)
                else:
                    container = session.sharded("L")
                    sizes = container.sizes()
                    target = int(np.argmax(sizes))
                    if sizes[target] == 0:
                        continue
                    shard_rows = set(map(tuple,
                                         container.shard(target).data.tolist()))
                    kept = np.array(container.shard(target).data[::2])
                    session.update_shard("L", target, kept)
                    rows = (rows - shard_rows) | set(map(tuple, kept.tolist()))
                if warm:
                    served = session.two_path("L", "R", use_memo=False)
                    assert served.pairs == two_path_pairs(rows, right), (op, step)
            final = session.two_path("L", "R", use_memo=False)
            counted = session.two_path("L", "R", counting=True, use_memo=False)
        assert final.pairs == two_path_pairs(rows, right)
        assert counted.counts == two_path_counts(rows, right)


# --------------------------------------------------------------------------- #
# Chaos axis: injected faults must be invisible in the output
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("ruleset", sorted(_FAULT_RULESETS))
class TestChaosAgreesWithOracle:
    """Seeded fault injection against the independent oracle.

    Each plan is constructed per example (counts re-arm), injected for the
    serve only, and the served pair set must equal the oracle exactly —
    recovery is correct only if it is invisible.  The retry policy uses
    microsecond backoffs so the chaos grid stays fast.
    """

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(rows=skewed_pair_lists(max_size=100))
    def test_sharded_query_survives_faults(self, ruleset, rows):
        skewed = Relation.from_pairs(rows, name="L")
        expected = two_path_pairs(skewed, skewed)
        plan = FaultPlan(_FAULT_RULESETS[ruleset], seed=11)
        config = MMJoinConfig(delta1=2, delta2=2, cores=2)
        with QuerySession(config=config, shards=3,
                          retry_policy=_CHAOS_RETRY) as session:
            session.register(skewed, name="L", sharded=True)
            with inject(plan):
                served = session.two_path("L", "L", use_memo=False)
            rerun = session.two_path("L", "L", use_memo=False)
        assert served.pairs == expected
        assert rerun.pairs == expected  # session healthy after the faults

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(rows=skewed_pair_lists(max_size=80))
    def test_faulted_write_read_cycle_matches(self, ruleset, rows):
        skewed = Relation.from_pairs(rows, name="L")
        config = MMJoinConfig(delta1=2, delta2=2, cores=2)
        with QuerySession(config=config, shards=3,
                          retry_policy=_CHAOS_RETRY) as session:
            session.register(skewed, name="L", sharded=True)
            session.two_path("L", "L", use_memo=False)  # warm caches
            plan = FaultPlan(_FAULT_RULESETS[ruleset], seed=3)
            with inject(plan):
                session.append("L", [(91, 5), (92, 6)])
                served = session.two_path("L", "L", use_memo=False)
        rows = set(map(tuple, np.asarray(skewed.data).tolist())) | {(91, 5), (92, 6)}
        assert served.pairs == two_path_pairs(rows, rows)
