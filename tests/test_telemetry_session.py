"""Integration tests: telemetry threaded through the serving layer.

test_obs.py pins the substrate down in isolation; these tests assert the
end-to-end behaviours the observability PR promises — span-tree shapes for
the real query paths (unsharded, star, sharded, writes), metrics deltas
under batched/async serving, the disabled-mode no-op, and the guarantee
that telemetry never changes results.
"""

from __future__ import annotations

import asyncio

import pytest
from strategies import random_relation

from repro.core.config import MMJoinConfig
from repro.obs import MetricsSnapshot, Telemetry, TelemetryConfig
from repro.plan.query import TwoPathQuery
from repro.serve import QuerySession

RECORD_ALL = TelemetryConfig(slow_query_seconds=0.0)


@pytest.fixture
def relation():
    return random_relation(3, n_pairs=160, x_domain=24, y_domain=20)


def _counter_total(snapshot: MetricsSnapshot, name: str, **match: str) -> float:
    """Sum a counter family over every series matching the given labels."""
    family = snapshot.families.get(name)
    if family is None:
        return 0.0
    total = 0.0
    for labels, value in family["series"].items():
        as_dict = dict(labels)
        if all(as_dict.get(key) == value_ for key, value_ in match.items()):
            total += value
    return total


def _last_trace(session):
    entries = session.telemetry.slow_log.entries()
    assert entries, "RECORD_ALL sessions must log every served call"
    return entries[-1].trace


# --------------------------------------------------------------------------- #
# Span-tree shapes
# --------------------------------------------------------------------------- #
class TestSpanTrees:
    def test_two_path_cold_span_tree(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            result = session.two_path("R", "R", use_memo=False)
            trace = _last_trace(session)
        assert result.trace_id == trace.trace_id
        names = trace.span_names()
        assert names[0] == "two_path"
        for expected in ("plan", "semijoin", "partition", "merge"):
            assert expected in names
        plan = trace.find("plan")
        assert plan.attrs["strategy"] == result.strategy
        assert plan.attrs["output_size"] == result.output_size
        # Operator cache probes surface as plan-span attributes (the first
        # run misses every artifact cache).
        assert plan.attrs["semijoin_cache"] == "miss"
        assert plan.attrs["partition_cache"] == "miss"

    def test_matmul_strategy_traces_extraction(self, relation):
        config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
        with QuerySession(config=config, telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            result = session.two_path("R", "R", use_memo=False)
            trace = _last_trace(session)
        assert result.strategy == "mmjoin"
        matmul = trace.find("matmul")
        assert matmul is not None
        # The non-zero extraction kernel reports which path ran.
        extract = trace.find("extract")
        assert extract is not None
        assert extract.attrs["path"] in ("tiled", "core")

    def test_memo_hit_span_tree_is_annotated_root(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            session.two_path("R", "R")
            repeat = session.two_path("R", "R")
            trace = _last_trace(session)
        assert repeat.from_memo
        # A memo hit never reaches the planner: the trace is the bare root
        # annotated with the memo outcome.
        assert trace.span_names() == ["two_path"]
        assert trace.root.attrs == {"memo": "hit"}

    def test_star_span_tree(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            session.star(["R", "R", "R"], use_memo=False)
            trace = _last_trace(session)
        assert trace.kind == "star"
        assert trace.root.name == "star"
        assert "plan" in trace.span_names()

    def test_sharded_span_tree_has_fanout_and_merge(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2), shards=2,
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R", sharded=True)
            session.two_path("R", "R", use_memo=False)
            trace = _last_trace(session)
        names = trace.span_names()
        assert "shard_fanout" in names and "shard_merge" in names
        fanout = trace.find("shard_fanout")
        assert fanout.attrs["shards"] >= 2
        # Every per-shard subplan runs under the fanout span (worker spans
        # ship back to the submitting span), labelled with its shard index.
        plans = trace.root.find_all("plan")
        shards_seen = {plan.attrs.get("shard") for plan in plans}
        assert len(shards_seen) >= 2
        lookup_kinds = {sp.attrs["kind"] for sp in
                        trace.root.find_all("cache_lookup")}
        assert lookup_kinds == {"shard_result"}
        assert trace.find("delta_patch") is None

    def test_write_trace_records_delta_apply(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2), shards=2,
                          lazy_merge_rows=4096,
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R", sharded=True)
            session.two_path("R", "R", use_memo=False)
            session.append("R", [(101, 102), (103, 104)])
            write_entry = session.telemetry.slow_log.entries()[-1]
        # The write got its own trace, with per-shard delta application.
        assert write_entry.kind == "append"
        assert write_entry.path == "absorbed"
        applies = write_entry.trace.root.find_all("delta_apply")
        assert applies and all(sp.attrs["outcome"] == "absorbed"
                               for sp in applies)


# --------------------------------------------------------------------------- #
# Metrics recorded by the session
# --------------------------------------------------------------------------- #
class TestSessionMetrics:
    def test_serving_path_labels(self, relation):
        # feedback=False: with it on, whether the second run re-picks the
        # backend (and so misses the operand cache) depends on how long the
        # first product happened to take.
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          feedback=False) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)   # cold
            session.two_path("R", "R", use_memo=False)   # warm: hits only
            session.two_path("R", "R", use_memo=False)   # warm
            session.two_path("R", "R")                   # memo miss -> warm
            session.two_path("R", "R")                   # memo hit
            snapshot = session.metrics()
        assert snapshot.value("repro_queries_total",
                              kind="two_path", path="cold") == 1
        assert snapshot.value("repro_queries_total",
                              kind="two_path", path="warm") == 3
        assert snapshot.value("repro_queries_total",
                              kind="two_path", path="memo") == 1
        hist = snapshot.histogram("repro_query_seconds",
                                  kind="two_path", path="memo")
        assert hist["count"] == 1

    def test_write_outcome_counters(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2), shards=2,
                          lazy_merge_rows=4096) as session:
            session.register(relation, name="R", sharded=True)
            session.append("R", [(201, 202)])
            snapshot = session.metrics()
            assert snapshot.value("repro_writes_total",
                                  op="append", outcome="absorbed") == 1
            assert snapshot.value("repro_write_rows_total", op="append") == 1
        # Eager folding (threshold 0) reports the other outcome.
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2), shards=2,
                          lazy_merge_rows=0) as session:
            session.register(relation, name="R", sharded=True)
            session.append("R", [(201, 202)])
            snapshot = session.metrics()
            assert snapshot.value("repro_writes_total",
                                  op="append", outcome="folded") == 1

    def test_unsharded_write_folds(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(relation, name="R")
            session.append("R", [(77, 78)])
            snapshot = session.metrics()
        assert snapshot.value("repro_writes_total",
                              op="append", outcome="folded") == 1

    def test_shard_subplan_and_skew_metrics(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          shards=2) as session:
            session.register(relation, name="R", sharded=True)
            session.two_path("R", "R", use_memo=False)
            snapshot = session.metrics()
        per_shard = snapshot.families.get("repro_shard_subplan_seconds")
        assert per_shard is not None and len(per_shard["series"]) >= 2
        assert snapshot.value("repro_shard_skew", kind="two_path") >= 1.0

    def test_metrics_delta_under_submit_batch(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(relation, name="R")
            before = session.metrics()
            queries = [
                TwoPathQuery(left=relation, right=relation),
                TwoPathQuery(left=relation, right=relation, counting=True),
                TwoPathQuery(left=relation, right=relation),
            ]
            results = session.submit_batch(queries)
            delta = session.metrics().delta(before)
        assert len(results) == 3
        assert _counter_total(delta, "repro_queries_total") == 3
        assert delta.value("repro_batches_total") == 1
        assert delta.histogram("repro_batch_seconds")["count"] == 1

    def test_metrics_delta_under_asubmit(self, relation):
        async def serve():
            with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
                session.register(relation, name="R")
                before = session.metrics()
                query = TwoPathQuery(left=relation, right=relation)
                first, second = await asyncio.gather(
                    session.asubmit(query), session.asubmit(query)
                )
                return first, second, session.metrics().delta(before)

        first, second, delta = asyncio.run(serve())
        assert first.pairs == second.pairs
        assert _counter_total(delta, "repro_queries_total") == 2
        # The serving pool's queue-wait histogram saw both submissions.
        wait = delta.histogram("repro_pool_wait_seconds", pool="serving")
        assert wait is not None and wait["count"] >= 2

    def test_batch_member_traces_get_own_ids(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            queries = [TwoPathQuery(left=relation, right=relation)] * 2
            results = session.submit_batch(queries, use_memo=False)
        ids = [r.trace_id for r in results]
        assert all(ids) and len(set(ids)) == 2


# --------------------------------------------------------------------------- #
# Legacy stats views fold onto one accounting source
# --------------------------------------------------------------------------- #
class TestStatsViews:
    def test_cache_stats_and_gauges_agree(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)
            session.two_path("R", "R", use_memo=False)
            stats = session.cache_stats()
            snapshot = session.metrics()
        artifacts = stats["artifacts"]
        expected = artifacts["hits"] / (artifacts["hits"] + artifacts["misses"])
        assert snapshot.value("repro_cache_hit_ratio", cache="artifacts",
                              kind="all") == pytest.approx(expected)
        assert snapshot.value("repro_cache_bytes",
                              cache="artifacts") == artifacts["bytes"]
        assert snapshot.value("repro_session_queries_served") == \
            stats["queries_served"]

    def test_kind_stats_partition_the_aggregate(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)
            session.two_path("R", "R", use_memo=False)
            kind_stats = session.artifacts.kind_stats()
            stats = session.artifacts.stats()
        assert {"semijoin", "partition"} <= set(kind_stats)
        assert sum(row["hits"] for row in kind_stats.values()) == stats["hits"]
        assert sum(row["misses"] for row in kind_stats.values()) == stats["misses"]
        # Per-kind hit-ratio gauges surface through the snapshot.
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2)) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)
            session.two_path("R", "R", use_memo=False)
            snapshot = session.metrics()
        assert snapshot.value("repro_cache_hit_ratio", cache="artifacts",
                              kind="semijoin") == pytest.approx(0.5)

    def test_shard_stats_and_gauges_agree(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          shards=2) as session:
            session.register(relation, name="R", sharded=True)
            session.two_path("R", "R", use_memo=False)
            session.two_path("R", "R", use_memo=False)
            stats = session.shard_stats()
            snapshot = session.metrics()
        for shard, counters in stats["per_shard"].items():
            assert snapshot.value("repro_shard_queries",
                                  shard=shard) == counters["queries"]
        assert snapshot.value("repro_router_routed") == \
            stats["router"]["routed"]

    def test_feedback_extract_rate_gauge(self, relation):
        # Forced thresholds make the heavy matmul run, so the per-mode
        # extraction-rate gauge appears.
        config = MMJoinConfig(delta1=2, delta2=2, matrix_backend="dense")
        with QuerySession(config=config) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)
            snapshot = session.metrics()
        rates = snapshot.families.get("repro_extract_seconds_per_cell")
        assert rates is not None and len(rates["series"]) >= 1
        for labels, value in rates["series"].items():
            assert dict(labels)["mode"]
            assert value > 0.0

    def test_feedback_cost_ratio_gauge(self):
        # The optimizer path produces non-zero cost estimates, so the
        # per-operator actual/estimated ratio gauge appears.
        big = random_relation(7, n_pairs=600, x_domain=60, y_domain=50)
        with QuerySession() as session:
            session.register(big, name="R")
            session.two_path("R", "R", use_memo=False)
            snapshot = session.metrics()
        ratios = snapshot.families.get("repro_cost_ratio")
        assert ratios is not None and len(ratios["series"]) >= 1
        for labels, value in ratios["series"].items():
            assert dict(labels).get("operator") or dict(labels).get("backend")
            assert value > 0.0


# --------------------------------------------------------------------------- #
# Slow-query log through the session
# --------------------------------------------------------------------------- #
class TestSlowQueryForensics:
    def test_threshold_zero_logs_every_query_with_explain(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=RECORD_ALL) as session:
            session.register(relation, name="R")
            result = session.two_path("R", "R", use_memo=False)
            entry = session.telemetry.slow_log.get(result.trace_id)
        assert entry is not None
        assert entry.kind == "two_path" and entry.path == "cold"
        assert "strategy" in entry.explain_text
        assert "plan" in entry.format()

    def test_default_threshold_skips_fast_queries(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=TelemetryConfig(slow_query_seconds=60.0),
                          ) as session:
            session.register(relation, name="R")
            session.two_path("R", "R", use_memo=False)
            assert len(session.telemetry.slow_log) == 0

    def test_ring_buffer_bounds_session_memory(self, relation):
        config = TelemetryConfig(slow_query_seconds=0.0, slow_log_capacity=2)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=config) as session:
            session.register(relation, name="R")
            for _ in range(5):
                session.two_path("R", "R", use_memo=False)
            assert len(session.telemetry.slow_log) == 2


# --------------------------------------------------------------------------- #
# Disabled mode and the no-interference guarantee
# --------------------------------------------------------------------------- #
class TestDisabledAndEquivalence:
    def test_disabled_session_is_inert(self, relation):
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=False) as session:
            session.register(relation, name="R")
            result = session.two_path("R", "R", use_memo=False)
            session.append("R", [(301, 302)])
            snapshot = session.metrics()
        assert result.trace_id is None
        assert snapshot.names() == []
        assert len(session.telemetry.slow_log) == 0
        assert not session.telemetry.enabled

    def test_telemetry_never_changes_results(self, relation):
        outcomes = []
        for telemetry in (False, True, RECORD_ALL):
            with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                              telemetry=telemetry) as session:
                session.register(relation, name="R")
                cold = session.two_path("R", "R", use_memo=False)
                session.append("R", [(401, 402), (403, 404)])
                after = session.two_path("R", "R", use_memo=False)
                outcomes.append((cold.pairs, after.pairs))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_sharded_results_unchanged_by_telemetry(self, relation):
        outcomes = []
        for telemetry in (False, RECORD_ALL):
            with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                              shards=3, telemetry=telemetry) as session:
                session.register(relation, name="R", sharded=True)
                outcomes.append(session.two_path("R", "R", use_memo=False).pairs)
        assert outcomes[0] == outcomes[1]

    def test_shared_telemetry_across_sessions(self, relation):
        telemetry = Telemetry()
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=telemetry) as first:
            first.register(relation, name="R")
            first.two_path("R", "R", use_memo=False)
        with QuerySession(config=MMJoinConfig(delta1=2, delta2=2),
                          telemetry=telemetry) as second:
            second.register(relation, name="R")
            second.two_path("R", "R", use_memo=False)
            snapshot = second.metrics()
        assert _counter_total(snapshot, "repro_queries_total",
                              kind="two_path") == 2
