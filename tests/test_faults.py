"""Fault-tolerance layer: retries, crash recovery, deadlines, admission.

Unit tests drive the retry policy and deadlines against fake clocks (exact
backoff schedules, no real sleeping); integration tests inject deterministic
fault plans (:mod:`repro.faults`) into real sessions and assert the serving
path recovers to the fault-free oracle — or fails with the right typed
error — per the contracts in ``README.md``'s fault-tolerance section.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from oracle import two_path_pairs
from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.data.relation import Relation
from repro.errors import (
    AdmissionRejected,
    Deadline,
    QueryTimeoutError,
    ReproError,
    ShardFailure,
    StrictDeleteError,
    UnknownRelationError,
    WorkerCrashError,
    check_deadline,
    current_deadline,
    install_deadline,
    restore_deadline,
)
from repro.faults import (
    SITE_BACKEND_MATMUL,
    SITE_EXTRACT_ALLOC,
    SITE_POOL_TASK,
    SITE_SHARD_SUBPLAN,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_plan,
    fault_site,
    inject,
    run_with_retry,
)
from repro.parallel.executor import ParallelExecutor
from repro.plan.query import TwoPathQuery
from repro.serve import QuerySession

# Fast schedule for integration tests: real retries, negligible real sleep.
FAST = RetryPolicy(max_attempts=3, base_delay_ms=0.01, max_delay_ms=0.05,
                   jitter=0.0)


def _relation(seed: int = 0, n: int = 4000, dom: int = 200) -> Relation:
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, dom, size=(n, 2)), axis=0)
    return Relation.from_arrays(rows[:, 0], rows[:, 1], name="R")


class FakeClock:
    """A manually-advanced monotonic clock (doubles as a fake sleep)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


# --------------------------------------------------------------------------- #
# RetryPolicy / run_with_retry
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=6, base_delay_ms=10.0,
                             max_delay_ms=40.0, jitter=0.0)
        rng = policy.rng()
        delays = [policy.backoff_seconds(attempt, rng)
                  for attempt in (1, 2, 3, 4)]
        assert delays == [0.010, 0.020, 0.040, 0.040]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_ms=10.0, jitter=0.5, seed=7)
        draws = [policy.backoff_seconds(1, policy.rng()) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]  # same seed, same schedule
        assert 0.005 <= draws[0] <= 0.015  # ±50% of 10 ms

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_recovers_within_budget_with_exact_schedule(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=4, base_delay_ms=10.0,
                             max_delay_ms=100.0, jitter=0.0)
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise WorkerCrashError("boom")
            return "ok"

        assert run_with_retry(flaky, policy=policy,
                              sleep=clock.sleep) == "ok"
        assert len(calls) == 3
        assert clock.sleeps == [0.010, 0.020]  # exponential, fake clock

    def test_exhaustion_propagates_last_error(self):
        clock = FakeClock()

        def doomed():
            raise WorkerCrashError("always")

        with pytest.raises(WorkerCrashError, match="always"):
            run_with_retry(doomed, policy=FAST, sleep=clock.sleep)
        assert len(clock.sleeps) == FAST.max_attempts - 1

    def test_non_retryable_raises_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            run_with_retry(wrong, policy=FAST, sleep=lambda _s: None)
        assert len(calls) == 1

    def test_on_retry_hook_sees_attempt_and_error(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise WorkerCrashError("x")
            return 42

        result = run_with_retry(
            flaky, policy=FAST, sleep=lambda _s: None,
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc))),
        )
        assert result == 42
        assert seen == [(1, WorkerCrashError)]


# --------------------------------------------------------------------------- #
# FaultPlan determinism
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_seeded_replay_is_identical(self):
        histories = []
        for _ in range(2):
            plan = FaultPlan(
                [FaultRule(SITE_POOL_TASK, "crash", count=3, probability=0.4)],
                seed=5,
            )
            with inject(plan):
                for _ in range(12):
                    try:
                        fault_site(SITE_POOL_TASK)
                    except WorkerCrashError:
                        pass
            histories.append(tuple(plan.fired))
        assert histories[0] == histories[1]

    def test_counts_bound_firing(self):
        plan = FaultPlan([FaultRule(SITE_POOL_TASK, "error", count=2)])
        with inject(plan):
            fired = 0
            for _ in range(5):
                try:
                    fault_site(SITE_POOL_TASK)
                except RuntimeError:
                    fired += 1
        assert fired == 2 and plan.exhausted

    def test_kinds_map_to_exceptions(self):
        for kind, exc_type in (("crash", WorkerCrashError),
                               ("alloc", MemoryError),
                               ("error", RuntimeError)):
            plan = FaultPlan([FaultRule("site", kind)])
            with inject(plan), pytest.raises(exc_type):
                fault_site("site")

    def test_slow_fault_sleeps_injectably(self):
        clock = FakeClock()
        plan = FaultPlan([FaultRule("site", "slow", delay_ms=30.0)],
                         sleep=clock.sleep)
        with inject(plan):
            fault_site("site")
        assert clock.sleeps == [0.030]

    def test_sites_do_not_cross_fire(self):
        plan = FaultPlan([FaultRule(SITE_BACKEND_MATMUL, "error")])
        with inject(plan):
            fault_site(SITE_POOL_TASK)  # different site: no fire
            fault_site(SITE_EXTRACT_ALLOC)
        assert plan.fired == [] and not plan.exhausted

    def test_inject_scopes_the_active_plan(self):
        assert active_plan() is None
        plan = FaultPlan([])
        with inject(plan):
            assert active_plan() is plan
        assert active_plan() is None
        fault_site(SITE_POOL_TASK)  # production state: pure no-op

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("site", "melt")
        with pytest.raises(ValueError):
            FaultRule("site", "crash", count=0)
        with pytest.raises(ValueError):
            FaultRule("site", "crash", probability=0.0)


# --------------------------------------------------------------------------- #
# Deadline
# --------------------------------------------------------------------------- #
class TestDeadline:
    def test_fake_clock_expiry_and_metadata(self):
        clock = FakeClock()
        deadline = Deadline(50.0, clock=clock)
        deadline.check("early")  # within budget: no-op
        clock.now = 0.049
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(0.001)
        clock.now = 0.060
        with pytest.raises(QueryTimeoutError) as info:
            deadline.check("expand.chunk")
        err = info.value
        assert err.site == "expand.chunk"
        assert err.timeout_ms == 50.0
        assert err.elapsed_ms == pytest.approx(60.0)

    def test_thread_local_checkpoint_hook(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        token = install_deadline(deadline)
        try:
            assert current_deadline() is deadline
            check_deadline("loop")
            clock.now = 1.0
            with pytest.raises(QueryTimeoutError):
                check_deadline("loop")
        finally:
            restore_deadline(token)
        assert current_deadline() is None
        check_deadline("no-deadline")  # unbounded: no-op

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-5.0)


# --------------------------------------------------------------------------- #
# ParallelExecutor resilience
# --------------------------------------------------------------------------- #
class TestExecutorResilience:
    def test_crashed_task_retries_and_order_is_preserved(self):
        plan = FaultPlan([FaultRule(SITE_POOL_TASK, "crash", count=1)])
        executor = ParallelExecutor(cores=2, persistent=True,
                                    retry_policy=FAST)
        try:
            with inject(plan):
                out = executor.map(lambda x: x * x, list(range(8)))
            assert out == [x * x for x in range(8)]
            assert plan.exhausted
            assert not executor.degraded
        finally:
            executor.close()

    def test_unbounded_crashes_degrade_to_inline(self):
        plan = FaultPlan([FaultRule(SITE_POOL_TASK, "crash", count=10**9)])
        executor = ParallelExecutor(cores=2, persistent=True,
                                    retry_policy=FAST)
        try:
            with inject(plan):
                out = executor.map(lambda x: x + 1, list(range(6)))
                # Inline fallback bypasses the pool wrapper, so results are
                # still correct under a permanently-crashing pool site.
                assert out == list(range(1, 7))
        finally:
            executor.close()

    def test_hung_worker_detected_and_pool_rebuilt(self):
        executor = ParallelExecutor(cores=2, persistent=True,
                                    retry_policy=FAST, hang_timeout=0.05)
        state = {"hang": True}

        def task(item):
            if item == 1 and state.pop("hang", False):
                time.sleep(0.6)  # far past the hang timeout
            return item

        try:
            out = executor.map(task, [0, 1, 2])
            assert out == [0, 1, 2]
            assert not executor.degraded  # recovered, pool healthy again
        finally:
            executor.close()

    def test_deadline_propagates_into_pool_workers(self):
        executor = ParallelExecutor(cores=2, persistent=True)
        deadline = Deadline(60_000.0)
        token = install_deadline(deadline)
        try:
            seen = executor.map(lambda _x: current_deadline() is deadline,
                                [0, 1, 2, 3])
            assert all(seen)
        finally:
            restore_deadline(token)
            executor.close()

    def test_expired_deadline_aborts_map(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.now = 1.0  # already past due
        executor = ParallelExecutor(cores=2, persistent=True)
        token = install_deadline(deadline)
        try:
            with pytest.raises(QueryTimeoutError):
                executor.map(lambda x: x, [0, 1, 2, 3])
        finally:
            restore_deadline(token)
            executor.close()


# --------------------------------------------------------------------------- #
# Session-level fault tolerance
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def oracle_pairs():
    rel = _relation()
    return two_path_pairs(rel, rel)


class TestSessionFaultTolerance:
    def test_worker_crash_recovers_in_one_retry(self, oracle_pairs):
        # Acceptance: a seeded plan crashing one pool worker mid-sharded-
        # query completes after <= 1 retry and matches the fault-free oracle.
        rel = _relation()
        plan = FaultPlan([FaultRule(SITE_POOL_TASK, "crash", count=1)],
                         seed=7)
        with QuerySession(config=DEFAULT_CONFIG.with_cores(4), shards=4,
                          retry_policy=FAST) as session:
            session.register(rel, "R", sharded=True)
            with inject(plan):
                result = session.two_path("R", use_memo=False)
            assert result.pairs == oracle_pairs
            snapshot = session.metrics()
            assert snapshot.value("repro_retries_total", scope="pool") == 1
            assert snapshot.value("repro_degraded_total", scope="pool") == 0
        assert plan.exhausted

    def test_shard_subplan_error_retries_transparently(self, oracle_pairs):
        rel = _relation()
        plan = FaultPlan([FaultRule(SITE_SHARD_SUBPLAN, "error", count=2)])
        with QuerySession(shards=4, retry_policy=FAST) as session:
            session.register(rel, "R", sharded=True)
            with inject(plan):
                result = session.two_path("R", use_memo=False)
            assert result.pairs == oracle_pairs
            assert session.metrics().value("repro_retries_total",
                                           scope="shard") == 2

    def test_exhausted_shard_raises_shard_failure(self):
        rel = _relation()
        plan = FaultPlan([FaultRule(SITE_SHARD_SUBPLAN, "error",
                                    count=10**9)])
        with QuerySession(shards=4, retry_policy=FAST) as session:
            session.register(rel, "R", sharded=True)
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            with inject(plan), pytest.raises(ShardFailure) as info:
                session.submit(query, use_memo=False)
        assert info.value.attempts == FAST.max_attempts
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_partial_results_keep_completed_shards(self, oracle_pairs):
        rel = _relation()
        # Fail exactly one shard permanently (retries exhaust on it alone):
        # attempts on one shard = max_attempts, so a count of max_attempts
        # pins the failure to whichever shard drew the rule first.
        plan = FaultPlan([FaultRule(SITE_SHARD_SUBPLAN, "error",
                                    count=FAST.max_attempts)])
        with QuerySession(shards=4, retry_policy=FAST) as session:
            session.register(rel, "R", sharded=True)
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            with inject(plan):
                result = session.submit(query, partial_results=True,
                                        use_memo=False)
            assert result.partial
            assert result.pairs < oracle_pairs  # strict subset
            stats = result.explanation.session_stats
            assert stats["partial"] is True and stats["shards_failed"] == 1
            assert "partial" in result.explain()
            # The partial union must not be memoized: the healthy re-serve
            # re-attempts the failed shard and recovers the full result.
            recovered = session.submit(query, use_memo=True)
            assert not recovered.from_memo
            assert recovered.pairs == oracle_pairs

    @pytest.mark.parametrize("shards", [1, 4])
    def test_executed_results_leave_through_one_tail(self, oracle_pairs, shards):
        # Sharded and unsharded executions share the count -> memo.put ->
        # SessionResult tail; only the never-memoise-a-partial guard differs.
        rel = _relation()
        with QuerySession(shards=shards, retry_policy=FAST) as session:
            session.register(rel, "R", sharded=shards > 1)
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            if shards > 1:
                plan = FaultPlan([FaultRule(SITE_SHARD_SUBPLAN, "error",
                                            count=FAST.max_attempts)])
                with inject(plan):
                    partial = session.submit(query, partial_results=True)
                assert partial.partial and partial.plan is None
                assert session.queries_served == 1
                assert session.memo.stats()["entries"] == 0
            served = session.queries_served
            result = session.submit(query)
            assert result.pairs == oracle_pairs and not result.from_memo
            assert (result.strategy == "sharded") == (shards > 1)
            assert session.queries_served == served + 1
            assert session.memo.stats()["entries"] == 1
            assert session.submit(query).from_memo
            assert session.queries_served == served + 1

    def test_partial_results_reject_counting(self):
        rel = _relation()
        with QuerySession(shards=4) as session:
            session.register(rel, "R", sharded=True)
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"), counting=True)
            with pytest.raises(ValueError, match="set semantics"):
                session.submit(query, partial_results=True)

    def test_timeout_raises_within_one_checkpoint(self):
        # Acceptance: timeout_ms=50 against a plan slowed by injected delays
        # raises QueryTimeoutError within 50 ms plus one checkpoint interval
        # (here: one 40 ms injected subplan delay).
        rel = _relation()
        plan = FaultPlan([FaultRule(SITE_SHARD_SUBPLAN, "slow", count=10**9,
                                    delay_ms=40.0)])
        with QuerySession(shards=4) as session:
            session.register(rel, "R", sharded=True)
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            start = time.perf_counter()
            with inject(plan), pytest.raises(QueryTimeoutError) as info:
                session.submit(query, timeout_ms=50.0, use_memo=False)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            assert info.value.timeout_ms == 50.0
            assert info.value.elapsed_ms >= 50.0
            assert elapsed_ms < 1000.0  # budget + one interval, not a hang
            assert info.value.trace is not None  # partial span tree attached
            assert session.metrics().value("repro_deadline_exceeded_total",
                                           kind="two_path") == 1

    def test_admission_forces_tiled_and_matches_oracle(self, oracle_pairs):
        rel = _relation()
        # dom(x) x dom(z) = 200 x 200 = 40 000 candidate cells > 4 000 B
        # budget; a 20-row band (4 000 B) fits, so the query is admitted
        # onto tiled extraction and must still match the oracle.
        with QuerySession(memory_budget_bytes=4000) as session:
            session.register(rel, "R")
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            result = session.submit(query, use_memo=False)
            assert result.pairs == oracle_pairs
            assert session.metrics().value("repro_admission_total",
                                           decision="tiled") == 1

    def test_admission_rejects_when_no_band_fits(self):
        rel = _relation()
        with QuerySession(memory_budget_bytes=50) as session:
            session.register(rel, "R")
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            with pytest.raises(AdmissionRejected) as info:
                session.submit(query, use_memo=False)
            assert info.value.budget_bytes == 50
            assert info.value.estimate_bytes > 50
            assert session.metrics().value("repro_admission_total",
                                           decision="reject") == 1

    def test_admission_admits_under_budget(self, oracle_pairs):
        rel = _relation()
        with QuerySession(memory_budget_bytes=1 << 30) as session:
            session.register(rel, "R")
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            assert session.submit(query, use_memo=False).pairs == oracle_pairs
            assert session.metrics().value("repro_admission_total",
                                           decision="admit") == 1

    def test_memo_hits_bypass_admission(self):
        rel = _relation()
        with QuerySession() as session:
            session.register(rel, "R")
            query = TwoPathQuery(left=session.relation("R"),
                                 right=session.relation("R"))
            warm = session.submit(query)  # populate the memo
            assert not warm.from_memo
            session.memory_budget_bytes = 1  # would reject any execution
            memo = session.submit(query)
            assert memo.from_memo  # served without touching admission


# --------------------------------------------------------------------------- #
# Typed error taxonomy
# --------------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_hierarchy(self):
        for exc_type in (QueryTimeoutError, WorkerCrashError,
                         AdmissionRejected, ShardFailure,
                         UnknownRelationError, StrictDeleteError):
            assert issubclass(exc_type, ReproError)
        # Compat: pre-taxonomy callers catch the stdlib classes.
        assert issubclass(UnknownRelationError, KeyError)
        assert issubclass(StrictDeleteError, ValueError)

    def test_unknown_relation_is_typed(self):
        with QuerySession() as session:
            with pytest.raises(UnknownRelationError):
                session.update("ghost", _relation())
            with pytest.raises(UnknownRelationError):
                session.sharded("ghost")
            with pytest.raises(KeyError):  # old-style catch still works
                session.append("ghost", [(1, 2)])

    def test_strict_delete_is_typed(self):
        with QuerySession() as session:
            session.register(_relation(), "R")
            with pytest.raises(StrictDeleteError):
                session.delete("R", [(10**6, 10**6)], strict=True)
            with pytest.raises(ValueError):  # old-style catch still works
                session.delete("R", [(10**6, 10**6)], strict=True)


# --------------------------------------------------------------------------- #
# Session lifecycle
# --------------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_close_is_idempotent(self):
        session = QuerySession()
        session.register(_relation(), "R")
        session.close()
        session.close()  # second close: no-op, no error

    def test_context_manager_closes_pools(self):
        with QuerySession(config=DEFAULT_CONFIG.with_cores(2),
                          shards=2) as session:
            session.register(_relation(), "R", sharded=True)
            session.two_path("R", use_memo=False)
            context = session.context
            assert context._executors  # persistent pool was created
        assert not context._executors  # torn down by __exit__
