"""Planner: lower a logical query onto the shared physical pipeline.

The :class:`Planner` is the single place that decides *how* a join-project
query runs.  It composes the five physical operators —
``semijoin_reduce -> light_heavy_partition -> combinatorial_light ->
matmul_heavy -> dedup_merge`` — into a :class:`PhysicalPlan`, wiring in

* the existing :class:`~repro.core.optimizer.CostBasedOptimizer` (strategy
  and degree-threshold choice, honouring explicit config thresholds and
  ``use_optimizer=False``), and
* the :class:`~repro.matmul.registry.BackendRegistry` (which matmul kernel
  evaluates the heavy residual).

``core/two_path.py``, ``core/star.py``, the parallel executor and the
setops wrappers all route through here; none of them orchestrates
partitioning or the light/heavy phases on its own any more.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.optimizer import CostBasedOptimizer, OptimizerDecision
from repro.errors import check_deadline
from repro.exec.operators import (
    CombinatorialLight,
    DedupMerge,
    LightHeavyPartition,
    MatMulHeavy,
    PhysicalOperator,
    SemijoinReduce,
)
from repro.exec.state import MODE_COUNTS, MODE_PAIRS, MODE_STAR, ExecutionState
from repro.matmul.registry import BackendRegistry, default_registry
from repro.matmul.tiling import MODE_CORE
from repro.obs.trace import NULL_SPAN, Span
from repro.obs.trace import span as obs_span
from repro.plan.explain import OperatorReport, PlanExplanation
from repro.plan.query import (
    ContainmentJoinQuery,
    JoinProjectQuery,
    SimilarityJoinQuery,
    StarQuery,
    TwoPathQuery,
)


# Span names for the telemetry trace tree: the paper's pipeline phases keep
# their short names from the ISSUE taxonomy; anything unmapped uses the
# operator's own name.
_OPERATOR_SPANS = {
    "semijoin_reduce": "semijoin",
    "light_heavy_partition": "partition",
    "combinatorial_light": "light",
    "matmul_heavy": "matmul",
    "dedup_merge": "merge",
}


# Plan-span attribute naming the session artifact cache each operator
# probes; the probe outcome is recovered from ``operator.detail["cache"]``
# at realization time, so the probes themselves stay telemetry-free.
_CACHE_ATTRS = {
    "semijoin_reduce": "semijoin_cache",
    "light_heavy_partition": "partition_cache",
    "matmul_heavy": "operands_cache",
}


class _DeferredOperatorSpans:
    """Lazy builder for a plan span's per-operator children.

    Traced execution records only perf-counter marks; this object rides on
    the plan span (:meth:`Span.defer`) and builds the five operator spans
    the first time the tree is introspected — the slow-query log, the CLI
    ``trace`` command, test assertions.  A served query nobody looks at
    never materialises them, which keeps the warm serving path inside the
    telemetry overhead budget.  Operator statuses and artifact-cache
    outcomes are read from the operators at realization time; that is safe
    because every call path mints a fresh plan per execution.

    Spans opened live *during* an operator (extraction; pool-worker
    subtrees) already sit under the plan span; each is re-parented under
    the operator span whose window contains its start, so the rendered
    tree nests extraction under ``matmul`` exactly as if the operator
    spans had been live.
    """

    __slots__ = ("operators", "marks", "strategy", "output_size")

    def __init__(self, operators: List[PhysicalOperator], marks: List[float],
                 strategy: str, output_size: int) -> None:
        self.operators = operators
        self.marks = marks
        self.strategy = strategy
        self.output_size = output_size

    def __call__(self, plan_span: Span) -> None:
        plan_span.set("strategy", self.strategy)
        plan_span.set("output_size", self.output_size)
        live = plan_span.children[:]
        del plan_span.children[:]
        marks = self.marks
        for index, operator in enumerate(self.operators):
            op_span = Span(_OPERATOR_SPANS.get(operator.name, operator.name))
            op_span.start = marks[index]
            op_span.end = marks[index + 1]
            if operator.status != "ran":
                op_span.attrs = {"status": operator.status}
            cache_attr = _CACHE_ATTRS.get(operator.name)
            if cache_attr is not None:
                outcome = operator.detail.get("cache")
                if outcome is not None:
                    plan_span.set(cache_attr, outcome)
            if operator.name == "matmul_heavy":
                extract = self._extract_span(operator, op_span)
                if extract is not None:
                    op_span.children.append(extract)
            plan_span.children.append(op_span)
            for child in live:
                if op_span.start <= child.start < op_span.end:
                    op_span.children.append(child)
        claimed = {id(c) for op in plan_span.children for c in op.children}
        plan_span.children.extend(c for c in live if id(c) not in claimed)

    @staticmethod
    def _extract_span(operator: PhysicalOperator, op_span: Span) -> Optional[Span]:
        """Synthesise the extraction child span from the matmul detail.

        The extraction kernels record their accounting (mode, duration, peak
        bytes) into the operator detail; the span is rebuilt from those facts
        rather than opened live inside the kernel, so the kernels carry no
        telemetry calls at all.  The start offset is anchored after the
        recorded build + multiply phases — the pipeline order inside the
        operator — which is exact up to inter-phase bookkeeping.
        """
        detail = operator.detail
        seconds = detail.get("extract_seconds")
        if seconds is None:
            return None
        extract = Span("extract")
        extract.start = (
            op_span.start
            + float(detail.get("build_seconds", 0.0))
            + float(detail.get("multiply_seconds", 0.0))
        )
        extract.end = extract.start + float(seconds)
        mode = detail.get("extract_mode")
        extract.attrs = {
            "mode": mode,
            "path": "core" if mode == MODE_CORE else "tiled",
        }
        return extract


class PhysicalPlan:
    """An ordered operator pipeline bound to one logical query."""

    def __init__(
        self,
        query: JoinProjectQuery,
        config: MMJoinConfig,
        operators: List[PhysicalOperator],
        mode: str,
        session: Optional[Any] = None,
        shard: Optional[int] = None,
    ) -> None:
        self.query = query
        self.config = config
        self.operators = operators
        self.mode = mode
        self.session = session
        # Shard id when this plan is one shard's subplan of a sharded
        # execution (see repro.shard.executor); labels the explanation.
        self.shard = shard
        self.state: Optional[ExecutionState] = None

    @property
    def executed(self) -> bool:
        return self.state is not None

    def execute(self) -> ExecutionState:
        """Run every operator in order over a fresh execution state."""
        start = time.perf_counter()
        state = ExecutionState(
            config=self.config,
            mode=self.mode,
            relations=list(self.query.join_relations()),
            session=self.session,
            shard=self.shard,
        )
        if self.shard is None:
            plan_span = obs_span("plan")
        else:
            plan_span = obs_span("plan", shard=self.shard)
        with plan_span:
            if plan_span is NULL_SPAN:
                for operator in self.operators:
                    check_deadline("plan.operator")
                    operator(state)
                    if operator.status == "ran":
                        state.timings[operator.name] = operator.actual_seconds
            else:
                # Traced execution: one live span wraps the pipeline; the
                # per-operator spans are recorded as perf_counter marks and
                # materialised lazily on first introspection (Span.defer) —
                # five eagerly-built spans per query would dominate the
                # telemetry overhead budget on the warm serving path.
                clock = time.perf_counter
                marks = [clock()]
                for operator in self.operators:
                    check_deadline("plan.operator")
                    operator(state)
                    marks.append(clock())
                    if operator.status == "ran":
                        state.timings[operator.name] = operator.actual_seconds
                plan_span.defer(_DeferredOperatorSpans(
                    self.operators, marks, state.strategy, state.output_size,
                ))
        state.timings["total"] = time.perf_counter() - start
        self._backfill_timings(state)
        self.state = state
        return state

    def _backfill_timings(self, state: ExecutionState) -> None:
        """Populate the legacy phase-timing keys the result objects expose."""
        by_name = {op.name: op for op in self.operators}
        partition = by_name.get("light_heavy_partition")
        if partition is not None and partition.status == "ran" and state.strategy != "wcoj":
            state.timings["partition"] = partition.actual_seconds
        light = by_name.get("combinatorial_light")
        if light is not None and light.status == "ran":
            state.timings["light"] = light.actual_seconds
        heavy = by_name.get("matmul_heavy")
        if heavy is not None and heavy.status == "ran":
            state.timings["matrix_build"] = float(heavy.detail.get("build_seconds", 0.0))
            state.timings["matrix_multiply"] = float(heavy.detail.get("multiply_seconds", 0.0))

    def explain(self) -> PlanExplanation:
        """Per-operator estimated vs. actual cost and timings."""
        state = self.state
        decision = state.decision if state is not None else None
        reports: List[OperatorReport] = []
        for operator in self.operators:
            estimated = operator.estimated_cost
            backend = None
            if decision is not None:
                if operator.name == "combinatorial_light" and not estimated:
                    estimated = (
                        decision.light_cost
                        if decision.strategy == "mmjoin"
                        else decision.estimated_cost
                    )
                if operator.name == "matmul_heavy" and not estimated:
                    estimated = decision.heavy_cost
            if operator.name == "matmul_heavy" and operator.status == "ran":
                backend = state.backend_name if state is not None else None
            reports.append(
                OperatorReport(
                    operator=operator.name,
                    status=operator.status,
                    estimated_cost=float(estimated),
                    actual_seconds=operator.actual_seconds,
                    backend=backend,
                    detail=dict(operator.detail),
                )
            )
        cache_hits = sum(
            1 for op in self.operators if op.detail.get("cache") == "hit"
        )
        cache_misses = sum(
            1 for op in self.operators if op.detail.get("cache") == "miss"
        )
        session_stats: dict = {}
        if self.session is not None:
            session_stats = {
                "operator_cache_hits": cache_hits,
                "operator_cache_misses": cache_misses,
                **{f"artifacts.{k}": v
                   for k, v in self.session.artifacts.stats().items()},
            }
        return PlanExplanation(
            query_kind=self.query.kind,
            strategy=state.strategy if state is not None else "unplanned",
            backend=state.backend_name if state is not None else self.config.matrix_backend,
            delta1=state.delta1 if state is not None else 0,
            delta2=state.delta2 if state is not None else 0,
            operators=reports,
            total_seconds=state.timings.get("total", 0.0) if state is not None else 0.0,
            estimated_total_cost=decision.estimated_cost if decision is not None else 0.0,
            estimated_output=decision.estimated_output if decision is not None else 0.0,
            output_size=state.output_size if state is not None else 0,
            session_stats=session_stats,
            shard=self.shard,
        )


class Planner:
    """Builds physical plans for logical join-project queries."""

    def __init__(
        self,
        config: MMJoinConfig = DEFAULT_CONFIG,
        registry: Optional[BackendRegistry] = None,
        optimizer: Optional[CostBasedOptimizer] = None,
        session: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else default_registry()
        self.optimizer = optimizer if optimizer is not None else CostBasedOptimizer(config=config)
        # Session context (see repro.serve.session): threaded through every
        # plan so the operators can consult the session's artifact caches.
        self.session = session

    def create_plan(self, query: JoinProjectQuery,
                    shard: Optional[int] = None) -> PhysicalPlan:
        """Lower ``query`` onto the five-operator physical pipeline.

        ``shard`` labels the plan as one shard's subplan of a sharded
        execution (see :mod:`repro.shard.executor`).
        """
        if isinstance(query, (SimilarityJoinQuery, ContainmentJoinQuery)):
            lowered = self.create_plan(query.lower(), shard=shard)
            lowered.query = query  # report the original kind in explain()
            return lowered
        if isinstance(query, StarQuery):
            mode = MODE_STAR
        elif isinstance(query, TwoPathQuery):
            mode = MODE_COUNTS if query.with_counts else MODE_PAIRS
        else:
            raise TypeError(f"cannot plan query of type {type(query).__name__}")
        operators: List[PhysicalOperator] = [
            SemijoinReduce(),
            LightHeavyPartition(decide=self._decide),
            CombinatorialLight(),
            MatMulHeavy(registry=self.registry),
            DedupMerge(),
        ]
        return PhysicalPlan(query=query, config=self.config, operators=operators,
                            mode=mode, session=self.session, shard=shard)

    def execute(self, query: JoinProjectQuery,
                shard: Optional[int] = None) -> PhysicalPlan:
        """Convenience: plan and execute in one call, returning the plan."""
        plan = self.create_plan(query, shard=shard)
        plan.execute()
        return plan

    # ------------------------------------------------------------------ #
    # Strategy decision (explicit thresholds > optimizer > forced WCOJ)
    # ------------------------------------------------------------------ #
    def _decide(self, state: ExecutionState) -> OptimizerDecision:
        config = state.config
        if state.mode == MODE_STAR and len(state.relations) < 2:
            # A 1-ary "star" has no join to decompose; even explicit
            # thresholds cannot make a light/heavy split meaningful.
            return OptimizerDecision(
                strategy="wcoj", delta1=0, delta2=0,
                estimated_cost=0.0, estimated_output=0.0, full_join_size=0,
            )
        if config.delta1 is not None and config.delta2 is not None:
            return OptimizerDecision(
                strategy="mmjoin",
                delta1=int(config.delta1),
                delta2=int(config.delta2),
                estimated_cost=0.0,
                estimated_output=0.0,
                full_join_size=0,
            )
        if not config.use_optimizer:
            return OptimizerDecision(
                strategy="wcoj", delta1=0, delta2=0,
                estimated_cost=0.0, estimated_output=0.0, full_join_size=0,
            )
        if state.mode == MODE_STAR:
            return self.optimizer.choose_star(state.relations)
        return self.optimizer.choose_two_path(state.relations[0], state.relations[1])
