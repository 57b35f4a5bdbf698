"""Per-shard execution of a routed query, and the cross-shard merge.

Each :class:`~repro.shard.router.ShardSubquery` runs through the ordinary
:class:`~repro.plan.planner.Planner` pipeline — semijoin-reduce,
light/heavy partition, combinatorial light, matmul heavy, dedup-merge —
over that shard's relation slices, with the session context attached so
every operator keys its artifacts by the slices' *shard tokens*.  Shard
subplans always run with ``cores=1`` internally: the shard fan-out itself
is the unit of parallelism (it borrows the session's persistent
:class:`~repro.parallel.executor.ParallelExecutor` pool), and single-core
inner plans never touch that pool, so the fan-out cannot deadlock the way
nested ``map`` calls would.

Three output-sensitive escapes sit in front of that pipeline:

* **per-shard result cache** — when a session context is attached, every
  subquery's merged block is cached under its slices' shard tokens
  (``("shard", name, i, version)``), so a warm sharded query pays only the
  cross-shard merge and a write (``append`` / ``delete`` /
  ``update_shard``) recomputes exactly the touched shards' blocks while
  siblings re-serve theirs — the merged result itself is cached once, by
  the session's memo, not here;
* **heavy-shard rank-1 evaluation** — a heavy shard holds a single join
  key, so its two-path result is exactly the rectangle ``xs x zs`` of the
  key's neighbourhoods; it is emitted directly (in head-domain sub-blocks)
  instead of building a ``|xs| x 1 x |zs|`` matrix product;
* **head-domain sub-block skipping** — under set semantics, a heavy
  shard's sub-block provably adds no new pairs when its head values and
  witnesses are covered by an already-emitted rectangle (the saturated
  dense core case, where every heavy shard spans the full head domain);
  covered head values are dropped before any pair is materialised.

The cross-shard merge is the same columnar machinery the operators use:
one concatenation of the per-shard :class:`~repro.data.pairblock.PairBlock`
results plus a single packed-key sort (with summed witness counts
under counting mode — witness populations are disjoint across shards, so
the sums are exact).

Per-shard costs, strategies and backends roll up into one
:class:`~repro.plan.explain.PlanExplanation` whose ``shard_reports`` carry
the per-shard breakdown that ``explain()`` renders as a table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MMJoinConfig
from repro.data.pairblock import CountedPairBlock, PairBlock
from repro.errors import (
    AdmissionRejected,
    QueryTimeoutError,
    ShardFailure,
    WorkerCrashError,
)
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    SITE_SHARD_SUBPLAN,
    RetryPolicy,
    fault_site,
    run_with_retry,
)
from repro.obs.trace import current_trace
from repro.obs.trace import span as obs_span
from repro.plan.explain import OperatorReport, PlanExplanation
from repro.plan.planner import Planner, PhysicalPlan
from repro.plan.query import TwoPathQuery
from repro.shard.router import RoutedQuery, ShardSubquery

PlannerFactory = Callable[[MMJoinConfig], Planner]

# Pairs materialised per heavy-shard head sub-block; bounds the size of one
# emission (and is the granularity of the containment skip accounting).
SUB_BLOCK_PAIRS = 1 << 18

# A heavy shard's full rectangle: the sorted distinct head values on each
# side of its single join key.
Rectangle = Tuple[np.ndarray, np.ndarray]

@dataclass
class ShardedResult:
    """Merged output of one sharded execution."""

    result_block: Optional[PairBlock]
    result_counted: Optional[CountedPairBlock]
    explanation: PlanExplanation
    shard_explanations: List[PlanExplanation] = field(default_factory=list)


@dataclass
class _ShardOutcome:
    """One subquery's blocks + explanation (from cache, rank-1 or planner)."""

    block: Optional[PairBlock]
    counted: Optional[CountedPairBlock]
    explanation: PlanExplanation
    rect: Optional[Rectangle] = None  # full heavy rectangle present in output
    failed: Optional[ShardFailure] = None  # subplan gave up after its retries


@dataclass
class _FailedShard:
    """Sentinel a shard subplan task returns after exhausting its retries.

    Returned (not raised) so a parallel ``executor.map`` fan-out completes
    and sibling shards' results survive; the caller decides whether the
    failure aborts the query or degrades it to a partial result.
    """

    error: BaseException
    attempts: int


# What a shard subplan retry answers: crashed/hung workers, allocation
# failures, and transient backend/runtime errors.  Deliberately excludes the
# control-flow errors (QueryTimeoutError, AdmissionRejected) — those are
# decisions, not failures, and must propagate immediately.
_SHARD_RETRYABLE = (WorkerCrashError, MemoryError, RuntimeError, OSError)


def _failed_outcome(sub: ShardSubquery, failed: _FailedShard) -> _ShardOutcome:
    """Wrap an exhausted subplan failure as an outcome sibling results keep."""
    failure = ShardFailure(
        f"shard {sub.shard!r} subplan failed after {failed.attempts} "
        f"attempt(s): {type(failed.error).__name__}: {failed.error}",
        shard=sub.shard,
        attempts=failed.attempts,
    )
    failure.__cause__ = failed.error
    explanation = PlanExplanation(
        query_kind=sub.query.kind,
        strategy="failed",
        backend="none",
        delta1=0,
        delta2=0,
        operators=[OperatorReport(
            operator="shard_subplan",
            status="failed",
            detail={
                "error": f"{type(failed.error).__name__}: {failed.error}",
                "attempts": failed.attempts,
            },
        )],
        shard=sub.shard,
    )
    return _ShardOutcome(block=None, counted=None, explanation=explanation,
                         failed=failure)


def _concat_counted(blocks: List[CountedPairBlock], arity: int) -> CountedPairBlock:
    """One ``np.concatenate`` per column across all non-empty blocks."""
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return CountedPairBlock.empty(arity)
    if len(blocks) == 1:
        return blocks[0]
    return CountedPairBlock(
        tuple(
            np.concatenate([block.columns[j] for block in blocks])
            for j in range(blocks[0].arity)
        ),
        np.concatenate([block.counts for block in blocks]),
    )


def _cache_counts(explanation: PlanExplanation) -> Dict[str, int]:
    hits = sum(1 for op in explanation.operators if op.detail.get("cache") == "hit")
    misses = sum(1 for op in explanation.operators if op.detail.get("cache") == "miss")
    return {"cache_hits": hits, "cache_misses": misses}


# --------------------------------------------------------------------------- #
# Per-shard result cache
# --------------------------------------------------------------------------- #
def _result_key(context: Any, sub: ShardSubquery, counting: bool,
                config: MMJoinConfig) -> Optional[Any]:
    """Cache key of one subquery's merged block, or ``None`` when unkeyable."""
    if context is None:
        return None
    return context.key(
        "shard_result", sub.query.join_relations(), sub.query.kind,
        counting, config,
    )


def _outcome_nbytes(outcome: _ShardOutcome) -> int:
    total = 0
    if outcome.block is not None:
        total += outcome.block.nbytes
    if outcome.counted is not None:
        total += outcome.counted.nbytes
    return total


def _cached_outcome(sub: ShardSubquery, value: Any, seconds: float) -> _ShardOutcome:
    """Rebuild an outcome from a result-cache entry (counts as one hit)."""
    block, counted, meta = value
    output_size = len(block) if block is not None else 0
    explanation = PlanExplanation(
        query_kind=sub.query.kind,
        strategy=str(meta.get("strategy", "cached")),
        backend=str(meta.get("backend", "-")),
        delta1=0,
        delta2=0,
        operators=[OperatorReport(
            operator="shard_result_cache",
            status="ran",
            actual_seconds=seconds,
            detail={"cache": "hit", "output_size": output_size},
        )],
        total_seconds=seconds,
        output_size=output_size,
        shard=sub.shard,
    )
    return _ShardOutcome(block=block, counted=counted, explanation=explanation,
                         rect=meta.get("rect"))


# --------------------------------------------------------------------------- #
# Heavy-shard rank-1 evaluation with head-domain sub-blocking
# --------------------------------------------------------------------------- #
def _heavy_rectangle(sub: ShardSubquery) -> Optional[Rectangle]:
    """The shard's output rectangle when it is a single-witness two-path.

    A heavy shard holds exactly one join key by construction; the guard
    re-checks that on the actual slices so a malformed layout falls back to
    the full planner pipeline instead of producing wrong output.
    """
    if not isinstance(sub.query, TwoPathQuery):
        return None
    left, right = sub.query.join_relations()
    left_keys = left.y_values()
    right_keys = right.y_values()
    if left_keys.size != 1 or right_keys.size != 1:
        return None
    if int(left_keys[0]) != int(right_keys[0]):
        return None
    return left.x_values(), right.x_values()


def _is_subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether sorted distinct ``a`` is contained in sorted distinct ``b``."""
    if a.size == 0:
        return True
    if a.size > b.size:
        return False
    return bool(np.isin(a, b, assume_unique=True).all())


def _emit_heavy(
    rect: Rectangle,
    counting: bool,
    emitted_rects: List[Rectangle],
    detail: Dict[str, Any],
    sub_block_pairs: int = SUB_BLOCK_PAIRS,
) -> Tuple[PairBlock, Optional[CountedPairBlock], bool]:
    """Materialise a heavy shard's rectangle in head-domain sub-blocks.

    Under set semantics, a head value ``x`` adds no new pairs when some
    already-emitted rectangle ``(X, Z)`` covers it (``x in X``) together
    with this shard's whole witness-neighbourhood ``zs`` (``zs subset Z``)
    — its sub-block row is skipped before any pair is materialised.  Under
    counting semantics nothing is skipped (every shard's witness adds 1 to
    each pair's count) and the full rectangle is emitted.

    Returns ``(block, counted, full)`` where ``full`` says the emission
    covered the entire rectangle (only full emissions are cacheable: a
    reduced emission depends on sibling shards' rectangles).
    """
    xs, zs = rect
    covered: List[np.ndarray] = []
    if not counting:
        covered = [X for X, Z in emitted_rects if _is_subset(zs, Z)]
    rows_per_block = max(1, int(sub_block_pairs) // max(int(zs.size), 1))
    parts_x: List[np.ndarray] = []
    parts_z: List[np.ndarray] = []
    blocks_total = 0
    blocks_skipped = 0
    emitted_head = 0
    for lo in range(0, int(xs.size), rows_per_block):
        chunk = xs[lo: lo + rows_per_block]
        blocks_total += 1
        for X in covered:
            chunk = chunk[~np.isin(chunk, X, assume_unique=True)]
            if chunk.size == 0:
                break
        if chunk.size == 0:
            blocks_skipped += 1
            continue
        emitted_head += int(chunk.size)
        parts_x.append(np.repeat(chunk, zs.size))
        parts_z.append(np.tile(zs, chunk.size))
    if parts_x:
        x_col = np.concatenate(parts_x)
        z_col = np.concatenate(parts_z)
        block = PairBlock((x_col, z_col), deduped=True)
    else:
        block = PairBlock.empty(2)
    counted = None
    if counting:
        # One shard holds one witness, so every emitted pair has count 1.
        counted = CountedPairBlock(
            block.columns, np.ones(len(block), dtype=np.int64), deduped=True
        )
    detail.update({
        "head_values": int(xs.size),
        "head_values_emitted": emitted_head,
        "head_values_skipped": int(xs.size) - emitted_head,
        "witness_partners": int(zs.size),
        "sub_blocks_total": blocks_total,
        "sub_blocks_skipped": blocks_skipped,
    })
    return block, counted, emitted_head == int(xs.size)


def _heavy_outcome(sub: ShardSubquery, counting: bool,
                   emitted_rects: List[Rectangle],
                   rect: Rectangle) -> Tuple[_ShardOutcome, bool]:
    """Evaluate one heavy shard directly; returns (outcome, cacheable)."""
    start = time.perf_counter()
    detail: Dict[str, Any] = {}
    block, counted, full = _emit_heavy(rect, counting, emitted_rects, detail)
    seconds = time.perf_counter() - start
    skipped_whole = len(block) == 0 and int(rect[0].size) > 0
    explanation = PlanExplanation(
        query_kind=sub.query.kind,
        strategy="heavy_skipped" if skipped_whole else "heavy_direct",
        backend="rank1",
        delta1=0,
        delta2=0,
        operators=[OperatorReport(
            operator="heavy_shard_rectangle",
            status="ran",
            actual_seconds=seconds,
            detail=detail,
        )],
        total_seconds=seconds,
        output_size=len(block),
        shard=sub.shard,
    )
    outcome = _ShardOutcome(
        block=block,
        counted=counted,
        explanation=explanation,
        # Register the *full* rectangle even after a reduced emission:
        # skipped head values were dropped precisely because earlier
        # registered rectangles already cover them, so the union of emitted
        # blocks still contains all of it.
        rect=rect,
    )
    return outcome, full


# --------------------------------------------------------------------------- #
# Per-shard evaluation (cache -> rank-1 -> planner)
# --------------------------------------------------------------------------- #
def _evaluate_subqueries(
    subqueries: Sequence[ShardSubquery],
    counting: bool,
    context: Optional[Any],
    planner_for: PlannerFactory,
    shard_config: MMJoinConfig,
    executor: Optional[Any],
    retry_policy: Optional[RetryPolicy] = None,
) -> List[_ShardOutcome]:
    """Evaluate every subquery; returns the outcomes in subquery order.

    Each subquery goes per-shard result cache -> heavy rank-1 rectangle ->
    planner pipeline, with fresh results cached under their shard-token
    keys (``context=None`` is the stateless form: nothing is keyable).

    A subplan that keeps failing after ``retry_policy`` retries comes back
    as a failed outcome (``_ShardOutcome.failed``) rather than aborting the
    fan-out, so sibling shards' results survive for partial serving.
    """
    outcomes: Dict[int, _ShardOutcome] = {}

    # ---- per-shard result cache: serve warm shards outright -------------- #
    misses: List[Tuple[int, Any]] = []
    for i, sub in enumerate(subqueries):
        key = _result_key(context, sub, counting, shard_config)
        if key is not None:
            lookup_start = time.perf_counter()
            with obs_span("cache_lookup", kind="shard_result",
                          shard=sub.shard) as sp:
                found, value = context.artifacts.lookup(key)
            sp.set("outcome", "hit" if found else "miss")
            if found:
                outcomes[i] = _cached_outcome(
                    sub, value, time.perf_counter() - lookup_start
                )
                continue
        misses.append((i, key))

    # ---- heavy rank-1 shards: direct rectangle evaluation ---------------- #
    planner_misses: List[Tuple[int, Any]] = []
    heavy_misses: List[Tuple[int, Any, Rectangle]] = []
    for i, key in misses:
        sub = subqueries[i]
        rect = _heavy_rectangle(sub) if sub.kind == "heavy" else None
        if rect is not None:
            heavy_misses.append((i, key, rect))
        else:
            planner_misses.append((i, key))

    # Rectangles already present in the output (warm heavy shards) seed the
    # containment skip; fresh rectangles are processed largest-first so a
    # saturated dense core collapses onto a single emission.  The skip is
    # closed over this call's outcome set only, so a reduced emission is
    # always covered by rectangles that are themselves part of the output.
    emitted_rects: List[Rectangle] = [
        outcome.rect for outcome in outcomes.values()
        if outcome.rect is not None
    ]
    heavy_misses.sort(key=lambda item: -(int(item[2][0].size) * int(item[2][1].size)))
    for i, key, rect in heavy_misses:
        sub = subqueries[i]
        outcome, full = _heavy_outcome(sub, counting, emitted_rects, rect)
        if outcome.rect is not None:
            emitted_rects.append(outcome.rect)
        if key is not None and full:
            # Only a full emission is a pure function of this shard's slices
            # (a reduced one depends on sibling rectangles) — cache it.
            meta = {
                "strategy": outcome.explanation.strategy,
                "backend": outcome.explanation.backend,
                "rect": rect,
            }
            context.artifacts.put(
                key, (outcome.block, outcome.counted, meta),
                _outcome_nbytes(outcome),
            )
        outcomes[i] = outcome

    # ---- everything else: the ordinary per-shard planner pipeline -------- #
    policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY

    def run_one(sub: ShardSubquery) -> Any:
        retries = 0

        def attempt() -> PhysicalPlan:
            fault_site(SITE_SHARD_SUBPLAN)
            plan = planner_for(shard_config).create_plan(
                sub.query, shard=sub.shard
            )
            plan.execute()
            return plan

        def on_retry(attempt_no: int, exc: BaseException) -> None:
            nonlocal retries
            retries = attempt_no
            trace = current_trace()
            if trace is not None and trace.metrics is not None:
                trace.metrics.inc("repro_retries_total", scope="shard")

        try:
            return run_with_retry(attempt, policy=policy,
                                  retryable=_SHARD_RETRYABLE,
                                  on_retry=on_retry)
        except (QueryTimeoutError, AdmissionRejected):
            raise  # decisions, not failures: abort the whole fan-out
        except Exception as exc:
            trace = current_trace()
            if trace is not None and trace.metrics is not None:
                trace.metrics.inc("repro_shard_failures_total",
                                  shard=str(sub.shard))
            return _FailedShard(error=exc, attempts=retries + 1)

    pending = [subqueries[i] for i, _ in planner_misses]
    if executor is not None and len(pending) > 1:
        plans = executor.map(run_one, pending)
    else:
        plans = [run_one(sub) for sub in pending]
    for (i, key), plan in zip(planner_misses, plans):
        if isinstance(plan, _FailedShard):
            outcomes[i] = _failed_outcome(subqueries[i], plan)
            continue
        state = plan.state
        outcome = _ShardOutcome(
            block=state.result_block if state is not None else None,
            counted=state.result_counted if state is not None else None,
            explanation=plan.explain(),
        )
        if key is not None:
            meta = {
                "strategy": outcome.explanation.strategy,
                "backend": outcome.explanation.backend,
            }
            context.artifacts.put(
                key, (outcome.block, outcome.counted, meta),
                _outcome_nbytes(outcome),
            )
        outcomes[i] = outcome

    return [outcomes[i] for i in range(len(subqueries))]


# --------------------------------------------------------------------------- #
# Sharded execution
# --------------------------------------------------------------------------- #
def execute_sharded(
    routed: RoutedQuery,
    planner_for: PlannerFactory,
    config: MMJoinConfig,
    executor: Optional[Any] = None,
    context: Optional[Any] = None,
    partial_results: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
) -> ShardedResult:
    """Run every shard subquery and merge the results.

    Parameters
    ----------
    planner_for:
        ``config -> Planner`` (the session's cached, context-wired planners).
    executor:
        An object with ``map(func, items)`` (the session's persistent
        :class:`~repro.parallel.executor.ParallelExecutor`) used to fan the
        shard subplans out when ``config.cores > 1``; ``None`` or one
        subquery runs serially.
    context:
        The session's :class:`~repro.serve.session.SessionContext`; holds
        the artifact cache the per-shard result cache lives in.  ``None``
        is the stateless form: every subquery re-evaluates (the heavy-shard
        rank-1 path stays on either way — it is an evaluation strategy, not
        a cache).
    partial_results:
        When a shard subplan exhausts its retries, serve the completed
        shards' union (set semantics only — a partial union is a sound
        under-approximation) with ``session_stats["partial"] = True``
        instead of raising :class:`~repro.errors.ShardFailure`.  Counting
        queries always raise: partial witness counts are not meaningful.
    retry_policy:
        Per-shard retry schedule (``None`` uses the default policy).
    """
    start = time.perf_counter()
    shard_config = config.with_cores(1) if config.cores > 1 else config
    counting = routed.counting

    with obs_span("shard_fanout", shards=len(routed.subqueries)):
        outcomes = _evaluate_subqueries(
            routed.subqueries, counting, context, planner_for, shard_config,
            executor if config.cores > 1 else None, retry_policy,
        )

    # ---- per-shard failure isolation ------------------------------------- #
    failures = [outcome.failed for outcome in outcomes
                if outcome.failed is not None]
    if failures and (counting or not partial_results):
        # Counting queries never degrade: a partial sum of witness counts
        # is wrong, not approximate.
        raise failures[0]

    # ---- cross-shard merge (one concat + one packed-key sort) ------------ #
    merge_start = time.perf_counter()
    arity = routed.arity
    with obs_span("shard_merge", shards=len(outcomes)):
        if counting:
            counted_blocks = [
                outcome.counted for outcome in outcomes
                if outcome.counted is not None
            ]
            merged_counted = _concat_counted(counted_blocks, arity).dedup(reduce="sum")
            merged_block = merged_counted.pairs_block()
        else:
            blocks = [
                outcome.block for outcome in outcomes
                if outcome.block is not None
            ]
            merged_counted = None
            merged_block = PairBlock.concat_all(blocks, arity=arity).dedup()
    merge_seconds = time.perf_counter() - merge_start

    shard_explanations = [outcome.explanation for outcome in outcomes]
    explanation = _rollup(
        routed, config, shard_explanations, merged_block,
        merge_seconds=merge_seconds,
        total_seconds=time.perf_counter() - start,
    )
    return ShardedResult(
        result_block=merged_block,
        result_counted=merged_counted,
        explanation=explanation,
        shard_explanations=shard_explanations,
    )


def _rollup(
    routed: RoutedQuery,
    config: MMJoinConfig,
    shard_explanations: List[PlanExplanation],
    merged_block: PairBlock,
    merge_seconds: float,
    total_seconds: float,
) -> PlanExplanation:
    """Aggregate per-shard explanations into one plan-level explanation."""
    operators: Dict[str, OperatorReport] = {}
    order: List[str] = []
    for sub_exp in shard_explanations:
        for op in sub_exp.operators:
            agg = operators.get(op.operator)
            if agg is None:
                agg = OperatorReport(operator=op.operator, status="skipped",
                                     detail={"shards_ran": 0})
                operators[op.operator] = agg
                order.append(op.operator)
            agg.estimated_cost += float(op.estimated_cost)
            agg.actual_seconds += float(op.actual_seconds)
            if op.status == "ran":
                agg.status = "ran"
                agg.detail["shards_ran"] = agg.detail.get("shards_ran", 0) + 1
            elif op.status == "failed":
                agg.status = "failed"
                agg.detail["shards_failed"] = (
                    agg.detail.get("shards_failed", 0) + 1
                )
                if "error" in op.detail:
                    agg.detail["error"] = op.detail["error"]
                if "attempts" in op.detail:
                    agg.detail["attempts"] = int(op.detail["attempts"])
            for key in ("memory_in_bytes", "memory_out_bytes",
                        "memory_full_scan_bytes",
                        "sub_blocks_total", "sub_blocks_skipped",
                        "head_values_skipped",
                        "extract_tiles_total", "extract_tiles_skipped",
                        "extract_tiles_saturated"):
                if key in op.detail:
                    agg.detail[key] = agg.detail.get(key, 0) + int(op.detail[key])
            # Per-shard extraction choices compose: hash shards may resolve
            # different modes (and dense-core geometries) than each other
            # and than the heavy shards' rank-1 rectangles; surface the set.
            if "extract_mode" in op.detail:
                modes = set(agg.detail.get("extract_modes", ()))
                modes.add(str(op.detail["extract_mode"]))
                agg.detail["extract_modes"] = tuple(sorted(modes))
            if "dense_core_shape" in op.detail:
                shape = tuple(op.detail["dense_core_shape"])
                previous = agg.detail.get("dense_core_shape", (0, 0))
                if shape[0] * shape[1] >= previous[0] * previous[1]:
                    agg.detail["dense_core_shape"] = shape
                    agg.detail["dense_core_density"] = float(
                        op.detail.get("dense_core_density", 0.0)
                    )
            # A peak aggregates with max, not sum: shard subplans run one at
            # a time per worker, so the largest shard's transient is the
            # plan-level peak.
            if "memory_extract_peak_bytes" in op.detail:
                agg.detail["memory_extract_peak_bytes"] = max(
                    agg.detail.get("memory_extract_peak_bytes", 0),
                    int(op.detail["memory_extract_peak_bytes"]),
                )
            cache = op.detail.get("cache")
            if cache in ("hit", "miss"):
                counter = f"cache_{cache}es" if cache == "miss" else "cache_hits"
                agg.detail[counter] = agg.detail.get(counter, 0) + 1

    reports = [operators[name] for name in order]
    reports.append(OperatorReport(
        operator="shard_merge",
        status="ran",
        actual_seconds=merge_seconds,
        detail={"shards_merged": len(shard_explanations),
                "output_size": len(merged_block)},
    ))

    backends = sorted({
        sub_exp.backend for sub_exp in shard_explanations
        if any(op.operator == "matmul_heavy" and op.status == "ran"
               for op in sub_exp.operators)
    })
    shards_failed = sum(
        1 for sub_exp in shard_explanations if sub_exp.strategy == "failed"
    )
    result_cache_hits = 0
    shard_reports: List[Dict[str, Any]] = []
    for sub, sub_exp in zip(routed.subqueries, shard_explanations):
        counts = _cache_counts(sub_exp)
        cached = any(op.operator == "shard_result_cache" for op in sub_exp.operators)
        result_cache_hits += int(cached)
        shard_reports.append({
            "shard": sub.shard,
            "kind": sub.kind,
            "input_tuples": sub.input_tuples,
            "strategy": sub_exp.strategy,
            "backend": sub_exp.backend,
            "output_size": sub_exp.output_size,
            "seconds": sub_exp.total_seconds,
            "result_cached": cached,
            **counts,
        })

    return PlanExplanation(
        query_kind=routed.query.kind,
        strategy="sharded",
        backend="+".join(backends) if backends else config.matrix_backend,
        delta1=0,
        delta2=0,
        operators=reports,
        total_seconds=total_seconds,
        estimated_total_cost=sum(e.estimated_total_cost for e in shard_explanations),
        estimated_output=sum(e.estimated_output for e in shard_explanations),
        output_size=len(merged_block),
        session_stats={
            "shards_planned": routed.num_shards,
            "shards_executed": len(routed.subqueries),
            "shards_skipped_empty": routed.skipped_empty,
            "shard_results_cached": result_cache_hits,
            "operator_cache_hits": sum(
                _cache_counts(e)["cache_hits"] for e in shard_explanations
            ),
            "operator_cache_misses": sum(
                _cache_counts(e)["cache_misses"] for e in shard_explanations
            ),
            **({"partial": True, "shards_failed": shards_failed}
               if shards_failed else {}),
        },
        shard_reports=shard_reports,
    )
