"""QuerySession: the serving layer over the plan/operator pipeline.

One-shot evaluation (``two_path_join`` and friends) pays full preprocessing
on every call: semijoin reduction, y-sorted probe layouts, degree statistics,
light/heavy partitioning and matmul operand construction are all rebuilt even
when the same relations are queried again.  A :class:`QuerySession` owns that
state across calls:

* a **catalog** of registered relations / set families with per-name version
  counters — re-registering a name bumps the version and invalidates every
  artifact derived from it;
* an **artifact cache** (:class:`~repro.serve.artifacts.ArtifactCache`) of
  derived state keyed by relation tokens ``("rel", name, version)``:
  semijoin-reduced relation lists (which keep their lazy ``sorted_by_y`` /
  index layouts warm), light/heavy partitions with their optimizer
  decisions, and matmul operand matrices;
* a **plan/result memo** (LRU, byte-budgeted) short-circuiting repeated
  queries entirely;
* a **batched / async API** — :meth:`QuerySession.submit_batch` groups
  compatible queries so semijoin-reduce and partition work is shared, then
  fans the rest out through the persistent parallel executor;
  :meth:`QuerySession.asubmit` serves the same evaluation from an asyncio
  event loop;
* a **cost feedback loop** (:class:`~repro.serve.feedback.CostFeedback`)
  folding each plan's estimated-vs-actual operator costs back into the
  session's shared :class:`~repro.matmul.cost_model.MatMulCostModel`, which
  both the optimizer and the backend registry consult;
* a **sharded execution layer** (``QuerySession(shards=K)`` +
  ``register(..., sharded=True)``): relations are hash-partitioned on the
  join attribute under one frozen skew-aware
  :class:`~repro.shard.spec.ShardingSpec`, queries route through per-shard
  subplans (merged by one concat + packed-key dedup), artifacts are keyed by
  per-shard tokens, and :meth:`QuerySession.update_shard` mutates one shard
  while sibling shards' cached artifacts stay warm.

The legacy one-shot functions are thin wrappers over a throwaway session,
so there is exactly one evaluation path in the repository.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import DEFAULT_CONFIG, MMJoinConfig
from repro.core.estimation import detect_heavy_join_keys
from repro.core.optimizer import CostBasedOptimizer
from repro.data.catalog import Catalog
from repro.data.pairblock import CountedPairBlock, PairBlock, lazy_view
from repro.data.relation import Relation
from repro.data.setfamily import SetFamily
from repro.errors import (
    AdmissionRejected,
    Deadline,
    QueryTimeoutError,
    StrictDeleteError,
    UnknownRelationError,
    install_deadline,
    restore_deadline,
)
from repro.faults import RetryPolicy
from repro.matmul.cost_model import MatMulCostModel
from repro.matmul.registry import BackendRegistry, make_default_registry
from repro.matmul.tiling import choose_tile_rows
from repro.obs.metrics import MetricsSnapshot
from repro.obs.telemetry import Telemetry
from repro.obs.trace import activate as trace_activate
from repro.obs.trace import annotate as obs_annotate
from repro.obs.trace import install as trace_install
from repro.obs.trace import restore as trace_restore
from repro.obs.trace import span as obs_span
from repro.parallel.executor import ParallelExecutor
from repro.plan.explain import PlanExplanation
from repro.plan.planner import Planner
from repro.plan.query import (
    ContainmentJoinQuery,
    JoinProjectQuery,
    SimilarityJoinQuery,
    StarQuery,
    TwoPathQuery,
)
from repro.serve.artifacts import (
    ArtifactCache,
    token_mentions,
    token_mentions_any_shard,
    token_mentions_write,
)
from repro.serve.feedback import CostFeedback
from repro.shard.executor import execute_sharded
from repro.shard.router import ShardRouter
from repro.shard.sharded import ShardedRelation
from repro.shard.spec import ShardingSpec


class SessionContext:
    """The session state the physical operators see.

    Operators duck-type against this object through ``state.session``: they
    ask for cache keys (``None`` when a relation is not session-tracked, in
    which case they fall back to stateless evaluation), consult
    :attr:`artifacts`, and borrow the persistent parallel executor.  Derived
    relations (e.g. the semijoin-reduced inputs) are *adopted* with derived
    tokens so artifacts computed from them remain keyable.
    """

    def __init__(self, artifacts: ArtifactCache,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.artifacts = artifacts
        self.retry_policy = retry_policy
        self._tokens: Dict[int, Tuple[Any, Relation]] = {}
        self._executors: Dict[int, ParallelExecutor] = {}
        self._lock = threading.RLock()

    # -- token bookkeeping -------------------------------------------------
    def bind(self, relation: Relation, token: Any) -> None:
        """Associate a relation object with a cache-key token."""
        with self._lock:
            self._tokens[id(relation)] = (token, relation)

    def adopt_derived(self, relations: Sequence[Relation], kind: str,
                      parent_tokens: Sequence[Any], extra: Any = None) -> None:
        """Bind derived relations under a token naming their derivation.

        A relation that is already bound (an input passed through unchanged)
        keeps its own token.
        """
        for position, relation in enumerate(relations):
            if self.token_for(relation) is None:
                self.bind(relation, ("drv", kind, tuple(parent_tokens), extra, position))

    def token_for(self, relation: Relation) -> Optional[Any]:
        entry = self._tokens.get(id(relation))
        return entry[0] if entry is not None else None

    def tokens_for(self, relations: Iterable[Relation]) -> Optional[Tuple[Any, ...]]:
        """Tokens for every relation, or ``None`` if any is untracked."""
        tokens = []
        for relation in relations:
            token = self.token_for(relation)
            if token is None:
                return None
            tokens.append(token)
        return tuple(tokens)

    def key(self, kind: str, relations: Sequence[Relation], *extra: Any) -> Optional[Any]:
        """A structured cache key, or ``None`` when not session-keyable."""
        tokens = self.tokens_for(relations)
        if tokens is None:
            return None
        return (kind, tokens) + tuple(extra)

    def unbind_relation(self, name: str) -> None:
        """Forget tokens (base and derived) referencing relation ``name``."""
        self.unbind_where(lambda token: token_mentions(token, name))

    def unbind_where(self, predicate: Callable[[Any], bool]) -> None:
        """Forget every binding whose token satisfies ``predicate``."""
        with self._lock:
            doomed = [obj_id for obj_id, (token, _) in self._tokens.items()
                      if predicate(token)]
            for obj_id in doomed:
                del self._tokens[obj_id]

    # -- shared execution resources ---------------------------------------
    def executor(self, cores: int) -> ParallelExecutor:
        """A persistent (pool-reusing) executor for ``cores`` workers."""
        cores = max(int(cores), 1)
        with self._lock:
            executor = self._executors.get(cores)
            if executor is None:
                executor = ParallelExecutor(cores=cores, persistent=True,
                                            retry_policy=self.retry_policy)
                self._executors[cores] = executor
            return executor

    def close(self) -> None:
        with self._lock:
            for executor in self._executors.values():
                executor.close()
            self._executors.clear()


@dataclass
class SessionResult:
    """One served query: columnar result plus execution metadata.

    ``pairs`` / ``counts`` materialise Python sets/dicts lazily — the session
    keeps everything columnar so memo entries and batch fan-out never pay the
    tuple-conversion cost unless a consumer asks for it.
    """

    query_kind: str
    result_block: Optional[PairBlock]
    result_counted: Optional[CountedPairBlock]
    explanation: Optional[PlanExplanation]
    seconds: float
    from_memo: bool = False
    plan: Optional[Any] = None  # PhysicalPlan when freshly executed
    # Telemetry: the id of the trace recorded for this call (None when the
    # session's telemetry is disabled).  Feeds `repro-cli trace <id>`.
    trace_id: Optional[str] = None

    pairs = lazy_view("result_block", "to_set", default=set)
    counts = lazy_view("result_counted", "to_dict")

    @property
    def output_size(self) -> int:
        return len(self.result_block) if self.result_block is not None else 0

    def __len__(self) -> int:
        return self.output_size

    @property
    def partial(self) -> bool:
        """True when failed shards were skipped (``partial_results=True``)."""
        explanation = self.explanation
        return bool(explanation is not None
                    and explanation.session_stats.get("partial"))

    @property
    def strategy(self) -> str:
        return self.explanation.strategy if self.explanation is not None else "unknown"

    @property
    def backend(self) -> str:
        return self.explanation.backend if self.explanation is not None else "unknown"

    def explain(self) -> str:
        """Human-readable plan explanation (memo hits keep the original's)."""
        if self.explanation is None:
            return "no plan explanation available"
        text = self.explanation.format()
        if self.from_memo:
            text = "result served from session memo (original execution below)\n" + text
        return text


def _delta_rows(rows: Any) -> np.ndarray:
    """Normalise a write's rows to an ``(n, 2)`` int64 array."""
    if isinstance(rows, Relation):
        return np.asarray(rows.data)
    if not isinstance(rows, np.ndarray):
        rows = np.asarray(list(rows), dtype=np.int64)
    arr = np.asarray(rows, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return arr.reshape(-1, 2)


def _blocks_nbytes(value: Tuple[Optional[PairBlock], Optional[CountedPairBlock], Any]) -> int:
    block, counted, _ = value
    total = 0
    if block is not None:
        total += block.nbytes
    if counted is not None:
        total += counted.nbytes
    return total


class QuerySession:
    """A long-lived serving session over registered relations.

    Parameters
    ----------
    config:
        Default evaluation knobs; per-call overrides go through the query
        methods' keyword arguments.
    registry / cost_model:
        Shared matmul state.  By default the session builds its **own**
        cost model and registry so in-session feedback calibration never
        leaks into other sessions or the process-wide defaults.
    artifact_bytes / memo_bytes:
        LRU byte budgets of the derived-artifact cache and the plan/result
        memo (``None`` = unbounded).
    feedback:
        When True (default), every executed plan's estimated-vs-actual costs
        are recorded and measured heavy products calibrate the cost model.
    shards:
        Number of hash shards for relations registered with
        ``sharded=True``.  With ``shards > 1`` the session freezes one
        skew-aware :class:`~repro.shard.spec.ShardingSpec` (heavy-hitter
        join keys get dedicated shards on top of the hash shards), routes
        queries over sharded relations through per-shard subplans, and
        supports :meth:`update_shard` — single-shard mutation that leaves
        sibling shards' cached artifacts warm.  ``shards=1`` (default)
        disables routing; ``sharded=True`` registrations then behave like
        ordinary ones.
    heavy_key_factor:
        A join key is isolated into a dedicated heavy shard when its degree
        exceeds ``heavy_key_factor * N / shards`` (see
        :func:`~repro.core.estimation.detect_heavy_join_keys`).  Lower it
        for workloads whose head-domain bound caps per-key degrees well
        below a fair shard's share.
    lazy_merge_rows:
        Write-absorption threshold of the streaming path: an
        :meth:`append` / :meth:`delete` delta whose target shard's total
        pending rows stay within this bound is buffered on the shard as a
        pending delta block and folded on the next read (or when a later
        write trips the threshold).  ``0`` folds every write eagerly.
    telemetry:
        Observability knob: ``True`` (default) gives the session its own
        trace/metrics/slow-log substrate, ``False`` degrades every hook to
        a no-op, and a :class:`~repro.obs.telemetry.TelemetryConfig` or a
        prebuilt :class:`~repro.obs.telemetry.Telemetry` customises the
        slow-query threshold / shares one registry across sessions.  See
        :meth:`metrics` and :attr:`Telemetry.slow_log`.
    memory_budget_bytes:
        Admission-control budget for one query's extraction transient
        (``None`` = admit everything).  Queries whose estimated dense
        temporary exceeds it are forced onto tiled extraction when a band
        fits, and rejected with :class:`~repro.errors.AdmissionRejected`
        otherwise.  See :meth:`submit`.
    retry_policy:
        Retry schedule for crashed/hung pool workers and failing shard
        subplans (``None`` = the default bounded jittered-exponential
        policy, :data:`~repro.faults.DEFAULT_RETRY_POLICY`).
    """

    def __init__(
        self,
        config: MMJoinConfig = DEFAULT_CONFIG,
        registry: Optional[BackendRegistry] = None,
        cost_model: Optional[MatMulCostModel] = None,
        artifact_bytes: Optional[int] = 256 << 20,
        memo_bytes: Optional[int] = 64 << 20,
        feedback: bool = True,
        shards: int = 1,
        heavy_key_factor: float = 0.5,
        lazy_merge_rows: int = 4096,
        telemetry: Any = True,
        memory_budget_bytes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.config = config
        self.telemetry = Telemetry.coerce(telemetry)
        self.memory_budget_bytes = (
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        )
        self.retry_policy = retry_policy
        if registry is not None:
            self.registry = registry
            self.cost_model = cost_model if cost_model is not None else registry.cost_model
        else:
            self.cost_model = cost_model if cost_model is not None else MatMulCostModel()
            self.registry = make_default_registry(cost_model=self.cost_model)
        self.catalog = Catalog()
        self.artifacts = ArtifactCache(artifact_bytes, name="artifacts")
        self.memo = ArtifactCache(memo_bytes, name="memo")
        self.context = SessionContext(self.artifacts, retry_policy=retry_policy)
        self.feedback = CostFeedback(cost_model=self.cost_model if feedback else None)
        self._feedback_enabled = bool(feedback)
        self._versions: Dict[str, int] = {}
        self._families: Dict[str, SetFamily] = {}
        self._planners: Dict[MMJoinConfig, Planner] = {}
        self._anon_ids = itertools.count(1)
        # Ad-hoc relations auto-register so their artifacts are keyable, but
        # a long-lived session must not pin every relation it ever served:
        # anonymous registrations are evicted FIFO beyond this bound.
        self.max_anon_relations = 256
        self._anon_names: "deque[str]" = deque()
        self._async_pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.RLock()
        self.queries_served = 0
        # Sharded execution state (active when shards > 1 and at least one
        # relation registered with sharded=True).
        self.shards = max(int(shards), 1)
        self.heavy_key_factor = float(heavy_key_factor)
        self.lazy_merge_rows = max(int(lazy_merge_rows), 0)
        self._sharded_names: Set[str] = set()
        self._sharded: Dict[str, ShardedRelation] = {}
        self._shard_versions: Dict[Tuple[str, int], int] = {}
        self._sharding_spec: Optional[ShardingSpec] = None
        # The router sits on the session, so a bound-method resolver would
        # make every session a reference cycle that only a full collection
        # frees; the weak method keeps a closed session plain refcounted.
        resolve = weakref.WeakMethod(self._resolve_sharded)
        self._router = ShardRouter(lambda relation: resolve()(relation))
        self._shard_counters: Dict[int, Dict[str, int]] = {}
        # The persistent pools must not outlive the interpreter even when a
        # caller forgets close(): close() is idempotent and atexit-backed
        # (and unregisters itself once run).
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # Catalog management
    # ------------------------------------------------------------------ #
    def register(self, relation: Relation, name: Optional[str] = None,
                 sharded: bool = False) -> str:
        """Register (or re-register) a relation; returns its catalog name.

        Re-registering an existing name is the mutation path: the version is
        bumped and every cached artifact or memoized result derived from the
        old data is invalidated — for a sharded name that includes **all**
        shard tokens (use :meth:`update_shard` for shard-scoped mutation).

        ``sharded=True`` (with a ``shards > 1`` session) partitions the
        relation on the join attribute under the session's skew-aware spec;
        queries touching only sharded relations then run as per-shard
        subplans.
        """
        key = name or relation.name
        with self._lock:
            version = self._versions.get(key, -1) + 1
            self._versions[key] = version
            if version > 0:
                self._invalidate(key)
            self.catalog.add(relation, name=key)
            self.context.bind(relation, ("rel", key, version))
            if sharded:
                # A shards=1 session still builds the (single-shard)
                # container so update_shard works uniformly; the router
                # falls back to unsharded evaluation for such specs.
                self._sharded_names.add(key)
                self._rebuild_sharding(new_name=key)
            else:
                self._drop_sharding(key)
        return key

    def register_family(self, family: SetFamily, name: Optional[str] = None,
                        sharded: bool = False) -> str:
        """Register a set family (its backing relation joins the catalog)."""
        key = self.register(family.relation, name=name, sharded=sharded)
        with self._lock:
            self._families[key] = family
        return key

    def update(self, name: str, relation: Relation) -> str:
        """Replace the data under an existing name (bumps the version).

        A sharded name stays sharded: the new data is re-partitioned and
        every shard token is invalidated along with the base artifacts.
        """
        if name not in self.catalog:
            raise UnknownRelationError(
                f"cannot update unregistered relation {name!r}"
            )
        with self._lock:
            self._families.pop(name, None)
            return self.register(relation, name=name,
                                 sharded=name in self._sharded_names)

    def remove(self, name: str) -> None:
        """Drop a relation and everything derived from it."""
        with self._lock:
            self.catalog.remove(name)
            self._families.pop(name, None)
            self._versions.pop(name, None)
            self._drop_sharding(name)
            self._invalidate(name)

    def _invalidate(self, name: str) -> None:
        self.artifacts.invalidate_relation(name)
        self.memo.invalidate_relation(name)
        self.context.unbind_relation(name)

    def _invalidate_write(self, name: str, shards: Collection[int]) -> None:
        """Shard-scoped sweep shared by append, delete and ``update_shard``.

        Drops the touched shards' artifacts and anything keyed on the whole
        relation (memo, unsharded artifacts), and unbinds every version of
        the touched tokens — so it must run BEFORE the new generation is
        bound.  Sibling-shard entries survive.
        """
        self.artifacts.invalidate_write(name, shards)
        self.memo.invalidate_write(name, shards)
        self.context.unbind_where(
            lambda token: token_mentions_write(token, name, shards)
        )

    def _bind_shard(self, name: str, shard: int, relation: Relation) -> None:
        """Bind ``relation`` as the next generation of one shard's token."""
        version = self._shard_versions.get((name, shard), -1) + 1
        self._shard_versions[(name, shard)] = version
        self.context.bind(relation, ("shard", name, shard, version))

    def _bind_written_base(self, name: str, container: ShardedRelation) -> None:
        """Bump ``name``'s version over the container's (lazy) combined view."""
        version = self._versions[name] + 1
        self._versions[name] = version
        base = container.combined()
        self.catalog.add(base, name=name)
        self.context.bind(base, ("rel", name, version))
        self._families.pop(name, None)

    # ------------------------------------------------------------------ #
    # Sharding management
    # ------------------------------------------------------------------ #
    @property
    def sharding_spec(self) -> Optional[ShardingSpec]:
        """The session's frozen key -> shard assignment (None until built)."""
        return self._sharding_spec

    def sharded(self, name: str) -> ShardedRelation:
        """The sharded container of a sharded-registered relation."""
        with self._lock:
            container = self._sharded.get(name)
            if container is None:
                raise UnknownRelationError(
                    f"relation {name!r} is not registered sharded"
                )
            return container

    def _drop_sharding(self, name: str) -> None:
        with self._lock:
            self._sharded_names.discard(name)
            if self._sharded.pop(name, None) is not None:
                doomed = [k for k in self._shard_versions if k[0] == name]
                for k in doomed:
                    del self._shard_versions[k]

    def _rebuild_sharding(self, new_name: Optional[str] = None) -> None:
        """(Re)compute the spec and partition whatever it newly covers.

        The spec's heavy keys are the union of every sharded relation's
        heavy hitters (capped at ``shards`` extra shards, keeping the
        highest-degree keys).  If the spec changes — a registration brought
        new heavy keys — every sharded relation is re-partitioned so all of
        them keep agreeing on key placement; otherwise only the new name is
        partitioned.
        """
        with self._lock:
            heavy: Dict[int, int] = {}
            for name in sorted(self._sharded_names):
                for key, degree in detect_heavy_join_keys(
                    self.catalog.get(name), self.shards,
                    balance_factor=self.heavy_key_factor,
                ).items():
                    if degree > heavy.get(key, -1):
                        heavy[key] = degree
            if len(heavy) > self.shards:
                heavy = dict(sorted(
                    heavy.items(), key=lambda kv: (-kv[1], kv[0])
                )[: self.shards])
            spec = ShardingSpec(self.shards, sorted(heavy))
            if self._sharding_spec is not None and spec == self._sharding_spec:
                targets = [new_name] if new_name else []
            else:
                self._sharding_spec = spec
                targets = sorted(self._sharded_names)
            for name in targets:
                if name in self._sharded and name != new_name:
                    # Re-partitioning does not change the data, so memo
                    # entries (keyed on base tokens) stay valid; only the
                    # now-unreachable shard artifacts are dropped — and the
                    # old shard Relation objects unbound, so the context
                    # does not pin one generation of data copies per respec.
                    self.artifacts.invalidate_shards(name)
                    self.memo.invalidate_shards(name)
                    self.context.unbind_where(
                        lambda token: token_mentions_any_shard(token, name)
                    )
                self._partition_name(name)

    def _partition_name(self, name: str) -> None:
        """Partition one relation under the frozen spec and bind shard tokens."""
        assert self._sharding_spec is not None
        container = ShardedRelation.partition(
            self.catalog.get(name), self._sharding_spec, name=name
        )
        self._sharded[name] = container
        for shard, shard_rel in enumerate(container.shards):
            self._bind_shard(name, shard, shard_rel)

    def update_shard(self, name: str, shard: int, rows: Any) -> str:
        """Replace one shard's tuples; sibling shards' artifacts stay warm.

        ``rows`` is a :class:`Relation` or an iterable of ``(x, y)`` pairs
        whose join keys must all map to ``shard`` under the session's spec
        (a shard-local update never moves tuples between shards).  The
        relation's version is bumped — memoized results and whole-relation
        artifacts are stale — but only the mutated shard's token changes, so
        every sibling shard re-serves its cached semijoin/partition/operand
        artifacts on the next query.  This is the incremental-update path:
        re-serving a previously-warm query costs one shard's pipeline plus
        the cross-shard merge.
        """
        with self._lock:
            container = self.sharded(name)  # raises KeyError when unsharded
            shard = int(shard)
            if isinstance(rows, Relation):
                relation = rows
            else:
                # Keep array inputs columnar (no per-row Python objects);
                # the constructor sorts/dedups either way.
                relation = Relation(_delta_rows(rows), name=name)
            if len(relation) == 0 and len(container.shard(shard)) == 0:
                # Replacing an empty shard with no rows mutates nothing:
                # skip the version bumps and the invalidation sweep.
                return name
            stored = container.replace_shard(shard, relation)  # validates keys
            self._invalidate_write(name, {shard})
            self._bind_shard(name, shard, stored)
            self._bind_written_base(name, container)
        return name

    def append(self, name: str, rows: Any) -> str:
        """Append ``rows`` to a registered relation as a routed delta.

        ``rows`` is a :class:`Relation`, an ``(n, 2)`` array or an iterable
        of ``(x, y)`` pairs.  For a sharded registration the delta is
        hash-routed to its owning shards under the frozen spec: each
        touched shard absorbs its slice as a pending delta block (folded
        lazily within ``lazy_merge_rows``) and only the touched shards'
        tokens and artifacts (plus whole-relation entries such as the
        memo) are invalidated, so the next read re-runs exactly the touched
        shards' subplans and re-serves every sibling's cached block.
        Unsharded names fold the delta into the base data and take the
        full-replace mutation path.  Empty deltas short-circuit: no version
        bump, no invalidation.
        """
        return self._apply_write(name, rows, "+")

    def delete(self, name: str, rows: Any, strict: bool = False) -> str:
        """Delete ``rows`` from a registered relation as a routed delta.

        Routing, shard-scoped invalidation and the empty-delta
        short-circuit are :meth:`append`'s — the two writes differ only in
        the delta operator.  Rows not present are silently ignored by
        default — the delta algebra's difference makes the delete
        idempotent; ``strict=True`` instead raises ``ValueError`` listing
        missing rows, before anything mutates (this check reads the
        combined data, folding any pending deltas first).
        """
        return self._apply_write(name, rows, "-", strict=strict)

    def _apply_write(self, name: str, rows: Any, op: str,
                     strict: bool = False) -> str:
        kind = "append" if op == "+" else "delete"
        trace = self.telemetry.start(kind)
        if trace is None:
            return self._apply_write_inner(name, rows, op, strict)[0]
        start = time.perf_counter()
        with trace_activate(trace):
            try:
                name_out, outcome, n_rows = self._apply_write_inner(
                    name, rows, op, strict
                )
            finally:
                trace.finish()
        self.telemetry.observe_write(
            trace, kind, outcome, time.perf_counter() - start, rows=n_rows
        )
        return name_out

    def _apply_write_inner(self, name: str, rows: Any, op: str,
                           strict: bool = False) -> Tuple[str, str, int]:
        """``(name, outcome, rows)`` — outcome is the absorption verdict.

        ``absorbed``: every touched shard buffered its slice as a pending
        delta; ``folded``: at least one shard (or the unsharded base)
        materialised; ``noop``: empty delta.
        """
        delta = _delta_rows(rows)
        with self._lock:
            if name not in self.catalog:
                raise UnknownRelationError(
                    f"cannot write to unregistered relation {name!r}"
                )
            if delta.shape[0] == 0:
                return name, "noop", 0  # no version bump, no invalidation
            if op == "-" and strict:
                current = PairBlock.from_array(
                    np.asarray(self.catalog.get(name).data), deduped=True
                )
                missing = PairBlock.from_array(delta).difference(current)
                if len(missing):
                    raise StrictDeleteError(
                        f"delete from {name!r}: {len(missing)} rows not "
                        f"present, e.g. {missing.as_array()[:5].tolist()}"
                    )
            container = self._sharded.get(name)
            if container is None:
                return (self._write_unsharded(name, delta, op), "folded",
                        int(delta.shape[0]))
            owners = container.spec.shard_of_keys(
                np.ascontiguousarray(delta[:, 1])
            )
            touched = frozenset(int(s) for s in np.unique(owners))
            self._invalidate_write(name, touched)
            folded_shards = 0
            for shard in sorted(touched):
                with obs_span("delta_apply", shard=shard) as sp:
                    stored = container.apply_delta(
                        shard, delta[owners == shard], op,
                        lazy_rows=self.lazy_merge_rows,
                    )
                # An absorbed delta leaves the stored relation lazily
                # combined (pending blocks not yet folded into the base).
                absorbed = not getattr(stored, "materialized", True)
                sp.set("outcome", "absorbed" if absorbed else "folded")
                if not absorbed:
                    folded_shards += 1
                self._bind_shard(name, shard, stored)
            self._bind_written_base(name, container)
            if folded_shards == 0:
                outcome = "absorbed"
            elif folded_shards == len(touched):
                outcome = "folded"
            else:
                outcome = "mixed"
        return name, outcome, int(delta.shape[0])

    def _write_unsharded(self, name: str, delta: np.ndarray, op: str) -> str:
        # No shard routing to exploit: fold the delta into the base data
        # with the PairBlock algebra and take the ordinary full-replace
        # mutation path (version bump + whole-relation invalidation).
        current = PairBlock.from_array(
            np.asarray(self.catalog.get(name).data), deduped=True
        )
        patch = PairBlock.from_array(delta)
        block = current.union(patch) if op == "+" else current.difference(patch)
        updated = Relation(block.as_array(), name=name, sorted_dedup=True)
        return self.update(name, updated)

    def _resolve_sharded(self, relation: Any) -> Optional[Tuple[str, ShardedRelation]]:
        """Router callback: the sharded container behind a relation object.

        Only the *current* base object of a sharded registration resolves —
        stale objects (pre-mutation) and ad-hoc relations fall back to
        unsharded evaluation.
        """
        token = self.context.token_for(relation)
        if not (isinstance(token, tuple) and len(token) == 3 and token[0] == "rel"):
            return None
        name = token[1]
        with self._lock:
            container = self._sharded.get(name)
            if container is None or self._versions.get(name) != token[2]:
                return None
            return name, container

    def relation(self, name: str) -> Relation:
        return self.catalog.get(name)

    def family(self, name: str) -> SetFamily:
        """The set-family view of a registered relation (built on demand)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = SetFamily.from_relation(self.catalog.get(name))
                self._families[name] = family
            return family

    def version(self, name: str) -> int:
        return self._versions[name]

    def names(self) -> List[str]:
        return self.catalog.names()

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _config_with(self, overrides: Dict[str, Any]) -> MMJoinConfig:
        if not overrides:
            return self.config
        from dataclasses import replace

        return replace(self.config, **overrides)

    def planner_for(self, config: MMJoinConfig) -> Planner:
        """One planner per config, all sharing the session state.

        Exposed for session-aware adapters (e.g.
        :class:`~repro.engines.registry.MMJoinEngine`) that need a planner
        wired to this session's caches, registry and calibrated cost model.
        """
        with self._lock:
            planner = self._planners.get(config)
            if planner is None:
                planner = Planner(
                    config=config,
                    registry=self.registry,
                    optimizer=CostBasedOptimizer(
                        config=config, matmul_model=self.cost_model
                    ),
                    session=self.context,
                )
                self._planners[config] = planner
            return planner

    def _ensure_registered(self, query: JoinProjectQuery) -> None:
        """Auto-register ad-hoc relations so their artifacts are keyable.

        Anonymous names are bounded: past ``max_anon_relations`` the oldest
        ad-hoc registration is dropped (tokens, artifacts and memo entries
        with it), so serving a stream of fresh relations cannot grow the
        session without bound.
        """
        for relation in query.join_relations():
            if self.context.token_for(relation) is None:
                name = f"~{relation.name}/{next(self._anon_ids)}"
                self.register(relation, name=name)
                with self._lock:
                    self._anon_names.append(name)
                    while len(self._anon_names) > self.max_anon_relations:
                        self.remove(self._anon_names.popleft())

    def _memo_query(self, query: JoinProjectQuery) -> JoinProjectQuery:
        # Similarity/containment lower to the same counting two-path; memoize
        # the lowered query so different overlap thresholds share one entry.
        if isinstance(query, (SimilarityJoinQuery, ContainmentJoinQuery)):
            return query.lower()
        return query

    def _memo_key(self, query: JoinProjectQuery, config: MMJoinConfig) -> Optional[Any]:
        memo_query = self._memo_query(query)
        tokens = self.context.tokens_for(memo_query.join_relations())
        if tokens is None:
            return None
        return (
            "memo",
            tokens,
            memo_query.kind,
            memo_query.with_counts,
            config,
        )

    def _admit(self, query: JoinProjectQuery,
               config: MMJoinConfig) -> MMJoinConfig:
        """Memory admission control: meter the extraction transient.

        The dominating transient of the heavy path is the dense boolean
        candidate scan over ``dom(x) × dom(z)`` (one byte per cell).  When
        that estimate exceeds :attr:`memory_budget_bytes`, the query is
        *forced onto tiled extraction* if one band fits the budget —
        trading one allocation for ``ceil(u / tile_rows)`` bounded ones —
        and rejected with :class:`~repro.errors.AdmissionRejected`
        otherwise (including when the caller pinned ``extract_mode="full"``,
        which forbids the downgrade).  The estimate is an upper bound for
        sharded execution, whose per-shard transients are smaller.
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return config
        relations = query.join_relations()
        if not relations:
            return config
        u = int(relations[0].x_values().size)
        w = int(relations[-1].y_values().size)
        estimate = u * w
        # Raw registry, NOT the folding `metrics` property: admission runs
        # once per served query, and folding pending query records here
        # would drag the deferred accounting cost into the serving window.
        metrics = self.telemetry.registry
        if estimate <= budget:
            metrics.inc("repro_admission_total", decision="admit")
            return config
        # Band height: the density-aware default, shrunk until one band
        # fits the budget (a band is `tile_rows x w` bool cells).
        tile_rows = min(choose_tile_rows(u, w, 1), max(int(budget // w), 1)) \
            if w else 1
        band_bytes = tile_rows * w
        if config.extract_mode != "full" and band_bytes <= budget:
            metrics.inc("repro_admission_total", decision="tiled")
            obs_annotate(admission="forced_tiled",
                         admission_estimate_bytes=estimate)
            return dc_replace(config, extract_mode="tiled",
                              extract_tile_rows=tile_rows)
        metrics.inc("repro_admission_total", decision="reject")
        reason = (
            "extract_mode='full' pins the one-shot scan"
            if config.extract_mode == "full"
            else f"even one {band_bytes} B tiled band exceeds it"
        )
        raise AdmissionRejected(
            f"estimated extraction transient {estimate} B "
            f"({u} x {w} candidate cells) exceeds the session memory "
            f"budget {budget} B, and {reason}",
            estimate_bytes=estimate, budget_bytes=budget,
        )

    def submit(
        self,
        query: JoinProjectQuery,
        *,
        timeout_ms: Optional[float] = None,
        partial_results: bool = False,
        use_memo: bool = True,
        config: Optional[MMJoinConfig] = None,
    ) -> SessionResult:
        """Serve one query under the session's fault-tolerance controls.

        ``timeout_ms`` installs a :class:`~repro.errors.Deadline` for the
        call: the planner's operator loop, the expansion-chunk loops and the
        extraction-band loops all checkpoint against it (pool workers
        inherit it), so an overrunning query raises
        :class:`~repro.errors.QueryTimeoutError` within one checkpoint
        interval of the budget — carrying the partial span tree for
        forensics.

        ``partial_results=True`` (set semantics only) keeps completed
        shards when a sibling shard subplan exhausts its retries: the
        result is the completed shards' union, flagged via
        :attr:`SessionResult.partial` and ``partial: True`` in
        ``explain()``.  Counting queries reject the flag — a partial sum
        of witness counts is wrong, not approximate.

        ``use_memo=False`` skips the lookup and the insert of the finished
        result — the query executes, served by whatever derived artifacts
        (semijoin, partition, operands, per-shard result blocks) are warm.

        :meth:`evaluate` remains the uncontrolled entry point (no deadline,
        whole-query failure).
        """
        if partial_results and query.with_counts:
            raise ValueError(
                "partial_results=True requires set semantics; a counting "
                "query's partial witness sums would be wrong, not partial"
            )
        if timeout_ms is None:
            return self.evaluate(query, use_memo=use_memo, config=config,
                                 partial_results=partial_results)
        deadline = Deadline(float(timeout_ms))
        token = install_deadline(deadline)
        try:
            return self.evaluate(query, use_memo=use_memo, config=config,
                                 partial_results=partial_results)
        except QueryTimeoutError:
            self.telemetry.registry.inc(
                "repro_deadline_exceeded_total", kind=query.kind
            )
            raise
        finally:
            restore_deadline(token)

    def evaluate(
        self,
        query: JoinProjectQuery,
        use_memo: bool = True,
        config: Optional[MMJoinConfig] = None,
        partial_results: bool = False,
    ) -> SessionResult:
        """Serve one logical query through the session-aware pipeline.

        With telemetry enabled the call gets a trace (span tree rooted at
        the query kind), its latency lands in the metrics registry labelled
        by kind × serving path (``memo`` / ``warm`` / ``cold``), and calls
        over the slow-query threshold are parked in the slow log.
        """
        trace = self.telemetry.start(query.kind)
        if trace is None:  # disabled: skip straight to the untraced body
            return self._evaluate(query, use_memo, config, partial_results)
        token = trace_install(trace)
        try:
            result = self._evaluate(query, use_memo, config, partial_results)
        except QueryTimeoutError as exc:
            if exc.trace is None:
                # Attach the partial span tree: forensics see exactly
                # where the budget went before the checkpoint fired.
                exc.trace = trace
            raise
        finally:
            trace_restore(token)
            trace.finish()
        result.trace_id = trace.trace_id
        # path=None defers the warm/cold classification to the metrics flush.
        path = "memo" if result.from_memo else None
        self.telemetry.observe_query(
            trace, query.kind, path, result.seconds, result.explanation
        )
        return result

    def _evaluate(
        self,
        query: JoinProjectQuery,
        use_memo: bool = True,
        config: Optional[MMJoinConfig] = None,
        partial_results: bool = False,
    ) -> SessionResult:
        run_config = config if config is not None else self.config
        start = time.perf_counter()
        self._ensure_registered(query)
        key = self._memo_key(query, run_config) if use_memo else None
        if key is not None:
            found, value = self.memo.lookup(key)
            if found:
                obs_annotate(memo="hit")
                block, counted, explanation = value
                return SessionResult(
                    query_kind=query.kind,
                    result_block=block,
                    result_counted=counted,
                    explanation=explanation,
                    seconds=time.perf_counter() - start,
                    from_memo=True,
                )
        # Memo misses pay for real execution — that is what admission
        # control meters (memo hits allocate nothing worth metering).
        run_config = self._admit(query, run_config)
        routed = None
        if self._sharded and self.shards > 1:
            routed = self._router.route(query)
        plan = None
        if routed is not None:
            sharded = execute_sharded(
                routed,
                planner_for=self.planner_for,
                config=run_config,
                executor=(
                    self.context.executor(run_config.cores)
                    if run_config.cores > 1 else None
                ),
                context=self.context,
                partial_results=partial_results,
                retry_policy=self.retry_policy,
            )
            block, counted = sharded.result_block, sharded.result_counted
            explanation = sharded.explanation
            # The router lowers similarity/containment to the counting
            # two-path; report the original kind, as the unsharded path does.
            explanation.query_kind = query.kind
            explanation.session_stats.update(
                {f"artifacts.{k}": v for k, v in self.artifacts.stats().items()}
            )
            self._record_shard_counters(explanation)
            # Per-shard explanations carry the real matrix products; the
            # rollup only aggregates, so feed the sub-plans to the model.
            measured, cores = sharded.shard_explanations, 1
        else:
            plan = self.planner_for(run_config).execute(query)
            block, counted = plan.state.result_block, plan.state.result_counted
            explanation = plan.explain()
            measured, cores = [explanation], run_config.cores
        if self._feedback_enabled:
            for executed in measured:
                self.feedback.record(executed, cores=cores)
        with self._lock:
            self.queries_served += 1
        if key is not None and not explanation.session_stats.get("partial"):
            # A partial union must never be memoized: the next serve
            # re-attempts the failed shards instead of replaying them.
            value = (block, counted, explanation)
            self.memo.put(key, value, _blocks_nbytes(value))
        return SessionResult(
            query_kind=query.kind,
            result_block=block,
            result_counted=counted,
            explanation=explanation,
            seconds=time.perf_counter() - start,
            from_memo=False,
            plan=plan,
        )

    # -- query-by-name convenience API -------------------------------------
    def two_path(self, left: str, right: Optional[str] = None, counting: bool = False,
                 use_memo: bool = True, **overrides: Any) -> SessionResult:
        """Serve ``pi_{x,z}(left |><| right)`` over registered relations."""
        left_rel = self.catalog.get(left)
        right_rel = self.catalog.get(right) if right is not None else left_rel
        query = TwoPathQuery(left=left_rel, right=right_rel, counting=counting)
        return self.evaluate(query, use_memo=use_memo, config=self._config_with(overrides))

    def star(self, names: Sequence[str], use_memo: bool = True,
             **overrides: Any) -> SessionResult:
        """Serve the projected star join over registered relations."""
        query = StarQuery([self.catalog.get(name) for name in names])
        return self.evaluate(query, use_memo=use_memo, config=self._config_with(overrides))

    def similarity(self, name: str, c: int = 1, other: Optional[str] = None,
                   use_memo: bool = True, **overrides: Any):
        """Set similarity join over a registered family; returns ``SSJResult``.

        The underlying counting two-path is memoized independently of ``c``,
        so sweeping thresholds over the same family re-uses one evaluation.
        """
        from repro.setops.ssj import ssj_from_counted

        family = self.family(name)
        other_family = self.family(other) if other is not None else None
        query = SimilarityJoinQuery(family=family, other=other_family, overlap=c)
        result = self.evaluate(query, use_memo=use_memo, config=self._config_with(overrides))
        assert result.result_counted is not None
        return ssj_from_counted(
            result.result_counted, c, self_join=other_family is None,
            seconds=result.seconds,
        )

    def containment(self, name: str, other: Optional[str] = None,
                    use_memo: bool = True, **overrides: Any):
        """Set containment join over a registered family; returns ``SCJResult``."""
        from repro.setops.scj import scj_from_counted

        family = self.family(name)
        other_family = self.family(other) if other is not None else None
        query = ContainmentJoinQuery(family=family, other=other_family)
        result = self.evaluate(query, use_memo=use_memo, config=self._config_with(overrides))
        assert result.result_counted is not None
        return scj_from_counted(
            result.result_counted, family, self_join=other_family is None,
            seconds=result.seconds,
        )

    # ------------------------------------------------------------------ #
    # Batched / async serving
    # ------------------------------------------------------------------ #
    @staticmethod
    def _work_signature(query: JoinProjectQuery) -> Tuple[Any, ...]:
        """Queries with equal signatures share semijoin/partition work."""
        kind = "star" if isinstance(query, StarQuery) else "binary"
        return (kind, tuple(id(rel) for rel in query.join_relations()))

    def submit_batch(
        self,
        queries: Sequence[JoinProjectQuery],
        use_memo: bool = True,
    ) -> List[SessionResult]:
        """Serve a batch, sharing preparation work and fanning out the rest.

        Queries are grouped by the relations they touch: the first member of
        each group runs synchronously, warming the semijoin-reduce and
        partition caches every other member will hit; the remaining queries
        then fan out across the session's serving pool.  Results come back
        in submission order.

        The fan-out runs on the dedicated serving pool (the same one
        :meth:`asubmit` uses), never on the operator-level
        :meth:`SessionContext.executor` pools — a follower's own parallel
        light join borrows those, and sharing one pool between the outer
        evaluations and their inner ``map`` calls would deadlock (every
        worker blocked waiting for inner tasks that can never be scheduled).
        """
        queries = list(queries)
        if not queries:
            return []
        # The batch itself is a traced call ("batch" kind): its tree records
        # the leader/follower structure, while each member query still gets
        # its own per-query trace inside.
        trace = self.telemetry.start("batch")
        start = time.perf_counter()
        if trace is None:
            return self._submit_batch(queries, use_memo)
        with trace_activate(trace):
            try:
                results = self._submit_batch(queries, use_memo)
            finally:
                trace.finish()
        metrics = self.telemetry.metrics
        metrics.inc("repro_batches_total")
        metrics.observe("repro_batch_seconds", time.perf_counter() - start)
        return results

    def _submit_batch(
        self,
        queries: List[JoinProjectQuery],
        use_memo: bool,
    ) -> List[SessionResult]:
        for query in queries:
            self._ensure_registered(query)
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        for index, query in enumerate(queries):
            groups.setdefault(self._work_signature(query), []).append(index)
        results: List[Optional[SessionResult]] = [None] * len(queries)
        followers: List[int] = []
        for members in groups.values():
            leader = members[0]
            with obs_span("batch_leader", index=leader):
                results[leader] = self.evaluate(queries[leader], use_memo=use_memo)
            followers.extend(members[1:])
        if followers:
            pool = self._async_executor()
            metrics = self.telemetry.metrics
            submitted = time.perf_counter()

            def run_follower(i: int) -> SessionResult:
                metrics.observe("repro_pool_wait_seconds",
                                time.perf_counter() - submitted, pool="serving")
                return self.evaluate(queries[i], use_memo=use_memo)

            for index, result in zip(followers, pool.map(run_follower, followers)):
                results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    async def asubmit(
        self,
        query: JoinProjectQuery,
        use_memo: bool = True,
        config: Optional[MMJoinConfig] = None,
    ) -> SessionResult:
        """Serve one query without blocking the calling event loop."""
        loop = asyncio.get_running_loop()
        metrics = self.telemetry.metrics
        submitted = time.perf_counter()

        def run() -> SessionResult:
            metrics.observe("repro_pool_wait_seconds",
                            time.perf_counter() - submitted, pool="serving")
            return self.evaluate(query, use_memo=use_memo, config=config)

        return await loop.run_in_executor(self._async_executor(), run)

    def _async_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._async_pool is None:
                self._async_pool = ThreadPoolExecutor(
                    max_workers=max(int(self.config.cores), 2),
                    thread_name_prefix="repro-session",
                )
            return self._async_pool

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def _record_shard_counters(self, explanation: PlanExplanation) -> None:
        """Fold one sharded execution's per-shard cache counters in."""
        with self._lock:
            for row in explanation.shard_reports:
                counters = self._shard_counters.setdefault(
                    int(row["shard"]),
                    {"queries": 0, "cache_hits": 0, "cache_misses": 0},
                )
                counters["queries"] += 1
                counters["cache_hits"] += int(row.get("cache_hits", 0))
                counters["cache_misses"] += int(row.get("cache_misses", 0))

    def _stats_snapshot(self) -> Dict[str, Any]:
        """The one place hit-rate accounting is assembled.

        ``cache_stats()``, ``shard_stats()`` and the metrics-registry gauges
        are all views over this snapshot, so the three surfaces can never
        drift from each other.
        """
        with self._lock:
            spec = self._sharding_spec
            per_shard: Dict[int, Dict[str, Any]] = {}
            for shard, counters in sorted(self._shard_counters.items()):
                lookups = counters["cache_hits"] + counters["cache_misses"]
                per_shard[shard] = {
                    **counters,
                    "hit_rate": (
                        round(counters["cache_hits"] / lookups, 4) if lookups else 0.0
                    ),
                }
            shard: Dict[str, Any] = {
                "shards": spec.num_shards if spec is not None else 0,
                "hash_shards": spec.hash_shards if spec is not None else 0,
                "heavy_keys": (
                    spec.heavy_keys.tolist() if spec is not None else []
                ),
                "relations": {
                    name: {
                        "shard_sizes": container.sizes(),
                        "tuples": len(container),
                    }
                    for name, container in sorted(self._sharded.items())
                },
                "per_shard": per_shard,
                "router": {
                    "routed": self._router.routed,
                    "fallbacks": self._router.fallbacks,
                    "last_fallback": self._router.last_fallback,
                },
            }
            cache: Dict[str, Any] = {
                "artifacts": self.artifacts.stats(),
                "memo": self.memo.stats(),
                "queries_served": self.queries_served,
                "feedback_observations": self.feedback.observations,
                "cost_model_points": len(self.cost_model.table()),
            }
            if self._sharded:
                cache["shards"] = shard
            return {"cache": cache, "shard": shard}

    def shard_stats(self) -> Dict[str, Any]:
        """Sharding layout and cumulative per-shard cache behaviour.

        Feeds the ``repro-cli shard`` report: the frozen spec (hash vs
        heavy shards and their keys), every sharded relation's shard sizes,
        and per-shard operator-cache hit rates accumulated over the
        session's sharded executions.  (A view over the unified
        :meth:`_stats_snapshot` accounting.)
        """
        return self._stats_snapshot()["shard"]

    def cache_stats(self) -> Dict[str, Any]:
        """Counters for both caches plus serving totals (CLI report).

        A view over the unified :meth:`_stats_snapshot` accounting — the
        same numbers the metrics registry exports as gauges.
        """
        return self._stats_snapshot()["cache"]

    def metrics(self) -> MetricsSnapshot:
        """A frozen snapshot of the session's metrics registry.

        Pull-model gauges (cache hit ratios per artifact kind, cache bytes,
        per-shard counters, cost-feedback calibration ratios) are refreshed
        from :meth:`_stats_snapshot` first, then every series — including
        the push-model query/write counters and latency histograms — is
        copied out.  Use :meth:`MetricsSnapshot.delta` against an earlier
        snapshot for interval readings, and :meth:`MetricsSnapshot.to_json`
        / :meth:`MetricsSnapshot.to_prometheus` to export.
        """
        self._refresh_gauges()
        return self.telemetry.metrics.snapshot()

    def _refresh_gauges(self) -> None:
        """Flatten the unified stats snapshot into registry gauges."""
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        snapshot = self._stats_snapshot()
        cache = snapshot["cache"]
        for cache_name in ("artifacts", "memo"):
            counters = cache[cache_name]
            lookups = counters["hits"] + counters["misses"]
            metrics.set_gauge("repro_cache_hit_ratio",
                              counters["hits"] / lookups if lookups else 0.0,
                              cache=cache_name, kind="all")
            metrics.set_gauge("repro_cache_bytes", counters["bytes"],
                              cache=cache_name)
            metrics.set_gauge("repro_cache_entries", counters["entries"],
                              cache=cache_name)
            metrics.set_gauge("repro_cache_evictions", counters["evictions"],
                              cache=cache_name)
        # Per-artifact-kind hit ratios (semijoin / partition / operands /
        # memo / shard_result / ...), from the cache's own
        # per-kind accounting.
        for cache_name, store in (("artifacts", self.artifacts), ("memo", self.memo)):
            for kind, row in store.kind_stats().items():
                lookups = row["hits"] + row["misses"]
                metrics.set_gauge("repro_cache_hit_ratio",
                                  row["hits"] / lookups if lookups else 0.0,
                                  cache=cache_name, kind=kind)
        metrics.set_gauge("repro_session_queries_served", cache["queries_served"])
        metrics.set_gauge("repro_feedback_observations",
                          cache["feedback_observations"])
        shard = snapshot["shard"]
        for shard_id, counters in shard["per_shard"].items():
            metrics.set_gauge("repro_shard_queries", counters["queries"],
                              shard=shard_id)
            metrics.set_gauge("repro_shard_cache_hit_ratio", counters["hit_rate"],
                              shard=shard_id)
        router = shard["router"]
        metrics.set_gauge("repro_router_routed", router["routed"])
        metrics.set_gauge("repro_router_fallbacks", router["fallbacks"])
        # Cost-feedback calibration: estimated-vs-actual ratios per operator
        # and per matmul backend, plus per-extraction-mode observed rates.
        for labels, value in self.feedback.gauges():
            metrics.set_gauge("repro_cost_ratio" if "mode" not in labels
                              else "repro_extract_seconds_per_cell",
                              value, **labels)

    def close(self) -> None:
        """Shut down the session's thread pools (caches just drop with it).

        Idempotent; also registered via ``atexit`` so sessions abandoned
        without ``close()`` (or killed mid-serve by KeyboardInterrupt)
        still tear their persistent pools down at interpreter exit.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        atexit.unregister(self.close)
        self.context.close()
        with self._lock:
            if self._async_pool is not None:
                self._async_pool.shutdown(wait=True)
                self._async_pool = None

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
