"""Coordination-free parallel execution of the MMJoin phases (Section 6).

The paper's key parallelisation argument is that both phases of MMJoin
partition trivially:

* the matrix product splits by row blocks of the left operand — each worker
  multiplies its block against the full right operand with no interaction;
* the light probing splits by x value — each worker owns a slice of the
  x domain and produces its output pairs independently.

Because numpy's BLAS kernels release the GIL, a thread pool achieves real
parallel speedups for the matrix part; the light probing is a vectorized
NumPy gather (see :func:`repro.joins.baseline.probe_pairs_block`), which
also releases the GIL for the bulk of its work.

A parallel evaluation is the ordinary pipeline under
``config.with_cores(cores)`` (e.g. ``two_path_join(R, S,
config.with_thresholds(d1, d2).with_cores(cores))``): the
``combinatorial_light`` operator then probes in per-core chunks — every
worker returns a columnar :class:`~repro.data.pairblock.PairBlock`, and the
merge is one array concatenation plus a single sort of the packed keys
instead of per-worker set unions — and the dense backend row-partitions the
heavy product via :func:`parallel_matmul`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.data.relation import Relation
from repro.errors import (
    QueryTimeoutError,
    WorkerCrashError,
    current_deadline,
    install_deadline,
    restore_deadline,
)
from repro.faults import DEFAULT_RETRY_POLICY, SITE_POOL_TASK, RetryPolicy, fault_site
from repro.matmul.dense import accumulation_dtype
from repro.obs.trace import current_trace

T = TypeVar("T")
R = TypeVar("R")


def _traced_task(trace, func: Callable[[T], R]) -> Callable[[T], R]:
    """Carry the caller's trace (and queue-wait accounting) into pool workers."""
    parent = trace.current_span()
    metrics = trace.metrics
    submitted = time.perf_counter()

    def run(item: T) -> R:
        if metrics is not None:
            metrics.observe("repro_pool_wait_seconds",
                            time.perf_counter() - submitted, pool="parallel")
        with trace.worker(parent):
            return func(item)

    return run


def _pool_task(func: Callable[[T], R], deadline: Any) -> Callable[[T], R]:
    """Carry the caller's deadline into pool workers; fire the fault site.

    Installed around every pool task so (a) cooperative-cancellation
    checkpoints inside the task see the submitting query's deadline and
    (b) the ``pool.task`` fault-injection site covers real worker execution.
    """

    def run(item: T) -> R:
        token = install_deadline(deadline)
        try:
            fault_site(SITE_POOL_TASK)
            return func(item)
        finally:
            restore_deadline(token)

    return run


@dataclass
class ParallelExecutor:
    """A small thread-pool wrapper with chunking helpers and crash recovery.

    With ``persistent=True`` the executor keeps one thread pool alive across
    ``map`` calls instead of spinning a fresh pool up per call — the serving
    layer (:class:`~repro.serve.session.QuerySession`) hands every operator
    the same persistent executor so repeated queries skip pool start-up.

    ``map`` is resilient: a task that raises
    :class:`~repro.errors.WorkerCrashError` (or a broken pool) is retried
    under ``retry_policy`` — rebuilding the persistent pool first when the
    worker *hung* (``hang_timeout`` seconds without returning) or the pool
    broke — and once retries are exhausted the item degrades to inline
    execution on the caller thread.  Sibling tasks' results are never
    discarded by one task's failure.
    """

    cores: int = 1
    persistent: bool = False
    retry_policy: Optional[RetryPolicy] = None
    hang_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        self.cores = max(int(self.cores), 1)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """Whether the pool was abandoned as unrecoverable (inline mode)."""
        return self._degraded

    def map(self, func: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``func`` to every item, in parallel when cores > 1."""
        if self.cores == 1 or len(items) <= 1 or self._degraded:
            return [func(item) for item in items]
        # Pool workers run on their own threads, where the caller's active
        # trace (and deadline) is invisible; wrap the task so each worker
        # (a) reports its queue wait, (b) roots its spans under the
        # submitting span — worker spans ship back with the results — and
        # (c) sees the submitting query's deadline at its checkpoints.
        trace = current_trace()
        task = _pool_task(func, current_deadline())
        if trace is not None:
            task = _traced_task(trace, task)
        metrics = trace.metrics if trace is not None else None
        if self.persistent:
            return self._map_resilient(self._ensure_pool(), task, func,
                                       items, metrics)
        with ThreadPoolExecutor(max_workers=self.cores) as pool:
            return self._map_resilient(pool, task, func, items, metrics)

    def _map_resilient(
        self,
        pool: ThreadPoolExecutor,
        task: Callable[[T], R],
        func: Callable[[T], R],
        items: Sequence[T],
        metrics: Any,
    ) -> List[R]:
        deadline = current_deadline()
        try:
            futures = [pool.submit(task, item) for item in items]
        except RuntimeError:
            # Broken pool (or racing close()): this call runs inline; the
            # recovery machinery below only engages for per-task failures.
            self._note_degraded(metrics)
            return [func(item) for item in items]
        results: List[R] = []
        for index, future in enumerate(futures):
            try:
                results.append(self._await(future, deadline))
            except QueryTimeoutError:
                for later in futures[index + 1:]:
                    later.cancel()
                raise
            except (WorkerCrashError, BrokenExecutor) as exc:
                results.append(
                    self._recover(task, func, items[index], exc, metrics,
                                  deadline)
                )
        return results

    def _await(self, future: Any, deadline: Any) -> Any:
        """One future's result, watching the deadline and the hang timeout."""
        hang = self.hang_timeout
        if deadline is None and hang is None:
            return future.result()
        waited = 0.0
        while True:
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0.0:
                    future.cancel()
                    deadline.check("pool.await")
                timeout = remaining if hang is None else min(remaining,
                                                             hang - waited)
            else:
                timeout = hang - waited
            try:
                return future.result(timeout=max(timeout, 1e-3))
            except FuturesTimeout:
                waited += max(timeout, 1e-3)
                if hang is not None and waited >= hang:
                    future.cancel()
                    raise WorkerCrashError(
                        f"pool worker hung past {hang:g}s", hung=True
                    ) from None

    def _recover(
        self,
        task: Callable[[T], R],
        func: Callable[[T], R],
        item: T,
        first_exc: BaseException,
        metrics: Any,
        deadline: Any,
    ) -> R:
        """Retry one failed task under the policy; degrade inline at the end."""
        policy = self.retry_policy or DEFAULT_RETRY_POLICY
        rng = policy.rng()
        exc = first_exc
        for attempt in range(1, policy.max_attempts):
            if metrics is not None:
                metrics.inc("repro_retries_total", scope="pool")
            delay = policy.backoff_seconds(attempt, rng)
            if deadline is not None:
                delay = min(delay, max(deadline.remaining(), 0.0))
            if delay > 0.0:
                time.sleep(delay)
            try:
                if self.persistent:
                    # A hung worker's thread is lost capacity and a broken
                    # pool accepts no work: rebuild before resubmitting.
                    if isinstance(exc, BrokenExecutor) or getattr(exc, "hung", False):
                        self._rebuild_pool(metrics)
                    future = self._ensure_pool().submit(task, item)
                    return self._await(future, deadline)
                return task(item)
            except (WorkerCrashError, BrokenExecutor) as retry_exc:
                exc = retry_exc
        # Retries exhausted: run the raw function inline on the caller
        # thread (bypassing the pool and its task instrumentation).  Pool-
        # level failures additionally mark the executor degraded so later
        # ``map`` calls skip the doomed pool entirely.
        if isinstance(exc, BrokenExecutor) or getattr(exc, "hung", False):
            self._degraded = True
        if metrics is not None:
            metrics.inc("repro_degraded_total", scope="pool")
        return func(item)

    def _note_degraded(self, metrics: Any) -> None:
        self._degraded = True
        if metrics is not None:
            metrics.inc("repro_degraded_total", scope="pool")

    def _rebuild_pool(self, metrics: Any = None) -> ThreadPoolExecutor:
        """Abandon the current persistent pool and start a fresh one.

        ``shutdown(wait=False)`` lets already-queued sibling tasks finish on
        the old pool (their futures stay valid) without blocking recovery on
        a thread that may never return.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        if metrics is not None:
            metrics.inc("repro_pool_rebuilds_total")
        return self._ensure_pool()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Locked: concurrent first calls racing here would each build a pool
        # and leak whichever one loses the assignment.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.cores, thread_name_prefix="repro-parallel"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (no-op for per-call pools)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def chunks(self, items: Sequence[T]) -> List[Sequence[T]]:
        """Split a sequence into one contiguous chunk per core."""
        n = len(items)
        if n == 0:
            return []
        per_chunk = max((n + self.cores - 1) // self.cores, 1)
        return [items[i : i + per_chunk] for i in range(0, n, per_chunk)]

    def chunk_ranges(self, total: int) -> List[Tuple[int, int]]:
        """Split ``range(total)`` into per-core (start, stop) ranges."""
        if total <= 0:
            return []
        per_chunk = max((total + self.cores - 1) // self.cores, 1)
        return [(lo, min(lo + per_chunk, total)) for lo in range(0, total, per_chunk)]


def parallel_matmul(
    left: np.ndarray,
    right: np.ndarray,
    cores: int = 1,
) -> np.ndarray:
    """Row-partitioned parallel matrix product.

    The left operand is split into one row block per core and each block is
    multiplied against the full right operand in its own thread.  BLAS
    releases the GIL so the blocks genuinely run concurrently.
    """
    # Same overflow guard as count_matmul: counts are bounded by the inner
    # dimension, so past float32's exact-integer range widen to float64.
    a = np.asarray(left)
    b = np.asarray(right)
    dtype = accumulation_dtype(a.shape[1] if a.ndim == 2 else 0)
    a = np.ascontiguousarray(a, dtype=dtype)
    b = np.ascontiguousarray(b, dtype=dtype)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    executor = ParallelExecutor(cores=cores)
    ranges = executor.chunk_ranges(a.shape[0])
    if len(ranges) <= 1:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=dtype)

    def multiply_block(block: Tuple[int, int]) -> Tuple[int, int]:
        lo, hi = block
        out[lo:hi] = a[lo:hi] @ b
        return block

    executor.map(multiply_block, ranges)
    return out


def split_relation(relation: Relation, parts: int) -> List[Relation]:
    """Split a relation into row chunks (one per worker)."""
    if len(relation) == 0:
        return []
    if parts <= 1:
        return [relation]
    data = relation.data
    chunk_size = max((len(relation) + parts - 1) // parts, 1)
    chunks: List[Relation] = []
    for lo in range(0, len(relation), chunk_size):
        chunks.append(
            Relation(np.array(data[lo : lo + chunk_size]), name=relation.name, sorted_dedup=True)
        )
    return chunks

