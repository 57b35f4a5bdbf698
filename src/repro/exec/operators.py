"""Physical operators of the MMJoin execution pipeline.

The paper's recipe — semijoin-reduce, light/heavy partition, combinatorial
light join, matrix-multiplication heavy join, dedup-merge — used to be
re-implemented separately by ``core/two_path.py``, ``core/star.py`` and the
``setops`` modules.  It now exists once, as five :class:`PhysicalOperator`
subclasses that the :class:`~repro.plan.planner.Planner` composes; each
operator handles the three execution modes (set-semantics two-path, counting
two-path, star) and records its wall-clock time and a detail dictionary for
``explain()``.

Results flow between operators as columnar
:class:`~repro.data.pairblock.PairBlock` /
:class:`~repro.data.pairblock.CountedPairBlock` instances: the light join is
a vectorized ``searchsorted`` probe with index gathers, the heavy join reads
its block straight off the product's non-zero coordinates — both emit packed
int64 keys under the execution's one :class:`~repro.data.pairblock.KeyLayout`
— and the final dedup-merge is one plain sort of the concatenated keys with
a neighbour compare (``reduceat`` count aggregation under MODE_COUNTS) plus
the single decode back to columns.  Every operator also records
``memory_in_bytes`` / ``memory_out_bytes`` so ``explain()`` shows where the
memory goes.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.optimizer import OptimizerDecision
from repro.core.partitioning import partition_star, partition_two_path
from repro.data.pairblock import KeyLayout, PairBlock
from repro.data.relation import Relation, head_layout
from repro.exec.state import (
    MODE_COUNTS,
    MODE_PAIRS,
    MODE_STAR,
    CountingPartition,
    ExecutionState,
)
from repro.faults import SITE_BACKEND_MATMUL, fault_site
from repro.joins.baseline import (
    cartesian_arrays,
    combinatorial_star_block,
    combinatorial_two_path_block,
    combinatorial_two_path_counted,
    counted_probe_block,
    probe_pairs_block,
    star_expansion_block,
)
from repro.matmul.mapping import heavy_core_mapping
from repro.matmul.registry import BackendRegistry
from repro.matmul.tiling import MODE_CORE, tiled_nonzero_coords
from repro.parallel.executor import ParallelExecutor, split_relation

Pair = Tuple[int, int]
HeadTuple = Tuple[int, ...]
DecideFn = Callable[[ExecutionState], OptimizerDecision]


def _relation_bytes(relations) -> int:
    return int(sum(r.data.nbytes for r in relations))


def _matrix_nbytes(matrix) -> int:
    """Byte size of a dense ndarray, CSR matrix, or int64 row table."""
    nbytes = getattr(matrix, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    total = 0
    for attr in ("data", "indices", "indptr"):
        arr = getattr(matrix, attr, None)
        if arr is not None:
            total += int(getattr(arr, "nbytes", 0))
    return total


class PhysicalOperator:
    """Base physical operator: timed, skippable, self-describing."""

    name = "operator"

    def __init__(self) -> None:
        self.estimated_cost: float = 0.0
        self.actual_seconds: float = 0.0
        self.status: str = "pending"
        self.detail: Dict[str, Any] = {}

    def __call__(self, state: ExecutionState) -> None:
        """Run (or skip) the operator, recording status and wall-clock time."""
        if state.done and self.name != "semijoin_reduce":
            self.status = "skipped"
            return
        start = time.perf_counter()
        self.status = "ran"
        self.run(state)
        self.actual_seconds = time.perf_counter() - start

    def run(self, state: ExecutionState) -> None:
        raise NotImplementedError

    def skip(self, reason: str) -> None:
        """Mark this invocation as a no-op (recorded in the explanation)."""
        self.status = "skipped"
        self.detail["skip_reason"] = reason

    def record_memory(self, in_bytes: int, out_bytes: int) -> None:
        """Record block/relation sizes flowing through this operator."""
        self.detail["memory_in_bytes"] = int(in_bytes)
        self.detail["memory_out_bytes"] = int(out_bytes)


class SemijoinReduce(PhysicalOperator):
    """Drop dangling tuples: keep only witnesses shared by every relation.

    A relation with no dangling tuple (every input of a self-join) passes
    through as the input object itself, so it keeps its token and its CSR
    indexes, and only the relations that actually shrink are copied.

    Session-aware: under a :class:`~repro.serve.session.SessionContext` the
    reduced relation list is cached by the input relations' tokens — a warm
    hit returns the *same* ``Relation`` objects, so their lazily built
    layouts (the per-column CSR indexes behind ``sorted_by_y``) come back warm
    with them.  Only the reduced copies are bound to derived tokens and
    charged to the artifact cache; a passed-through input is the catalog's.
    """

    name = "semijoin_reduce"

    def run(self, state: ExecutionState) -> None:
        relations = state.relations
        in_bytes = _relation_bytes(relations)
        self.detail["input_tuples"] = sum(len(r) for r in relations)
        if not relations or any(len(r) == 0 for r in relations):
            state.relations = [Relation.empty(r.name) for r in relations]
            state.finish_empty()
            self.detail["output_tuples"] = 0
            self.record_memory(in_bytes, 0)
            return
        ctx = state.session
        key = (
            ctx.key("semijoin", relations, state.mode == MODE_STAR)
            if ctx is not None else None
        )
        if key is not None:
            found, reduced = ctx.artifacts.lookup(key)
            if found:
                self.detail["cache"] = "hit"
            else:
                reduced = self._reduce(relations, state.mode)
                ctx.adopt_derived(
                    reduced, "semijoin", ctx.tokens_for(relations) or (),
                    state.mode == MODE_STAR,
                )
                copies = [out for out, rel in zip(reduced, relations) if out is not rel]
                ctx.artifacts.put(key, reduced, _relation_bytes(copies))
                self.detail["cache"] = "miss"
        else:
            reduced = self._reduce(relations, state.mode)
        state.relations = reduced
        self.detail["output_tuples"] = sum(len(r) for r in reduced)
        self.record_memory(in_bytes, _relation_bytes(reduced))
        if any(len(r) == 0 for r in reduced):
            state.finish_empty()
        else:
            state.layout = head_layout(reduced)

    @staticmethod
    def _reduce(relations: List[Relation], mode: str) -> List[Relation]:
        if mode == MODE_STAR:
            shared = relations[0].y_values()
            for rel in relations[1:]:
                shared = np.intersect1d(shared, rel.y_values(), assume_unique=True)
            return [
                rel if shared.size == rel.y_values().size
                else rel.restrict_y(shared, name=rel.name)
                for rel in relations
            ]
        left, right = relations
        return [
            left.semijoin_y(right, name=left.name),
            right.semijoin_y(left, name=right.name),
        ]


class LightHeavyPartition(PhysicalOperator):
    """Consult the optimizer, then split the inputs by degree thresholds.

    Session-aware: the optimizer decision and the partition are cached by
    (relation tokens, mode, config) — repeated queries skip both
    the threshold search and the degree-based split.
    """

    name = "light_heavy_partition"

    def __init__(self, decide: DecideFn) -> None:
        super().__init__()
        self.decide = decide

    def run(self, state: ExecutionState) -> None:
        ctx = state.session
        in_bytes = _relation_bytes(state.relations)
        key = (
            ctx.key("partition", state.relations, state.mode, state.config)
            if ctx is not None else None
        )
        if key is not None:
            found, snapshot = ctx.artifacts.lookup(key)
            if found:
                self._restore(state, snapshot)
                self.detail["cache"] = "hit"
                self.record_memory(in_bytes, snapshot["out_bytes"])
                return
        out_bytes = self._partition(state)
        if key is not None:
            ctx.artifacts.put(key, self._snapshot(state, out_bytes), out_bytes)
            self.detail["cache"] = "miss"
        self.record_memory(in_bytes, out_bytes)

    def _snapshot(self, state: ExecutionState, out_bytes: int) -> Dict[str, Any]:
        detail = {k: v for k, v in self.detail.items()
                  if k not in ("cache", "memory_in_bytes", "memory_out_bytes")}
        return {
            "decision": state.decision,
            "strategy": state.strategy,
            "partition": state.partition,
            "delta1": state.delta1,
            "delta2": state.delta2,
            "fallback": state.fallback_combinatorial,
            "detail": detail,
            "out_bytes": int(out_bytes),
        }

    def _restore(self, state: ExecutionState, snapshot: Dict[str, Any]) -> None:
        state.decision = snapshot["decision"]
        state.strategy = snapshot["strategy"]
        state.partition = snapshot["partition"]
        state.delta1 = snapshot["delta1"]
        state.delta2 = snapshot["delta2"]
        state.fallback_combinatorial = snapshot["fallback"]
        self.detail.update(snapshot["detail"])

    def _partition(self, state: ExecutionState) -> int:
        """Decide and split; returns the partition's byte size."""
        decision = self.decide(state)
        state.decision = decision
        state.strategy = decision.strategy
        self.detail["strategy"] = decision.strategy
        if decision.strategy == "wcoj":
            self.detail["reason"] = "optimizer chose plain worst-case optimal join"
            return 0
        delta1, delta2 = decision.delta1, decision.delta2
        if state.mode == MODE_COUNTS:
            state.partition = self._counting_partition(state, delta1)
            state.delta1 = state.partition.delta1
            state.delta2 = state.partition.delta1
            self.detail["heavy_witnesses"] = int(state.partition.heavy_y.size)
            self.detail["light_witnesses"] = int(state.partition.light_y.size)
            return int(state.partition.heavy_y.nbytes + state.partition.light_y.nbytes)
        if state.mode == MODE_STAR:
            partition = partition_star(state.relations, delta1, delta2)
            state.partition = partition
            state.delta1 = partition.delta1
            state.delta2 = partition.delta2
            # If nothing survived into the heavy residual, the light
            # sub-joins would re-enumerate the whole query k times; one
            # worst-case optimal evaluation is strictly cheaper.
            if partition.heavy_y.size == 0 or any(len(rel) == 0 for rel in partition.heavy):
                state.fallback_combinatorial = True
                self.detail["fallback"] = "empty heavy residual; full combinatorial join"
            self.detail["heavy_witnesses"] = int(partition.heavy_y.size)
            return _relation_bytes(partition.light_head) + _relation_bytes(partition.heavy)
        partition = partition_two_path(state.relations[0], state.relations[1], delta1, delta2)
        state.partition = partition
        state.delta1 = partition.delta1
        state.delta2 = partition.delta2
        self.detail["light_fraction"] = round(partition.light_fraction(), 4)
        self.detail["heavy_witnesses"] = int(partition.heavy_y.size)
        return _relation_bytes(
            [partition.r_light, partition.s_light, partition.r_heavy, partition.s_heavy]
        )

    @staticmethod
    def _counting_partition(state: ExecutionState, delta1: int) -> CountingPartition:
        left, right = state.relations
        delta1 = max(int(delta1), 1)
        left_y = left.csr_y()
        right_degrees = right.csr_y().degrees_of(left_y.keys)
        heavy = (left_y.degrees > delta1) & (right_degrees > delta1)
        return CountingPartition(
            heavy_y=left_y.keys[heavy],
            light_y=left_y.keys[(right_degrees > 0) & ~heavy],
            delta1=delta1,
        )


class CombinatorialLight(PhysicalOperator):
    """Evaluate the light sub-joins (or the whole query under WCOJ)."""

    name = "combinatorial_light"

    def run(self, state: ExecutionState) -> None:
        if state.strategy == "wcoj" or state.fallback_combinatorial:
            self._run_full(state)
        elif state.mode == MODE_COUNTS:
            self._run_light_counts(state)
        elif state.mode == MODE_STAR:
            self._run_light_star(state)
        else:
            self._run_light_pairs(state)
        in_bytes = self._input_bytes(state)
        if state.mode == MODE_COUNTS:
            self.record_memory(in_bytes, state.light_counted.nbytes)
        else:
            self.record_memory(in_bytes, state.light_block.nbytes)

    @staticmethod
    def _input_bytes(state: ExecutionState) -> int:
        """Bytes this operator actually consumed: its light partition slice
        (plus the probed full relations), or everything under WCOJ."""
        partition = state.partition
        if state.strategy == "wcoj" or state.fallback_combinatorial or partition is None:
            return _relation_bytes(state.relations)
        if state.mode == MODE_STAR:
            return _relation_bytes(partition.light_head)
        if state.mode == MODE_COUNTS:
            return _relation_bytes(state.relations) + int(partition.light_y.nbytes)
        return _relation_bytes([partition.r_light, partition.s_light])

    # -- full combinatorial evaluation (WCOJ strategy / star fallback) -----
    def _run_full(self, state: ExecutionState) -> None:
        self.detail["scope"] = "full combinatorial join"
        if state.mode == MODE_STAR:
            state.light_block = combinatorial_star_block(state.relations)
        elif state.mode == MODE_COUNTS:
            state.light_counted = combinatorial_two_path_counted(
                state.relations[0], state.relations[1]
            )
        else:
            state.light_block = combinatorial_two_path_block(
                state.relations[0], state.relations[1]
            )

    # -- light sub-joins ---------------------------------------------------
    def _run_light_pairs(self, state: ExecutionState) -> None:
        partition = state.partition
        left, right = state.relations
        cores = state.config.cores
        tasks: List[Tuple[Relation, Relation, bool, Optional[KeyLayout]]] = []
        if len(partition.r_light):
            right.csr_y()  # build the probe index once, outside the pool
            for chunk in split_relation(partition.r_light, cores):
                tasks.append((chunk, right, False, state.layout))
        if len(partition.s_light):
            left.csr_y()
            for chunk in split_relation(partition.s_light, cores):
                tasks.append((chunk, left, True, state.layout))
        if tasks:
            # A session brings its own persistent pool; one-shot evaluation
            # spins a throwaway executor up as before.
            executor = (
                state.session.executor(cores)
                if state.session is not None
                else ParallelExecutor(cores=cores)
            )
            blocks = executor.map(_probe_chunk, tasks)
            # The R-side and S-side expansions arrive as packed keys under
            # the execution's one layout: one concat, one sort.
            state.light_block = PairBlock.concat_all(blocks).dedup()
        self.detail["light_pairs"] = len(state.light_block)

    def _run_light_counts(self, state: ExecutionState) -> None:
        partition = state.partition
        left, right = state.relations
        light_mask = np.isin(left.ys, partition.light_y)
        # Chunked expansion: peak memory tracks the distinct output, not the
        # raw witness count (same machinery as the combinatorial baseline).
        state.light_counted = counted_probe_block(
            left.xs[light_mask], left.ys[light_mask], right, layout=state.layout
        )
        self.detail["light_pairs"] = len(state.light_counted)

    def _run_light_star(self, state: ExecutionState) -> None:
        partition = state.partition
        relations = state.relations
        blocks: List[PairBlock] = []
        arity = max(len(relations), 1)
        for i, light_rel in enumerate(partition.light_head):
            if len(light_rel) == 0:
                continue
            sub = list(relations)
            sub[i] = light_rel
            blocks.append(star_expansion_block(sub))
        if partition.light_y.size:
            blocks.append(star_expansion_block(relations, restrict_to=partition.light_y))
        # Raw sub-join expansions concatenate; one dedup covers within- and
        # cross-sub-join duplicates alike.
        state.light_block = PairBlock.concat_all(blocks, arity=arity).dedup()
        self.detail["light_tuples"] = len(state.light_block)


class MatMulHeavy(PhysicalOperator):
    """Evaluate the all-heavy residual with one matrix product.

    Session-aware: the operand matrices (dense adjacency / CSR, per backend)
    and the star query's grouped matrices are cached by (relation tokens,
    mode, config, backend) — a warm query pays only the product
    and the non-zero extraction.
    """

    name = "matmul_heavy"

    def __init__(self, registry: BackendRegistry) -> None:
        super().__init__()
        self.registry = registry
        self._counts_in_bytes = 0  # heavy-restricted relations, set by _run_counts

    def _cached_operands(self, state: ExecutionState, backend, builder):
        """``(operands, build_seconds, cache_status)`` through the session cache.

        ``operands`` is ``None`` (with status ``None``) when no session is
        attached — the backend then builds internally exactly as before.
        """
        ctx = state.session
        if ctx is None:
            return None, 0.0, None
        key = ctx.key("operands", state.relations, state.mode, state.config,
                      backend.name)
        if key is None:
            return None, 0.0, None
        found, operands = ctx.artifacts.lookup(key)
        if found:
            return operands, 0.0, "hit"
        start = time.perf_counter()
        operands = builder()
        build_seconds = time.perf_counter() - start
        ctx.artifacts.put(key, operands, sum(_matrix_nbytes(m) for m in operands))
        return operands, build_seconds, "miss"

    def run(self, state: ExecutionState) -> None:
        if state.strategy == "wcoj":
            self.skip("wcoj strategy has no heavy residual")
            return
        if state.fallback_combinatorial:
            self.skip("heavy residual empty; light operator ran the full join")
            return
        # Named injection site for backend exceptions: everything below
        # dispatches into a matmul backend.
        fault_site(SITE_BACKEND_MATMUL)
        if state.mode == MODE_COUNTS:
            self._run_counts(state)
        elif state.mode == MODE_STAR:
            self._run_star(state)
        else:
            self._run_pairs(state)
        self.detail["backend"] = state.backend_name
        self.detail["matrix_dims"] = state.matrix_dims
        out_bytes = (
            state.heavy_counted.nbytes if state.mode == MODE_COUNTS
            else state.heavy_block.nbytes
        )
        partition = state.partition
        if state.mode == MODE_STAR:
            in_bytes = _relation_bytes(partition.heavy)
        elif state.mode == MODE_COUNTS:
            in_bytes = self._counts_in_bytes
        else:
            in_bytes = _relation_bytes([partition.r_heavy, partition.s_heavy])
        self.record_memory(in_bytes, out_bytes)

    def _select(self, state: ExecutionState, dims: Tuple[int, int, int],
                nnz_left: int, nnz_right: int):
        backend = self.registry.select(state.config, dims, nnz_left, nnz_right)
        state.backend_name = backend.name
        return backend

    @staticmethod
    def _density_hint(state: ExecutionState, u: int, w: int):
        """The planner's output-density estimate for a ``u x w`` product.

        ``estimated_output`` counts distinct output pairs of the whole
        query, so this is an upper bound on the product's non-zero density —
        exactly what the adaptive scan needs to decide whether screening can
        pay for itself.
        """
        decision = state.decision
        if decision is None or u <= 0 or w <= 0:
            return None
        estimated = float(getattr(decision, "estimated_output", 0.0) or 0.0)
        if estimated <= 0.0:
            return None
        return min(1.0, estimated / (float(u) * float(w)))

    def _core_mapping(self, state: ExecutionState, left_heavy, right_heavy,
                      rows, cols, inner_dim: int):
        """Build (or fetch) the DIM3 dense-core mapping for this product.

        The permutation depends only on the heavy relations' degree
        sequences, so under a session it is cached by the relations' tokens
        (which embed their versions): warm serving never recomputes it.
        """
        ctx = state.session
        key = (
            ctx.key("dense_core_map", state.relations, state.mode, state.config)
            if ctx is not None else None
        )
        if key is not None:
            found, mapping = ctx.artifacts.lookup(key)
            if found:
                self.detail["mapping_cache"] = "hit"
                return mapping
        mapping = heavy_core_mapping(left_heavy, right_heavy, rows, cols, inner_dim)
        if key is not None:
            ctx.artifacts.put(key, mapping, mapping.nbytes)
            self.detail["mapping_cache"] = "miss"
        return mapping

    def _extraction_args(self, state: ExecutionState, dims: Tuple[int, int, int],
                         left_heavy, right_heavy, rows, cols):
        """Resolve ``(extract_mode, mapping, density_hint)`` for the product."""
        u, v, w = dims
        mode = state.config.extract_mode
        mapping = None
        if mode == MODE_CORE:
            mapping = self._core_mapping(state, left_heavy, right_heavy,
                                         rows, cols, v)
        return mode, mapping, self._density_hint(state, u, w)

    def _heavy_product(self, state: ExecutionState, left_heavy, right_heavy,
                       rows, mids, cols):
        """Evaluate one heavy residual of ``state.matrix_dims`` on a backend.

        Backend selection, session-cached operands, extraction arguments, the
        product itself and the ``explain()`` detail; returns the pair block,
        or the counted block in counting mode.
        """
        dims = state.matrix_dims
        backend = self._select(state, dims, len(left_heavy), len(right_heavy))
        operands, cached_build, cache_status = self._cached_operands(
            state, backend,
            lambda: backend.build_operands(left_heavy, right_heavy, rows, mids, cols),
        )
        extract_mode, mapping, density_hint = self._extraction_args(
            state, dims, left_heavy, right_heavy, rows, cols
        )
        extract_stats: Dict[str, Any] = {}
        evaluate = (
            backend.heavy_counts if state.mode == MODE_COUNTS else backend.heavy_pairs
        )
        block, build_seconds, multiply_seconds = evaluate(
            left_heavy, right_heavy, rows, mids, cols,
            cores=state.config.cores, operands=operands,
            tile_rows=state.config.extract_tile_rows, extract_stats=extract_stats,
            extract_mode=extract_mode, mapping=mapping, density_hint=density_hint,
            layout=state.layout,
        )
        if cache_status is not None:
            self.detail["cache"] = cache_status
            build_seconds = cached_build
        self.detail["build_seconds"] = build_seconds
        self.detail["multiply_seconds"] = multiply_seconds
        self.detail["heavy_pairs"] = len(block)
        self.detail.update(extract_stats)
        return block

    def _run_pairs(self, state: ExecutionState) -> None:
        partition = state.partition
        rows, mids, cols = partition.heavy_x, partition.heavy_y, partition.heavy_z
        dims = (int(rows.size), int(mids.size), int(cols.size))
        state.matrix_dims = dims
        if min(dims) == 0:
            self.detail["build_seconds"] = 0.0
            self.detail["multiply_seconds"] = 0.0
            return
        state.heavy_block = self._heavy_product(
            state, partition.r_heavy, partition.s_heavy, rows, mids, cols
        )

    def _run_counts(self, state: ExecutionState) -> None:
        partition = state.partition
        heavy_y = partition.heavy_y
        if heavy_y.size == 0:
            state.matrix_dims = (0, 0, 0)
            self.detail["build_seconds"] = 0.0
            self.detail["multiply_seconds"] = 0.0
            return
        left, right = state.relations
        ctx = state.session
        inputs = None
        inputs_key = (
            ctx.key("heavy_inputs", state.relations, state.mode, state.config)
            if ctx is not None else None
        )
        if inputs_key is not None:
            found, inputs = ctx.artifacts.lookup(inputs_key)
            if not found:
                inputs = None
        if inputs is None:
            left_heavy = left.restrict_y(heavy_y, name=f"{left.name}+")
            right_heavy = right.restrict_y(heavy_y, name=f"{right.name}+")
            inputs = (left_heavy, right_heavy)
            if inputs_key is not None:
                ctx.artifacts.put(inputs_key, inputs, _relation_bytes(inputs))
        left_heavy, right_heavy = inputs
        self._counts_in_bytes = _relation_bytes([left_heavy, right_heavy])
        rows = left_heavy.x_values()
        cols = right_heavy.x_values()
        dims = (int(rows.size), int(heavy_y.size), int(cols.size))
        state.matrix_dims = dims
        state.heavy_counted = self._heavy_product(
            state, left_heavy, right_heavy, rows, heavy_y, cols
        )

    def _run_star(self, state: ExecutionState) -> None:
        partition = state.partition
        heavy_relations = partition.heavy
        heavy_y = partition.heavy_y
        k = len(heavy_relations)
        split = (k + 1) // 2
        ctx = state.session
        key = (
            ctx.key("star_operands", state.relations, state.config)
            if ctx is not None else None
        )
        cached = None
        if key is not None:
            found, cached = ctx.artifacts.lookup(key)
            if not found:
                cached = None
        build_start = time.perf_counter()
        if cached is not None:
            rows_a, matrix_a, rows_b, matrix_b = cached
            self.detail["cache"] = "hit"
        else:
            rows_a, matrix_a = _group_matrix(heavy_relations, list(range(split)), heavy_y)
            rows_b, matrix_b = _group_matrix(heavy_relations, list(range(split, k)), heavy_y)
            if key is not None:
                value = (rows_a, matrix_a, rows_b, matrix_b)
                ctx.artifacts.put(key, value, sum(_matrix_nbytes(m) for m in value))
                self.detail["cache"] = "miss"
        build_seconds = time.perf_counter() - build_start
        dims = (rows_a.shape[0], int(heavy_y.size), rows_b.shape[0])
        state.matrix_dims = dims
        self.detail["build_seconds"] = build_seconds
        if rows_a.shape[0] == 0 or rows_b.shape[0] == 0:
            self.detail["multiply_seconds"] = 0.0
            return
        nnz_a = int(matrix_a.sum())
        nnz_b = int(matrix_b.sum())
        backend = self._select(state, dims, nnz_a, nnz_b)
        multiply_start = time.perf_counter()
        product = backend.multiply_dense(matrix_a, matrix_b.T, cores=state.config.cores)
        # The star head's grouped rows are synthetic combinations, not a
        # degree-sorted domain, so the core mapping does not apply; "core"
        # degrades to the adaptive auto policy inside the scan.
        extract_stats: Dict[str, Any] = {}
        hit_rows, hit_cols = tiled_nonzero_coords(
            np.asarray(product), threshold=0.5,
            tile_rows=state.config.extract_tile_rows, stats=extract_stats,
            mode=state.config.extract_mode,
            density_hint=self._density_hint(state, dims[0], dims[2]),
        )
        self.detail.update(extract_stats)
        # Head tuples are column gathers from the two grouped row tables —
        # cells of a product are unique, so the block is born deduplicated.
        head_a = rows_a[hit_rows]
        head_b = rows_b[hit_cols]
        state.heavy_block = PairBlock(
            tuple(head_a[:, j] for j in range(head_a.shape[1]))
            + tuple(head_b[:, j] for j in range(head_b.shape[1])),
            deduped=True,
        )
        self.detail["multiply_seconds"] = time.perf_counter() - multiply_start
        self.detail["heavy_tuples"] = len(state.heavy_block)


class DedupMerge(PhysicalOperator):
    """Merge the light and heavy outputs, deduplicating across the two.

    Both phases hand over packed keys under the execution's one layout, so
    the merge is one key concatenation, one plain sort with a neighbour
    compare, and the pipeline's one decode back to columns.  Under
    MODE_COUNTS the witness counts ride in the low bits of the sort keys and
    are summed per run with ``np.add.reduceat`` (the light and heavy witness
    populations are disjoint, so the sums are exact; counts are int64
    end-to-end thanks to the float64 widening guard in the matmul layer).
    """

    name = "dedup_merge"

    def run(self, state: ExecutionState) -> None:
        counting = state.mode == MODE_COUNTS
        light, heavy = (
            (state.light_counted, state.heavy_counted) if counting
            else (state.light_block, state.heavy_block)
        )
        # Either phase may be empty (wcoj strategy, empty residual).  A lone
        # light block is already canonical; a lone heavy block holds distinct
        # cells in whatever order its kernel emitted them, so it still goes
        # through dedup(), which returns at once when that order is sorted.
        if len(heavy) == 0:
            merged = light if light.deduped else light.dedup()
        elif len(light) == 0:
            merged = heavy.dedup()
        else:
            merged = light.concat(heavy).dedup()
        # The result leaves the pipeline as columns.  Decode here, inside
        # the operator, so the cost is paid (and timed) by the query rather
        # than by whoever first reads the block.
        merged = merged.materialize()
        if counting:
            state.result_counted = merged
            state.result_block = merged.pairs_block()
        else:
            state.result_block = merged
            # Both phase blocks are deduplicated, so the shrink is the
            # cross-phase overlap.
            self.detail["overlap"] = len(light) + len(heavy) - len(merged)
        self.record_memory(light.nbytes + heavy.nbytes, merged.nbytes)
        self.detail["output_size"] = state.output_size


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
def _probe_chunk(args: Tuple[Relation, Relation, bool, Optional[KeyLayout]]) -> PairBlock:
    """Worker task: chunked vectorized probe of one relation slice.

    Each worker returns its raw expansion, or — when that exceeds one
    expansion chunk — the concatenated distinct rows of its chunks, so its
    construction never holds more than one chunk of raw rows.
    """
    chunk, other, flip, layout = args
    return probe_pairs_block(chunk.xs, chunk.ys, other, flip=flip, layout=layout)


def _group_matrix(
    heavy_relations: List[Relation],
    group: List[int],
    heavy_y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the grouped adjacency matrix for one half of the star head.

    Candidate head combinations are discovered per heavy witness (so only
    combinations that actually co-occur appear as rows), then each row is
    marked against every heavy witness it is fully connected to.  Returns
    the head combinations as an ``(n, |group|)`` int64 row table plus the
    0/1 matrix.
    """
    indexes = [heavy_relations[i].index_y() for i in group]

    combo_blocks: List[np.ndarray] = []
    column_blocks: List[np.ndarray] = []
    for j, y in enumerate(heavy_y):
        yi = int(y)
        neighbour_lists = []
        missing = False
        for idx in indexes:
            values = idx.get(yi)
            if values is None or values.size == 0:
                missing = True
                break
            neighbour_lists.append(values)
        if missing:
            continue
        combos = cartesian_arrays(neighbour_lists)
        combo_blocks.append(combos)
        column_blocks.append(np.full(combos.shape[0], j, dtype=np.int64))

    if not combo_blocks:
        return (
            np.empty((0, len(group)), dtype=np.int64),
            np.zeros((0, heavy_y.size), dtype=np.float32),
        )

    all_columns = np.concatenate(column_blocks)
    distinct, rows = PairBlock.from_array(np.concatenate(combo_blocks, axis=0)).ranked()
    matrix = np.zeros((len(distinct), heavy_y.size), dtype=np.float32)
    matrix[rows, all_columns] = 1.0
    return distinct.as_array(), matrix
